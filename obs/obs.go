// Package obs instruments real goroutine barriers (package barrier)
// with low-overhead runtime telemetry: per-participant round counts,
// log2-bucketed wait-latency histograms, poll-loop spin/yield counters,
// and per-round arrival skew — the real-substrate analogue of the
// paper's Arrival-Phase vs Notification-Phase accounting.
//
// Wrap any barrier.Barrier:
//
//	ins := obs.Instrument(barrier.New(8), obs.Options{})
//	barrier.Run(ins, func(id int) {
//	    for !done() {
//	        work(id)
//	        ins.Wait(id)
//	    }
//	})
//	snap := ins.Snapshot()
//
// All counters live in cacheline-padded per-participant shards, written
// only by the owning participant (arrival skew is aggregated by
// participant 0 once per sampled round), so instrumentation does not
// introduce new contention. Round and spin counters are exact; full
// timing is captured on one round in Options.SampleEvery (default
// DefaultSampleEvery) because the two monotonic clock reads per Wait
// dominate the wrapper's cost — set SampleEvery to 1 for exact
// per-round capture. Snapshots can be taken concurrently with Wait and
// exported as Prometheus text exposition, JSON, or expvar (see
// export.go).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"armbarrier/barrier"
	"armbarrier/internal/stats"
)

// cacheLine matches the padding discipline of package barrier: 128
// bytes covers 64-byte lines plus adjacent-line prefetching and
// Kunpeng920's 128-byte L3 granularity.
const cacheLine = 128

// NumBuckets is the number of log2 latency buckets: bucket 0 holds
// zero-duration waits, bucket i holds durations in [2^(i-1), 2^i) ns,
// and the last bucket absorbs everything longer (~2^39 ns ≈ 9 min).
const NumBuckets = 41

// bucketOf maps a duration in nanoseconds to its log2 bucket.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(ns))
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketOf maps a duration in nanoseconds to its log2 bucket — the
// exported counterpart of the internal bucketing, so other packages
// (the fabric rollups) can fill histograms this package's
// HistQuantileNs and exporters understand.
func BucketOf(ns int64) int { return bucketOf(ns) }

// BucketUpperNs returns the inclusive upper bound of bucket i in
// nanoseconds, or math.MaxInt64 for the overflow bucket.
func BucketUpperNs(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// shard is one participant's telemetry block. Only the owning
// participant writes it (participant 0 additionally writes the skew
// fields of every shard, once per round, after all arrivals). Atomics
// make concurrent Snapshot reads race-free; the single-writer
// discipline keeps them uncontended. The struct is an exact multiple of
// the cacheline size so neighbouring shards never share a line.
type shard struct {
	rounds  atomic.Uint64
	waitSum atomic.Int64
	waitMax atomic.Int64
	// lastSkew / skewSum are this participant's arrival offset from the
	// round's first arriver (last completed round / summed over rounds).
	lastSkew atomic.Int64
	skewSum  atomic.Int64
	// arrival is a double buffer of Wait-entry timestamps indexed by
	// round parity. Participant 0 reads slot r&1 of every shard right
	// after its round-r Wait returns; no participant can overwrite that
	// slot (round r+2) before participant 0 arrives at round r+1, which
	// orders after the read.
	arrival [2]atomic.Int64
	hist    [NumBuckets]atomic.Uint64
}

// skewAgg aggregates the per-round arrival skew (last arrival minus
// first arrival). Written only by participant 0.
type skewAgg struct {
	rounds atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	hist   [NumBuckets]atomic.Uint64
}

// DefaultSampleEvery is the default telemetry sampling period: full
// timing (wait latency + arrival skew) is captured on one round in
// this many. Two monotonic clock reads per Wait are the wrapper's
// dominant cost; sampling keeps it well under the 10% budget while the
// histograms stay statistically faithful. Round counts and spin
// counters are always exact.
const DefaultSampleEvery = 8

// Options configures Instrument.
type Options struct {
	// Name overrides the barrier name used in snapshots and metric
	// labels; empty keeps the wrapped barrier's Name().
	Name string
	// SampleEvery captures full timing on one round in SampleEvery:
	// 0 means DefaultSampleEvery, 1 captures every round (exact
	// per-round skew at roughly double the wrapper cost).
	SampleEvery int
	// NoSpinCounts leaves the wrapped barrier's poll-loop counters off
	// even when it implements barrier.SpinCounter.
	NoSpinCounts bool
	// Phases enables per-(phase, level) probe telemetry (see phase.go)
	// when the wrapped barrier — or a barrier it decorates via Inner()
	// — implements barrier.PhaseProber. The probe is armed only on
	// sampled rounds; other rounds keep the barrier's disarmed
	// one-plain-load cost. Ignored for barriers without probe hooks.
	Phases bool
}

// Instrumented is a telemetry-collecting wrapper around a
// barrier.Barrier. It implements barrier.Barrier itself and is safe for
// use by exactly the wrapped barrier's participants, plus any number of
// concurrent Snapshot readers.
type Instrumented struct {
	inner  barrier.Barrier
	name   string
	p      int
	sample uint64
	base   time.Time
	shards []shard
	skew   skewAgg
	spins  barrier.SpinCounter // nil when unavailable or disabled
	parks  barrier.ParkCounter // nil when the barrier cannot park
	fused  []fusedShard        // allocated by Collective()
	// prober/phases are non-nil iff Options.Phases found probe hooks:
	// prober is the barrier whose probe slots wait() arms, phases the
	// recorder that receives the marks.
	prober barrier.PhaseProber
	phases *phaseRecorder
}

// fusedShard counts one participant's fused collective episodes
// (allreduce / reduce / broadcast). Kept outside shard so plain
// Instrument allocations are unchanged; padded like every other
// per-participant counter block.
type fusedShard struct {
	rounds atomic.Uint64
	_      [cacheLine - 8]byte
}

// Instrument wraps b. When b or a barrier it decorates (barrier.Unwrap)
// implements barrier.SpinCounter (all spin barriers in package barrier
// do), per-participant poll counting is enabled unless
// opts.NoSpinCounts is set. Instrument must be called before any
// participant uses b.
func Instrument(b barrier.Barrier, opts Options) *Instrumented {
	name := opts.Name
	if name == "" {
		name = b.Name()
	}
	sample := opts.SampleEvery
	if sample < 1 {
		sample = DefaultSampleEvery
	}
	in := &Instrumented{
		inner:  b,
		name:   name,
		p:      b.Participants(),
		sample: uint64(sample),
		base:   time.Now(),
		shards: make([]shard, b.Participants()),
	}
	if sc, ok := barrier.Unwrap[barrier.SpinCounter](b); ok && !opts.NoSpinCounts {
		sc.EnableSpinCounts()
		in.spins = sc
	}
	in.parks, _ = barrier.Unwrap[barrier.ParkCounter](b)
	if opts.Phases {
		if pp, ok := barrier.Unwrap[barrier.PhaseProber](b); ok {
			arr, wake := pp.PhaseShape()
			in.prober = pp
			in.phases = newPhaseRecorder(in.base, in.p, arr, wake)
		}
	}
	return in
}

// Inner returns the wrapped barrier.
func (in *Instrumented) Inner() barrier.Barrier { return in.inner }

// Name implements barrier.Barrier. It reports the wrapped barrier's
// name (or the Options.Name override), so instrumenting a barrier does
// not change how measurement tables label it.
func (in *Instrumented) Name() string { return in.name }

// Participants implements barrier.Barrier.
func (in *Instrumented) Participants() int { return in.p }

// now is a monotonic nanosecond clock (time.Since on a monotonic base
// compiles to one runtime.nanotime call — cheaper than time.Now, which
// also reads the wall clock).
func (in *Instrumented) now() int64 { return int64(time.Since(in.base)) }

// Wait implements barrier.Barrier. On sampled rounds it stamps the
// arrival, delegates to the wrapped barrier, and records the wait
// latency; participant 0 additionally folds the round's arrival spread
// into the skew aggregate. Unsampled rounds pay only the round counter.
// Every participant counts its own rounds, so all participants agree on
// which rounds are sampled.
func (in *Instrumented) Wait(id int) {
	in.wait(id, nil)
}

// wait is the shared Wait body. A non-nil tr receives the sampled
// rounds' arrival/release timestamps (the same clock reads the
// histograms use, so tracing adds no clock cost) — see Tracer.
func (in *Instrumented) wait(id int, tr *Tracer) {
	sh := &in.shards[id]
	r := sh.rounds.Load() // only this participant writes sh.rounds
	if in.sample > 1 && r%in.sample != 0 {
		in.inner.Wait(id)
		sh.rounds.Store(r + 1)
		return
	}
	start := in.now()
	sh.arrival[r&1].Store(start)
	var reg traceRegion
	if tr != nil {
		reg = tr.arrive(id, r/in.sample, start)
	}
	if in.phases != nil {
		in.phases.begin(id, start)
		in.prober.SetPhaseProbe(id, in.phases)
	}
	in.inner.Wait(id)
	end := in.now()
	if in.phases != nil {
		in.prober.SetPhaseProbe(id, nil)
	}
	if tr != nil {
		reg.end()
		tr.release(id, r/in.sample, end)
	}
	in.finishSampled(sh, id, r, start, end)
}

// finishSampled folds one sampled round's timing into the histograms
// and skew aggregates and advances the round counter. Shared between
// Wait and the fused collective episodes (InstrumentedCollective), so
// both feed the same wait-latency and skew telemetry.
func (in *Instrumented) finishSampled(sh *shard, id int, r uint64, start, end int64) {
	d := end - start
	sh.hist[bucketOf(d)].Add(1)
	sh.waitSum.Add(d)
	if d > sh.waitMax.Load() {
		sh.waitMax.Store(d)
	}
	if id == 0 && in.p > 1 {
		in.recordSkew(r)
	}
	sh.rounds.Store(r + 1)
}

// recordSkew runs on participant 0 after its round-r Wait returned —
// i.e. after every participant's round-r arrival stamp is in place —
// and before participant 0 arrives at round r+1, which is what licenses
// reading the parity slot (see shard.arrival). With sampling, the next
// arrival write lands in round r+sample ≥ r+2, which widens the window
// rather than shrinking it.
func (in *Instrumented) recordSkew(r uint64) {
	slot := r & 1
	first := int64(math.MaxInt64)
	last := int64(math.MinInt64)
	for i := range in.shards {
		a := in.shards[i].arrival[slot].Load()
		if a < first {
			first = a
		}
		if a > last {
			last = a
		}
	}
	for i := range in.shards {
		sh := &in.shards[i]
		off := sh.arrival[slot].Load() - first
		sh.lastSkew.Store(off)
		sh.skewSum.Add(off)
	}
	delta := last - first
	in.skew.rounds.Add(1)
	in.skew.sum.Add(delta)
	if delta > in.skew.max.Load() {
		in.skew.max.Store(delta)
	}
	in.skew.hist[bucketOf(delta)].Add(1)
}

var _ barrier.Barrier = (*Instrumented)(nil)

// ParticipantSnapshot is one participant's telemetry at Snapshot time.
type ParticipantSnapshot struct {
	ID     int    `json:"id"`
	Rounds uint64 `json:"rounds"`
	// Spins and Yields count poll-loop iterations and scheduler yields
	// inside the wrapped barrier (0 when the barrier cannot count them).
	Spins  uint64 `json:"spins"`
	Yields uint64 `json:"yields"`
	// Parks and Wakes count goroutine parks inside the wrapped barrier
	// and the wake tokens releasers handed this participant (both 0
	// under non-parking wait policies).
	Parks uint64 `json:"parks"`
	Wakes uint64 `json:"wakes"`
	// FusedRounds counts rounds that were fused collective episodes
	// (allreduce / reduce / broadcast through the Collective view); a
	// subset of Rounds. Always 0 unless Collective() is in use.
	FusedRounds uint64 `json:"fused_rounds,omitempty"`
	// WaitSamples is the number of rounds with full timing captured
	// (Rounds/SampleEvery, rounded up); the wait aggregates below cover
	// exactly these rounds. WaitHist holds log2 bucket counts (see
	// BucketUpperNs).
	WaitSamples uint64   `json:"wait_samples"`
	WaitSumNs   int64    `json:"wait_sum_ns"`
	WaitMaxNs   int64    `json:"wait_max_ns"`
	WaitHist    []uint64 `json:"wait_hist"`
	// LastSkewNs is this participant's arrival offset from the round's
	// first arriver in the last completed round; SkewSumNs sums the
	// offset over all skew-sampled rounds (so two snapshots can be
	// diffed into a per-window mean) and MeanSkewNs averages it.
	LastSkewNs int64   `json:"last_skew_ns"`
	SkewSumNs  int64   `json:"skew_sum_ns"`
	MeanSkewNs float64 `json:"mean_skew_ns"`
}

// MeanWaitNs is the average Wait latency over the sampled rounds.
func (p ParticipantSnapshot) MeanWaitNs() float64 {
	if p.WaitSamples == 0 {
		return 0
	}
	return float64(p.WaitSumNs) / float64(p.WaitSamples)
}

// WaitQuantileNs estimates the q-quantile of this participant's wait
// latency from its histogram.
func (p ParticipantSnapshot) WaitQuantileNs(q float64) float64 {
	return HistQuantileNs(p.WaitHist, q)
}

// elasticSource is the membership telemetry an elastic barrier
// (barrier.Phaser) exposes: the live registration gauge plus the
// monotonic register/deregister/phase counters.
type elasticSource interface {
	barrier.Membership
	Phase() uint64
	MembershipCounts() (registers, deregisters uint64)
}

// ElasticSnapshot is the membership telemetry of an elastic barrier at
// Snapshot time. Present only when the instrumented barrier (or one it
// decorates) has dynamic membership.
//
// Note that for elastic barriers the skew aggregates are approximate:
// skew is folded in by slot 0, so rounds in which slot 0 is not
// registered (or not the sampling arriver) contribute no skew sample,
// and per-slot series mix successive occupants of a recycled slot.
type ElasticSnapshot struct {
	// Registered is the current membership; Capacity the slot ceiling.
	Registered int `json:"registered"`
	Capacity   int `json:"capacity"`
	// Registers and Deregisters count lifetime membership changes.
	Registers   uint64 `json:"registers"`
	Deregisters uint64 `json:"deregisters"`
	// Phase counts resolved epochs (the elastic analogue of rounds).
	Phase uint64 `json:"phase"`
}

// SkewSnapshot aggregates the per-round arrival spread (last arrival
// minus first arrival) across all completed rounds.
type SkewSnapshot struct {
	Rounds uint64   `json:"rounds"`
	SumNs  int64    `json:"sum_ns"`
	MaxNs  int64    `json:"max_ns"`
	Hist   []uint64 `json:"hist"`
}

// MeanNs is the average per-round arrival skew.
func (s SkewSnapshot) MeanNs() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Rounds)
}

// QuantileNs estimates the q-quantile of the per-round arrival skew.
func (s SkewSnapshot) QuantileNs(q float64) float64 {
	return HistQuantileNs(s.Hist, q)
}

// Snapshot is a consistent-enough copy of an Instrumented barrier's
// telemetry: counters are read atomically, but participants may be
// mid-round, so cross-participant sums can differ by one round.
type Snapshot struct {
	Barrier      string `json:"barrier"`
	Participants int    `json:"participants"`
	// SampleEvery is the configured sampling period: wait-latency and
	// skew aggregates cover one round in SampleEvery.
	SampleEvery int                   `json:"sample_every"`
	PerParti    []ParticipantSnapshot `json:"per_participant"`
	Skew        SkewSnapshot          `json:"skew"`
	// Phases holds the per-(phase, level) series when Options.Phases is
	// enabled and the barrier has probe hooks; nil otherwise.
	Phases *PhaseSnapshot `json:"phases,omitempty"`
	// Elastic holds membership telemetry when the barrier has dynamic
	// membership (barrier.Phaser); nil otherwise.
	Elastic *ElasticSnapshot `json:"elastic,omitempty"`
}

// Snapshot captures the current telemetry. Safe to call at any time,
// including while participants are waiting.
func (in *Instrumented) Snapshot() Snapshot {
	s := Snapshot{
		Barrier:      in.name,
		Participants: in.p,
		SampleEvery:  int(in.sample),
		PerParti:     make([]ParticipantSnapshot, in.p),
		Skew: SkewSnapshot{
			Rounds: in.skew.rounds.Load(),
			SumNs:  in.skew.sum.Load(),
			MaxNs:  in.skew.max.Load(),
			Hist:   make([]uint64, NumBuckets),
		},
	}
	for b := range in.skew.hist {
		s.Skew.Hist[b] = in.skew.hist[b].Load()
	}
	if in.phases != nil {
		s.Phases = in.phases.snapshot()
	}
	if es, ok := barrier.Unwrap[elasticSource](in.inner); ok {
		regs, deregs := es.MembershipCounts()
		s.Elastic = &ElasticSnapshot{
			Registered:  es.Registered(),
			Capacity:    in.p,
			Registers:   regs,
			Deregisters: deregs,
			Phase:       es.Phase(),
		}
	}
	for id := range in.shards {
		sh := &in.shards[id]
		ps := ParticipantSnapshot{
			ID:         id,
			Rounds:     sh.rounds.Load(),
			WaitSumNs:  sh.waitSum.Load(),
			WaitMaxNs:  sh.waitMax.Load(),
			WaitHist:   make([]uint64, NumBuckets),
			LastSkewNs: sh.lastSkew.Load(),
			SkewSumNs:  sh.skewSum.Load(),
		}
		for b := range sh.hist {
			ps.WaitHist[b] = sh.hist[b].Load()
			ps.WaitSamples += ps.WaitHist[b]
		}
		if skewRounds := s.Skew.Rounds; skewRounds > 0 {
			ps.MeanSkewNs = float64(ps.SkewSumNs) / float64(skewRounds)
		}
		if in.spins != nil {
			ps.Spins, ps.Yields = in.spins.SpinCounts(id)
		}
		if in.parks != nil {
			ps.Parks, ps.Wakes = in.parks.ParkCounts(id)
		}
		if in.fused != nil {
			ps.FusedRounds = in.fused[id].rounds.Load()
		}
		s.PerParti[id] = ps
	}
	return s
}

// TotalRounds returns the smallest per-participant round count — the
// number of fully completed rounds.
func (s Snapshot) TotalRounds() uint64 {
	if len(s.PerParti) == 0 {
		return 0
	}
	min := s.PerParti[0].Rounds
	for _, p := range s.PerParti[1:] {
		if p.Rounds < min {
			min = p.Rounds
		}
	}
	return min
}

// MergedWaitHist sums the per-participant wait histograms.
func (s Snapshot) MergedWaitHist() []uint64 {
	out := make([]uint64, NumBuckets)
	for _, p := range s.PerParti {
		for b, c := range p.WaitHist {
			if b < len(out) {
				out[b] += c
			}
		}
	}
	return out
}

// WaitQuantileNs estimates the q-quantile of the wait latency across
// every participant and round.
func (s Snapshot) WaitQuantileNs(q float64) float64 {
	return HistQuantileNs(s.MergedWaitHist(), q)
}

// CrossParticipantMeanWaitNs returns the q-quantile of the participants'
// *mean* wait latencies — a balance metric: a wide spread means some
// participants systematically arrive early and spin while others are
// always late.
func (s Snapshot) CrossParticipantMeanWaitNs(q float64) float64 {
	means := make([]float64, 0, len(s.PerParti))
	for _, p := range s.PerParti {
		means = append(means, p.MeanWaitNs())
	}
	return stats.Quantile(means, q)
}

// Merge combines two snapshots of the same barrier shape (same
// participant count), summing counters and histograms — useful for
// aggregating across repeated runs or sharded services. It panics when
// the shapes differ.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	if s.Participants != o.Participants {
		panic("obs: merging snapshots with different participant counts")
	}
	out := Snapshot{
		Barrier:      s.Barrier,
		Participants: s.Participants,
		SampleEvery:  s.SampleEvery,
		PerParti:     make([]ParticipantSnapshot, len(s.PerParti)),
		Skew: SkewSnapshot{
			Rounds: s.Skew.Rounds + o.Skew.Rounds,
			SumNs:  s.Skew.SumNs + o.Skew.SumNs,
			MaxNs:  max(s.Skew.MaxNs, o.Skew.MaxNs),
			Hist:   mergeHist(s.Skew.Hist, o.Skew.Hist),
		},
		Phases: s.Phases.merge(o.Phases),
	}
	if s.Elastic != nil || o.Elastic != nil {
		// Counters sum across runs; the membership gauge keeps the
		// receiver's value (a merged gauge has no single truth).
		e := ElasticSnapshot{}
		if s.Elastic != nil {
			e = *s.Elastic
		} else {
			e.Registered, e.Capacity = o.Elastic.Registered, o.Elastic.Capacity
		}
		if o.Elastic != nil {
			e.Registers += o.Elastic.Registers
			e.Deregisters += o.Elastic.Deregisters
			e.Phase += o.Elastic.Phase
		}
		out.Elastic = &e
	}
	for i := range s.PerParti {
		a, b := s.PerParti[i], o.PerParti[i]
		rounds := a.Rounds + b.Rounds
		ps := ParticipantSnapshot{
			ID:          a.ID,
			Rounds:      rounds,
			Spins:       a.Spins + b.Spins,
			Yields:      a.Yields + b.Yields,
			Parks:       a.Parks + b.Parks,
			Wakes:       a.Wakes + b.Wakes,
			FusedRounds: a.FusedRounds + b.FusedRounds,
			WaitSamples: a.WaitSamples + b.WaitSamples,
			WaitSumNs:   a.WaitSumNs + b.WaitSumNs,
			WaitMaxNs:   max(a.WaitMaxNs, b.WaitMaxNs),
			WaitHist:    mergeHist(a.WaitHist, b.WaitHist),
			LastSkewNs:  b.LastSkewNs,
			SkewSumNs:   a.SkewSumNs + b.SkewSumNs,
		}
		if sr := s.Skew.Rounds + o.Skew.Rounds; sr > 0 {
			ps.MeanSkewNs = (a.MeanSkewNs*float64(s.Skew.Rounds) + b.MeanSkewNs*float64(o.Skew.Rounds)) / float64(sr)
		}
		out.PerParti[i] = ps
	}
	return out
}

func mergeHist(a, b []uint64) []uint64 {
	out := make([]uint64, NumBuckets)
	for i, c := range a {
		if i < len(out) {
			out[i] += c
		}
	}
	for i, c := range b {
		if i < len(out) {
			out[i] += c
		}
	}
	return out
}

// HistQuantileNs estimates the q-quantile (q clamped to [0,1]) of a
// log2 histogram produced by this package, interpolating linearly
// within the selected bucket — the same estimate Prometheus's
// histogram_quantile computes server-side.
func HistQuantileNs(hist []uint64, q float64) float64 {
	total := uint64(0)
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range hist {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(hist)-1 {
			lo := float64(0)
			if i > 0 {
				lo = float64(int64(1) << uint(i-1))
			}
			hi := float64(BucketUpperNs(i))
			if i >= NumBuckets-1 {
				hi = lo * 2 // the overflow bucket has no finite bound
			}
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return 0
}
