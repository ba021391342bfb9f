// Phase- and level-resolved telemetry. The paper's cost model is a
// per-phase decomposition — Arrival-Phase level by level up the tree
// (Eq. 1–2), Notification-Phase back down (Eq. 3–4) — and the
// barrier package's PhaseProbe hooks expose exactly those boundaries
// at runtime. This file aggregates the probe marks: per-participant,
// per-(phase, level) log2 histograms in cacheline-padded single-writer
// blocks, armed only on sampled rounds so the steady state keeps the
// bare barrier's disarmed one-plain-load cost.
//
// Enable with Options.Phases on a barrier implementing
// barrier.PhaseProber; the per-(phase, level) series then appears in
// Snapshot().Phases, the armbarrier_phase_* Prometheus families, and —
// through a Tracer — as per-phase slices on captured episodes. The
// drift scoreboard (drift.go) consumes the same series to compare
// measurement against the model's predictions.

package obs

import (
	"math"
	"sync/atomic"
	"time"

	"armbarrier/barrier"
)

// phaseLevelAgg is one participant's accumulator for one (phase,
// level) cell: a log2 latency histogram plus sum and max. Sized to an
// exact multiple of the cacheline so neighbouring cells — and through
// them neighbouring participants — never share a line. Owner-written,
// atomics for concurrent Snapshot reads.
type phaseLevelAgg struct {
	hist [NumBuckets]atomic.Uint64
	sum  atomic.Int64
	max  atomic.Int64
	_    [3*cacheLine - (NumBuckets*8 + 16)]byte
}

// phaseMark is one probe event of the in-flight sampled round,
// owner-only scratch the Tracer copies into its ring at release time.
type phaseMark struct {
	phase barrier.Phase
	level int
	atNs  int64
}

// phaseShard is one participant's per-episode probe state: the
// previous mark's timestamp (deltas between consecutive marks are what
// the histograms record) and the episode's mark list. Only the owning
// participant's goroutine touches it.
type phaseShard struct {
	lastNs int64
	nmarks int
	marks  []phaseMark
	_      [cacheLine - 40]byte
}

// phaseRecorder implements barrier.PhaseProbe: it is the object the
// Instrumented wrapper arms on sampled rounds. One instance serves all
// participants; all state is sharded per participant.
type phaseRecorder struct {
	base       time.Time
	arrLevels  int
	wakeLevels int
	stride     int // arrLevels + wakeLevels
	shards     []phaseShard
	aggs       []phaseLevelAgg // participant-major: [id*stride + cell]
}

func newPhaseRecorder(base time.Time, p, arrLevels, wakeLevels int) *phaseRecorder {
	pr := &phaseRecorder{
		base:       base,
		arrLevels:  arrLevels,
		wakeLevels: wakeLevels,
		stride:     arrLevels + wakeLevels,
	}
	pr.shards = make([]phaseShard, p)
	for i := range pr.shards {
		pr.shards[i].marks = make([]phaseMark, pr.stride)
	}
	pr.aggs = make([]phaseLevelAgg, p*pr.stride)
	return pr
}

// begin arms participant id's episode: the first mark's delta is
// measured from the same Wait-entry stamp the wait histograms use.
func (pr *phaseRecorder) begin(id int, startNs int64) {
	sh := &pr.shards[id]
	sh.lastNs = startNs
	sh.nmarks = 0
}

// PhasePoint implements barrier.PhaseProbe: record the time since the
// previous mark (or the Wait entry) into the (phase, level) cell.
func (pr *phaseRecorder) PhasePoint(id int, ph barrier.Phase, level int) {
	cell := level
	if ph == barrier.PhaseWakeup {
		cell = pr.arrLevels + level
	}
	if cell < 0 || cell >= pr.stride || id < 0 || id >= len(pr.shards) {
		return
	}
	now := int64(time.Since(pr.base))
	sh := &pr.shards[id]
	d := now - sh.lastNs
	sh.lastNs = now
	if sh.nmarks < len(sh.marks) {
		sh.marks[sh.nmarks] = phaseMark{phase: ph, level: level, atNs: now}
		sh.nmarks++
	}
	agg := &pr.aggs[id*pr.stride+cell]
	agg.hist[bucketOf(d)].Add(1)
	agg.sum.Add(d)
	if d > agg.max.Load() {
		agg.max.Store(d)
	}
}

var _ barrier.PhaseProbe = (*phaseRecorder)(nil)

// snapshot merges the per-participant cells into the exported
// per-(phase, level) series.
func (pr *phaseRecorder) snapshot() *PhaseSnapshot {
	ps := &PhaseSnapshot{
		ArrivalLevels: pr.arrLevels,
		WakeupLevels:  pr.wakeLevels,
		Levels:        make([]PhaseLevelSnapshot, 0, pr.stride),
	}
	p := len(pr.shards)
	for cell := 0; cell < pr.stride; cell++ {
		ls := PhaseLevelSnapshot{Hist: make([]uint64, NumBuckets)}
		if cell < pr.arrLevels {
			ls.Phase, ls.Level = barrier.PhaseArrival.String(), cell
		} else {
			ls.Phase, ls.Level = barrier.PhaseWakeup.String(), cell-pr.arrLevels
		}
		minMean, maxMean := math.Inf(1), math.Inf(-1)
		for id := 0; id < p; id++ {
			agg := &pr.aggs[id*pr.stride+cell]
			var n uint64
			for b := range agg.hist {
				c := agg.hist[b].Load()
				ls.Hist[b] += c
				n += c
			}
			sum := agg.sum.Load()
			ls.Samples += n
			ls.SumNs += sum
			if m := agg.max.Load(); m > ls.MaxNs {
				ls.MaxNs = m
			}
			if n > 0 {
				mean := float64(sum) / float64(n)
				minMean = math.Min(minMean, mean)
				maxMean = math.Max(maxMean, mean)
			}
		}
		if maxMean >= minMean {
			ls.SkewNs = maxMean - minMean
		}
		ps.Levels = append(ps.Levels, ls)
	}
	return ps
}

// PhaseLevelSnapshot is the merged telemetry of one (phase, level)
// cell: how long participants spent getting through that level, as a
// log2 histogram plus sum/max, and the per-level skew — the spread of
// the per-participant mean costs, which localizes a participant that
// is systematically slow at one level.
type PhaseLevelSnapshot struct {
	// Phase is "arrival" or "wakeup" (barrier.Phase.String()).
	Phase string `json:"phase"`
	Level int    `json:"level"`
	// Samples counts probe marks folded into this cell (across all
	// participants and sampled rounds).
	Samples uint64 `json:"samples"`
	SumNs   int64  `json:"sum_ns"`
	MaxNs   int64  `json:"max_ns"`
	// SkewNs is max minus min of the per-participant mean level cost
	// (0 when fewer than two participants have samples).
	SkewNs float64  `json:"skew_ns"`
	Hist   []uint64 `json:"hist"`
}

// MeanNs is the average cost of this (phase, level) step.
func (l PhaseLevelSnapshot) MeanNs() float64 {
	if l.Samples == 0 {
		return 0
	}
	return float64(l.SumNs) / float64(l.Samples)
}

// QuantileNs estimates the q-quantile of the level cost, or NaN when
// the cell has no samples yet (matching the stream exporter's
// convention for sampleless quantile gauges).
func (l PhaseLevelSnapshot) QuantileNs(q float64) float64 {
	if l.Samples == 0 {
		return math.NaN()
	}
	return HistQuantileNs(l.Hist, q)
}

// PhaseSnapshot is the per-(phase, level) series of one Instrumented
// barrier with Options.Phases enabled: ArrivalLevels cells for the
// arrival phase followed by WakeupLevels cells for the wake-up, in
// level order.
type PhaseSnapshot struct {
	ArrivalLevels int                  `json:"arrival_levels"`
	WakeupLevels  int                  `json:"wakeup_levels"`
	Levels        []PhaseLevelSnapshot `json:"levels"`
}

// Level returns the cell for (phase, level), or nil when out of range.
func (p *PhaseSnapshot) Level(phase string, level int) *PhaseLevelSnapshot {
	if p == nil || level < 0 {
		return nil
	}
	idx := -1
	switch phase {
	case barrier.PhaseArrival.String():
		if level < p.ArrivalLevels {
			idx = level
		}
	case barrier.PhaseWakeup.String():
		if level < p.WakeupLevels {
			idx = p.ArrivalLevels + level
		}
	}
	if idx < 0 || idx >= len(p.Levels) {
		return nil
	}
	return &p.Levels[idx]
}

// PhaseMedianSumNs sums the per-level median costs of one phase — the
// measured analogue of the model's per-phase totals (Eq. 1 sums
// per-level arrival terms; Eq. 3–4 price the wake-up). Levels without
// samples contribute nothing; a phase with no sampled level at all
// returns NaN.
func (p *PhaseSnapshot) PhaseMedianSumNs(phase string) float64 {
	if p == nil {
		return math.NaN()
	}
	sum, seen := 0.0, false
	for _, l := range p.Levels {
		if l.Phase != phase || l.Samples == 0 {
			continue
		}
		sum += HistQuantileNs(l.Hist, 0.5)
		seen = true
	}
	if !seen {
		return math.NaN()
	}
	return sum
}

// merge combines two phase snapshots of the same shape (used by
// Snapshot.Merge); MaxNs and SkewNs take the pairwise max since the
// per-participant means behind SkewNs are not recoverable.
func (p *PhaseSnapshot) merge(o *PhaseSnapshot) *PhaseSnapshot {
	if p == nil || o == nil ||
		p.ArrivalLevels != o.ArrivalLevels || p.WakeupLevels != o.WakeupLevels {
		return nil
	}
	out := &PhaseSnapshot{
		ArrivalLevels: p.ArrivalLevels,
		WakeupLevels:  p.WakeupLevels,
		Levels:        make([]PhaseLevelSnapshot, len(p.Levels)),
	}
	for i := range p.Levels {
		a, b := p.Levels[i], o.Levels[i]
		out.Levels[i] = PhaseLevelSnapshot{
			Phase:   a.Phase,
			Level:   a.Level,
			Samples: a.Samples + b.Samples,
			SumNs:   a.SumNs + b.SumNs,
			MaxNs:   max(a.MaxNs, b.MaxNs),
			SkewNs:  math.Max(a.SkewNs, b.SkewNs),
			Hist:    mergeHist(a.Hist, b.Hist),
		}
	}
	return out
}
