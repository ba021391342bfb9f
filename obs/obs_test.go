package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"armbarrier/barrier"
	"armbarrier/internal/faultinject"
)

// runUntilStopped drives b with all participants until stop closes.
// Participant 0 alone reads stop and publishes the decision, which
// everyone reads between two episodes, so all participants leave after
// the same round. Checking stop independently would let an early
// leaver strand its peers in Wait.
func runUntilStopped(b barrier.Barrier, stop <-chan struct{}) {
	var quit atomic.Bool
	barrier.Run(b, func(id int) {
		for {
			if id == 0 {
				select {
				case <-stop:
					quit.Store(true)
				default:
				}
			}
			b.Wait(id)
			q := quit.Load()
			b.Wait(id)
			if q {
				return
			}
		}
	})
}

// runRounds drives an instrumented barrier through a fixed number of
// rounds with all participants.
func runRounds(in *Instrumented, rounds int) {
	barrier.Run(in, func(id int) {
		for r := 0; r < rounds; r++ {
			in.Wait(id)
		}
	})
}

func TestShardPadding(t *testing.T) {
	if s := unsafe.Sizeof(shard{}); s%cacheLine != 0 {
		t.Fatalf("shard is %d bytes, not a multiple of %d", s, cacheLine)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Buckets and bounds agree: every value is <= its bucket's bound.
	for _, ns := range []int64{0, 1, 7, 100, 65536, 1 << 45} {
		if up := BucketUpperNs(bucketOf(ns)); ns > up {
			t.Errorf("ns %d above its bucket bound %d", ns, up)
		}
	}
}

func TestInstrumentCountsRounds(t *testing.T) {
	const p, rounds = 4, 25
	in := Instrument(barrier.New(p), Options{SampleEvery: 1})
	runRounds(in, rounds)
	s := in.Snapshot()
	if s.Barrier != "optimized" || s.Participants != p {
		t.Fatalf("snapshot header = %q/%d", s.Barrier, s.Participants)
	}
	if got := s.TotalRounds(); got != rounds {
		t.Fatalf("TotalRounds = %d, want %d", got, rounds)
	}
	for _, ps := range s.PerParti {
		if ps.Rounds != rounds {
			t.Fatalf("participant %d rounds = %d, want %d", ps.ID, ps.Rounds, rounds)
		}
		total := uint64(0)
		for _, c := range ps.WaitHist {
			total += c
		}
		if total != rounds || ps.WaitSamples != rounds {
			t.Fatalf("participant %d histogram holds %d samples (field %d), want %d",
				ps.ID, total, ps.WaitSamples, rounds)
		}
		if ps.WaitSumNs < 0 || ps.WaitMaxNs < 0 || ps.LastSkewNs < 0 || ps.MeanSkewNs < 0 {
			t.Fatalf("negative telemetry: %+v", ps)
		}
		if ps.MeanWaitNs() > float64(ps.WaitMaxNs) {
			t.Fatalf("participant %d mean wait %.0f above max %d", ps.ID, ps.MeanWaitNs(), ps.WaitMaxNs)
		}
	}
	if s.Skew.Rounds != rounds {
		t.Fatalf("skew rounds = %d, want %d", s.Skew.Rounds, rounds)
	}
	if float64(s.Skew.MaxNs) < s.Skew.MeanNs() {
		t.Fatalf("skew max %d below mean %.0f", s.Skew.MaxNs, s.Skew.MeanNs())
	}
	// Some round's first and last arrival differ on any real host.
	if s.Skew.SumNs == 0 {
		t.Log("warning: zero total arrival skew (all arrivals within 1ns resolution)")
	}
}

func TestSamplingDefault(t *testing.T) {
	const p, rounds = 2, 25
	in := Instrument(barrier.New(p), Options{}) // DefaultSampleEvery = 8
	runRounds(in, rounds)
	s := in.Snapshot()
	if s.SampleEvery != DefaultSampleEvery {
		t.Fatalf("SampleEvery = %d", s.SampleEvery)
	}
	// Rounds 0, 8, 16, 24 are sampled.
	const wantSamples = 4
	for _, ps := range s.PerParti {
		if ps.Rounds != rounds {
			t.Fatalf("round counter must stay exact: %d", ps.Rounds)
		}
		if ps.WaitSamples != wantSamples {
			t.Fatalf("participant %d samples = %d, want %d", ps.ID, ps.WaitSamples, wantSamples)
		}
	}
	if s.Skew.Rounds != wantSamples {
		t.Fatalf("skew rounds = %d, want %d", s.Skew.Rounds, wantSamples)
	}
}

func TestInstrumentSpinCounts(t *testing.T) {
	const p, rounds = 4, 50
	// Spin-yield pinned: P=4 is oversubscribed on a host with fewer
	// processors, where the default waits yield first and never spin.
	in := Instrument(barrier.New(p, barrier.WithWaitPolicy(barrier.SpinYieldWait())), Options{})
	runRounds(in, rounds)
	total := uint64(0)
	for _, ps := range in.Snapshot().PerParti {
		total += ps.Spins
	}
	if total == 0 {
		t.Error("no spins counted through the SpinCounter hook")
	}
}

func TestInstrumentNoSpinCounts(t *testing.T) {
	in := Instrument(barrier.New(2), Options{NoSpinCounts: true})
	runRounds(in, 10)
	for _, ps := range in.Snapshot().PerParti {
		if ps.Spins != 0 || ps.Yields != 0 {
			t.Fatalf("spin counts present despite NoSpinCounts: %+v", ps)
		}
	}
}

func TestInstrumentParkCounts(t *testing.T) {
	// Force parks deterministically: one proc and a sleeping straggler.
	// While participant 0 is off in the timer, the other waiters exhaust
	// their bounded yields with nothing runnable to hand the core to and
	// must park.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	const p, rounds = 4, 20
	in := Instrument(barrier.New(p, barrier.WithWaitPolicy(barrier.SpinParkWait())), Options{})
	barrier.Run(in, func(id int) {
		for r := 0; r < rounds; r++ {
			if id == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			in.Wait(id)
		}
	})
	var parks, wakes uint64
	for _, ps := range in.Snapshot().PerParti {
		parks += ps.Parks
		wakes += ps.Wakes
	}
	if parks == 0 {
		t.Error("no parks surfaced through the ParkCounter hook")
	}
	if wakes == 0 {
		t.Error("no wakes surfaced through the ParkCounter hook")
	}
	// Prometheus exposition must carry the new counter families.
	var sb strings.Builder
	if err := WritePrometheus(&sb, in.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"armbarrier_parks_total", "armbarrier_wakes_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestInstrumentCountsThroughDecorators instruments a barrier behind a
// fault injector and a watchdog, neither of which forwards the
// counters: Instrument must still find the spin and park counters on
// the barrier that owns them.
func TestInstrumentCountsThroughDecorators(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	const p, rounds = 4, 20
	// counts runs the decorated barrier under pol. Oversubscribed,
	// spin-park waiters yield before they park and never spin, so the
	// spins are counted under spin-yield and the parks under spin-park.
	counts := func(pol barrier.WaitPolicy) (spins, parks uint64) {
		b := barrier.New(p, barrier.WithWaitPolicy(pol))
		in := Instrument(faultinject.Wrap(barrier.NewWatchdog(b, barrier.WatchdogConfig{Deadline: time.Minute})), Options{})
		barrier.Run(in, func(id int) {
			for r := 0; r < rounds; r++ {
				if id == 0 {
					time.Sleep(200 * time.Microsecond)
				}
				in.Wait(id)
			}
		})
		for _, ps := range in.Snapshot().PerParti {
			spins += ps.Spins
			parks += ps.Parks
		}
		return spins, parks
	}
	if spins, _ := counts(barrier.SpinYieldWait()); spins == 0 {
		t.Error("no spins counted through the decorators")
	}
	if _, parks := counts(barrier.SpinParkWait()); parks == 0 {
		t.Error("no parks counted through the decorators")
	}
}

func TestInstrumentParkCountsDefaultPolicyZero(t *testing.T) {
	// P = GOMAXPROCS: the dedicated regime, whose default never parks.
	in := Instrument(barrier.New(runtime.GOMAXPROCS(0)), Options{})
	runRounds(in, 10)
	for _, ps := range in.Snapshot().PerParti {
		if ps.Parks != 0 || ps.Wakes != 0 {
			t.Fatalf("park counts present under spin-yield: %+v", ps)
		}
	}
}

func TestInstrumentNonSpinBarrier(t *testing.T) {
	// Channel barriers cannot count spins; everything else must work.
	in := Instrument(barrier.NewChannel(3), Options{})
	runRounds(in, 10)
	s := in.Snapshot()
	if s.TotalRounds() != 10 {
		t.Fatalf("rounds = %d", s.TotalRounds())
	}
}

func TestInstrumentNameOverride(t *testing.T) {
	in := Instrument(barrier.New(2), Options{Name: "svc-phase"})
	if in.Name() != "svc-phase" {
		t.Fatalf("Name = %q", in.Name())
	}
}

func TestInstrumentSingleParticipant(t *testing.T) {
	in := Instrument(barrier.New(1), Options{})
	for i := 0; i < 5; i++ {
		in.Wait(0)
	}
	s := in.Snapshot()
	if s.PerParti[0].Rounds != 5 || s.Skew.Rounds != 0 {
		t.Fatalf("P=1 snapshot: %+v", s)
	}
}

func TestSnapshotWhileRunning(t *testing.T) {
	const p = 4
	in := Instrument(barrier.New(p), Options{})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		runUntilStopped(in, stop)
	}()
	var last uint64
	for i := 0; i < 100; i++ {
		s := in.Snapshot()
		if r := s.TotalRounds(); r < last {
			t.Fatalf("rounds went backwards: %d then %d", last, r)
		} else {
			last = r
		}
	}
	close(stop)
	<-done
}

func TestHistQuantile(t *testing.T) {
	hist := make([]uint64, NumBuckets)
	// 100 samples in bucket 5 ([16,31] ns).
	hist[5] = 100
	q50 := HistQuantileNs(hist, 0.5)
	if q50 < 16 || q50 > 31 {
		t.Fatalf("q50 = %g outside bucket bounds", q50)
	}
	if lo, hi := HistQuantileNs(hist, 0), HistQuantileNs(hist, 1); lo > hi {
		t.Fatalf("quantiles not monotone: %g > %g", lo, hi)
	}
	if got := HistQuantileNs(make([]uint64, NumBuckets), 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g", got)
	}
}

func TestSnapshotQuantilesAndMerge(t *testing.T) {
	const p, rounds = 4, 30
	in := Instrument(barrier.New(p), Options{SampleEvery: 1})
	runRounds(in, rounds)
	s := in.Snapshot()

	if q50, q99 := s.WaitQuantileNs(0.5), s.WaitQuantileNs(0.99); q50 > q99 {
		t.Fatalf("wait quantiles not monotone: p50=%g p99=%g", q50, q99)
	}
	if c := s.CrossParticipantMeanWaitNs(0.5); c < 0 {
		t.Fatalf("cross-participant median = %g", c)
	}

	m := s.Merge(s)
	if m.TotalRounds() != 2*rounds {
		t.Fatalf("merged rounds = %d, want %d", m.TotalRounds(), 2*rounds)
	}
	if m.Skew.Rounds != 2*s.Skew.Rounds || m.Skew.SumNs != 2*s.Skew.SumNs {
		t.Fatalf("merged skew = %+v", m.Skew)
	}
	if m.PerParti[1].Spins != 2*s.PerParti[1].Spins {
		t.Fatal("merged spins not summed")
	}
	if m.PerParti[0].WaitMaxNs != s.PerParti[0].WaitMaxNs {
		t.Fatal("merged max should be max, not sum")
	}
}

func TestMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	a := Instrument(barrier.New(2), Options{}).Snapshot()
	b := Instrument(barrier.New(3), Options{}).Snapshot()
	a.Merge(b)
}

func TestPrometheusExposition(t *testing.T) {
	const p = 3
	in := Instrument(barrier.New(p), Options{SampleEvery: 1})
	runRounds(in, 20)
	var sb strings.Builder
	if err := WritePrometheus(&sb, in.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		`armbarrier_participants{barrier="optimized"} 3`,
		`armbarrier_rounds_total{barrier="optimized",participant="0"} 20`,
		`armbarrier_wait_latency_ns_bucket{barrier="optimized",participant="2",le="+Inf"}`,
		`armbarrier_wait_latency_ns_count{barrier="optimized",participant="1"} 20`,
		`armbarrier_round_skew_ns_count{barrier="optimized"} 20`,
		"# TYPE armbarrier_wait_latency_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Arrival-skew gauges must appear for every participant.
	for id := 0; id < p; id++ {
		for _, name := range []string{"armbarrier_arrival_skew_last_ns", "armbarrier_arrival_skew_mean_ns"} {
			if !strings.Contains(out, name+`{barrier="optimized",participant="`+string(rune('0'+id))+`"}`) {
				t.Errorf("missing %s for participant %d", name, id)
			}
		}
	}
	validatePromText(t, out)
}

// validatePromText checks the structural rules of the text exposition
// format: TYPE before samples, cumulative non-decreasing buckets per
// series, +Inf bucket equals _count.
func validatePromText(t *testing.T, out string) {
	t.Helper()
	typed := map[string]bool{}
	lastCum := map[string]uint64{}
	infSeen := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if !typed[base] && !typed[name] {
			t.Fatalf("sample %q before its TYPE line", line)
		}
		if strings.Contains(line, "_bucket{") {
			series := line[:strings.Index(line, `le="`)]
			fields := strings.Fields(line)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			if v < lastCum[series] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastCum[series] = v
			if strings.Contains(line, `le="+Inf"`) {
				infSeen[series] = v
			}
		}
	}
	if len(infSeen) == 0 {
		t.Fatal("no +Inf buckets found")
	}
}

func TestMetricsHandler(t *testing.T) {
	in := Instrument(barrier.New(2), Options{SampleEvery: 1})
	runRounds(in, 10)
	h := in.MetricsHandler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "armbarrier_wait_latency_ns_bucket") {
		t.Fatalf("prometheus body missing histogram:\n%s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON body: %v", err)
	}
	if snap.Participants != 2 || snap.TotalRounds() != 10 {
		t.Fatalf("JSON snapshot = %+v", snap)
	}
}

func TestExpvarVar(t *testing.T) {
	in := Instrument(barrier.New(2), Options{})
	runRounds(in, 5)
	var snap Snapshot
	if err := json.Unmarshal([]byte(in.Var().String()), &snap); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if snap.TotalRounds() != 5 {
		t.Fatalf("expvar snapshot rounds = %d", snap.TotalRounds())
	}
}
