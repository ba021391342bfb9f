package obs

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"armbarrier/barrier"
)

// episodeLoop runs b.N barrier episodes across P participants — the
// same shape epcc.MeasureReal times.
func episodeLoop(b *testing.B, bar barrier.Barrier) {
	b.ResetTimer()
	barrier.Run(bar, func(id int) {
		for i := 0; i < b.N; i++ {
			bar.Wait(id)
		}
	})
}

// BenchmarkInstrumentOverhead compares the paper's optimized barrier
// bare vs wrapped in obs.Instrument at P=8. The wrapper's budget is
// <10% — cheap enough to leave on under load. Run:
//
//	go test -bench InstrumentOverhead -benchtime 2s ./obs/
func BenchmarkInstrumentOverhead(b *testing.B) {
	const p = 8
	b.Run("bare", func(b *testing.B) {
		episodeLoop(b, barrier.New(p))
	})
	b.Run("instrumented", func(b *testing.B) {
		episodeLoop(b, Instrument(barrier.New(p), Options{}))
	})
	b.Run("phased", func(b *testing.B) {
		episodeLoop(b, Instrument(barrier.New(p), Options{Phases: true}))
	})
	b.Run("traced", func(b *testing.B) {
		episodeLoop(b, armedTracer(p))
	})
	b.Run("streamed", func(b *testing.B) {
		bar, stop := streamedBarrier(p)
		defer stop()
		episodeLoop(b, bar)
	})
}

// armedTracer builds a flight recorder whose trigger is armed but can
// never fire — the steady-state configuration whose overhead must stay
// in the Instrument envelope.
func armedTracer(p int, opts ...barrier.Option) *Tracer {
	return Trace(barrier.New(p, opts...), TraceOptions{
		SkewThresholdNs: 1 << 62,
	})
}

// streamedBarrier builds the always-on production configuration the
// streaming overhead guard judges: Instrument plus a Stream rotating
// live at an aggressive 100ms window. The returned stop halts the
// rotator.
func streamedBarrier(p int, opts ...barrier.Option) (barrier.Barrier, func()) {
	in := Instrument(barrier.New(p, opts...), Options{})
	st := NewStream(in, StreamOptions{Window: 100 * time.Millisecond})
	st.Start()
	return in, st.Stop
}

// overheadVariant is one wrapped configuration the guard compares
// against the bare barrier. cleanup (optional) tears down background
// machinery after the measurement. budget, when nonzero, overrides the
// guard-wide budget for this variant.
type overheadVariant struct {
	name   string
	mk     func() (barrier.Barrier, func())
	budget float64
}

// overheadGuard measures bare vs each variant and enforces the ratio
// budget, best of several attempts. Spin barriers on a shared,
// unpinned host are noisy, so one bad attempt never fails the guard;
// set ARMBARRIER_SKIP_OVERHEAD_GUARD=1 to skip on hopelessly loaded
// machines.
func overheadGuard(t *testing.T, p int, bopts []barrier.Option, budget float64, variants []overheadVariant) {
	t.Helper()
	if os.Getenv("ARMBARRIER_SKIP_OVERHEAD_GUARD") != "" {
		t.Skip("ARMBARRIER_SKIP_OVERHEAD_GUARD set")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		// The race detector multiplies the cost of the wrapper's atomics
		// far more than the barrier's spin loop, so the wall-clock budget
		// is meaningless in -race builds; run plainly to judge it.
		t.Skip("race detector distorts the overhead ratio")
	}
	const attempts = 4
	best := map[string]float64{}
	budgetOf := func(v overheadVariant) float64 {
		if v.budget > 0 {
			return v.budget
		}
		return budget
	}
	for a := 0; a < attempts; a++ {
		bare := testing.Benchmark(func(b *testing.B) {
			episodeLoop(b, barrier.New(p, bopts...))
		})
		ok := true
		for _, v := range variants {
			if r, judged := best[v.name]; judged && r < budgetOf(v) {
				continue // already within budget
			}
			res := testing.Benchmark(func(b *testing.B) {
				bar, cleanup := v.mk()
				if cleanup != nil {
					defer cleanup()
				}
				episodeLoop(b, bar)
			})
			ratio := float64(res.NsPerOp()) / float64(bare.NsPerOp())
			t.Logf("attempt %d: bare %d ns/episode, %s %d ns/episode, ratio %.3f",
				a, bare.NsPerOp(), v.name, res.NsPerOp(), ratio)
			if prev, judged := best[v.name]; !judged || ratio < prev {
				best[v.name] = ratio
			}
			if best[v.name] >= budgetOf(v) {
				ok = false
			}
		}
		if ok {
			return
		}
	}
	for _, v := range variants {
		if r, bud := best[v.name], budgetOf(v); r >= bud {
			t.Errorf("%s overhead %.1f%% exceeds the %.0f%% budget (best of %d attempts)",
				v.name, (r-1)*100, (bud-1)*100, attempts)
		}
	}
}

// TestInstrumentOverheadGuard enforces the <10% budget in the regular
// test run for every observer configuration a production service would
// leave on: the plain instrumentation wrapper, the flight recorder
// with its trigger armed but not firing, and the streaming layer
// rotating live at a 100ms window. With GOMAXPROCS >= P this
// exercises the dedicated regime; see
// TestStreamOverheadGuardOversubscribed for the other one.
func TestInstrumentOverheadGuard(t *testing.T) {
	const p = 8
	// Oversubscribed, a spin-yield barrier would measure the scheduler,
	// not the wrapper: P spinning goroutines on fewer cores make both
	// the bare and wrapped timings preemption lotteries. The barrier's
	// regime default parks there instead, so the waiters get off the
	// cores and the guard holds in both regimes. Parking also makes the
	// bare episode several times cheaper, so the wrapper's fixed
	// per-round cost is a larger fraction of it; the budget widens to
	// 15% there while the absolute overhead stays the same. The guard
	// reads the policy the barrier resolved to, the same rule it runs.
	budget := 1.10
	// Phase probes add a fixed per-sampled-round cost on top of the
	// wrapper's: one clock read and a handful of owner-only atomics per
	// (phase, level) mark. On dedicated cores that disappears into the
	// spin time; against parked oversubscribed episodes — several times
	// cheaper — the same fixed cost is a visibly larger fraction, so the
	// phased budget widens further than the wrapper's there.
	phasedBudget := 1.10
	if barrier.NewOptimized(p, barrier.OptimizedConfig{}).WaitPolicy() == barrier.SpinParkWait() {
		budget = 1.15
		phasedBudget = 1.25
	}
	overheadGuard(t, p, nil, budget, []overheadVariant{
		{name: "instrumented", mk: func() (barrier.Barrier, func()) {
			return Instrument(barrier.New(p), Options{}), nil
		}},
		// Phase probes at the default sampling rate: the probe sites
		// stay disarmed on unsampled rounds (one plain load each), so
		// the per-level telemetry must fit in the envelope above.
		{name: "phased", budget: phasedBudget, mk: func() (barrier.Barrier, func()) {
			return Instrument(barrier.New(p), Options{Phases: true}), nil
		}},
		{name: "traced", mk: func() (barrier.Barrier, func()) { return armedTracer(p), nil }},
		{name: "streamed", mk: func() (barrier.Barrier, func()) { return streamedBarrier(p) }},
	})
}

// TestStreamOverheadGuardOversubscribed pins the streaming layer's
// budget in the oversubscribed regime regardless of the host: more
// participants than cores, parking policy (the regime's winner per the
// paper), stream rotating at 100ms. A rotation is one snapshot of
// counters the participants already maintain, so oversubscription must
// not widen the gap — the rotator goroutine competes for cores like
// any other process would.
func TestStreamOverheadGuardOversubscribed(t *testing.T) {
	p := 2 * runtime.GOMAXPROCS(0)
	if p < 8 {
		p = 8
	}
	bopts := []barrier.Option{barrier.WithWaitPolicy(barrier.SpinParkWait())}
	overheadGuard(t, p, bopts, 1.15, []overheadVariant{
		{name: "streamed", mk: func() (barrier.Barrier, func()) { return streamedBarrier(p, bopts...) }},
	})
}

// Example of the telemetry a snapshot renders; also keeps the exported
// quantile helpers exercised without a live scrape.
func Example() {
	in := Instrument(barrier.New(2), Options{})
	barrier.Run(in, func(id int) {
		for r := 0; r < 100; r++ {
			in.Wait(id)
		}
	})
	s := in.Snapshot()
	fmt.Println(s.Barrier, s.Participants, s.TotalRounds())
	// Output: optimized 2 100
}
