// Package epcc measures barrier overhead with the methodology of the
// EPCC OpenMP micro-benchmark suite (Bull & O'Neill), the tool the
// paper uses for every figure: run a tight loop of barrier episodes
// across P parallel workers, subtract the reference cost of the same
// loop without synchronization, and report the per-barrier overhead.
//
// Two substrates are supported:
//
//   - MeasureSim runs a barrier algorithm on the deterministic cache
//     simulator (package sim) and reports simulated nanoseconds — the
//     reproduction of the paper's hardware numbers.
//   - MeasureReal runs a real goroutine barrier (package barrier) and
//     reports wall-clock nanoseconds on the host.
package epcc

import (
	"fmt"
	"sync"
	"time"

	"armbarrier/barrier"
	"armbarrier/sim"
	"armbarrier/sim/algo"
	"armbarrier/topology"
	"armbarrier/tune"
)

// Result is one overhead measurement.
type Result struct {
	Name    string
	Threads int
	// OverheadNs is the average per-barrier overhead in nanoseconds
	// (simulated or wall-clock, depending on the substrate).
	OverheadNs float64
	// Episodes is how many barrier episodes were timed.
	Episodes int
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%d: %.1f ns/barrier over %d episodes", r.Name, r.Threads, r.OverheadNs, r.Episodes)
}

// Regime classifies a real measurement the way the benchmark tables
// label it: "dedicated" while every participant can own a schedulable
// core, "oversubscribed" once participants outnumber them. The two
// regimes are different experiments — spinning policies that win
// dedicated collapse oversubscribed — so results should never be
// compared across the boundary. The label is tune.Regime vocabulary
// (tune.ClassifyStatic), the rule the barrier constructors apply when
// they pick their default wait policy.
func Regime(threads, gomaxprocs int) string {
	return tune.ClassifyStatic(threads, gomaxprocs).String()
}

// SimOptions configures MeasureSim.
type SimOptions struct {
	// Warmup and Episodes follow algo.MeasureOptions (defaults 3/10).
	Warmup   int
	Episodes int
	// Placement overrides compact pinning.
	Placement topology.Placement
}

// MeasureSim measures one simulated barrier configuration.
func MeasureSim(m *topology.Machine, threads int, factory algo.Factory, opts SimOptions) (Result, error) {
	ns, err := algo.Measure(m, threads, factory, algo.MeasureOptions{
		Warmup:    opts.Warmup,
		Episodes:  opts.Episodes,
		Placement: opts.Placement,
	})
	if err != nil {
		return Result{}, err
	}
	ep := opts.Episodes
	if ep == 0 {
		ep = 10
	}
	return Result{Name: FactoryName(m, threads, factory), Threads: threads, OverheadNs: ns, Episodes: ep}, nil
}

// FactoryName instantiates a barrier on a throwaway kernel to recover
// its display name.
func FactoryName(m *topology.Machine, threads int, factory algo.Factory) string {
	place, err := topology.Compact(m, threads)
	if err != nil {
		return "barrier"
	}
	k, err := sim.New(sim.Config{Machine: m, Placement: place})
	if err != nil {
		return "barrier"
	}
	return factory(k, threads).Name()
}

// RealOptions configures MeasureReal.
type RealOptions struct {
	// Episodes is the number of timed barrier episodes (default 1000).
	Episodes int
	// Repeats re-runs the measurement and keeps the minimum, the EPCC
	// convention for suppressing scheduler noise (default 3).
	Repeats int
	// Wrap, when non-nil, wraps the constructed barrier before it is
	// measured — e.g. obs.Instrument to collect telemetry, or obs.Trace
	// to flight-record the very episodes EPCC times (the returned
	// *obs.Tracer keeps the worst rounds as replayable Episodes). The
	// wrapper's cost is part of the reported overhead, so wrapped and
	// bare results are directly comparable.
	Wrap func(barrier.Barrier) barrier.Barrier
	// WaitTimeout, when positive, bounds every measured Wait via
	// barrier.WaitDeadline so a wedged barrier (a buggy wrapper, a
	// fault-injected straggler) aborts the measurement with an error
	// instead of hanging it. The post-Wrap barrier must implement
	// barrier.DeadlineWaiter. The bounded wait's armed check adds a few
	// nanoseconds per episode, so leave it zero for publication runs.
	WaitTimeout time.Duration
}

// MeasureReal measures a real goroutine barrier's overhead: the
// wall-clock time of Episodes back-to-back Wait calls per worker,
// minus the reference time of the same loop body without the barrier,
// divided by Episodes.
func MeasureReal(mk func(p int) barrier.Barrier, threads int, opts RealOptions) (Result, error) {
	if threads < 1 {
		return Result{}, fmt.Errorf("epcc: %d threads", threads)
	}
	episodes := opts.Episodes
	if episodes == 0 {
		episodes = 1000
	}
	repeats := opts.Repeats
	if repeats == 0 {
		repeats = 3
	}
	if episodes < 1 || repeats < 1 {
		return Result{}, fmt.Errorf("epcc: bad options %+v", opts)
	}

	b := mk(threads)
	if b.Participants() != threads {
		return Result{}, fmt.Errorf("epcc: barrier has %d participants, want %d", b.Participants(), threads)
	}
	if opts.Wrap != nil {
		b = opts.Wrap(b)
		if b == nil || b.Participants() != threads {
			return Result{}, fmt.Errorf("epcc: Wrap changed the barrier shape")
		}
	}

	if opts.WaitTimeout > 0 {
		if _, ok := b.(barrier.DeadlineWaiter); !ok {
			return Result{}, fmt.Errorf("epcc: WaitTimeout needs a barrier.DeadlineWaiter, %s is not one", b.Name())
		}
	}

	best := time.Duration(1<<62 - 1)
	for r := 0; r < repeats; r++ {
		// Warm up one episode set so lazily-allocated flags are paged in.
		if _, err := runEpisodes(b, episodes/10+1, opts.WaitTimeout); err != nil {
			return Result{}, err
		}
		d, err := runEpisodes(b, episodes, opts.WaitTimeout)
		if err != nil {
			return Result{}, err
		}
		if d < best {
			best = d
		}
	}
	ref := referenceLoop(threads, episodes)
	overhead := (best - ref).Nanoseconds()
	if overhead < 0 {
		overhead = 0
	}
	return Result{
		Name:       b.Name(),
		Threads:    threads,
		OverheadNs: float64(overhead) / float64(episodes),
		Episodes:   episodes,
	}, nil
}

// runEpisodes times `episodes` barrier episodes across the barrier's
// participants. A positive timeout bounds each Wait; the first expiry
// aborts every participant's loop (their own bounded waits expire in
// turn) and is returned.
func runEpisodes(b barrier.Barrier, episodes int, timeout time.Duration) (time.Duration, error) {
	if timeout <= 0 {
		start := time.Now()
		barrier.Run(b, func(id int) {
			for e := 0; e < episodes; e++ {
				b.Wait(id)
			}
		})
		return time.Since(start), nil
	}
	dw := b.(barrier.DeadlineWaiter) // checked by MeasureReal
	var firstErr error
	var once sync.Once
	start := time.Now()
	barrier.Run(b, func(id int) {
		for e := 0; e < episodes; e++ {
			if err := dw.WaitDeadline(id, timeout); err != nil {
				once.Do(func() { firstErr = err })
				return
			}
		}
	})
	return time.Since(start), firstErr
}

// referenceLoop times the same fork/join and loop structure without
// any barrier, the EPCC "reference" measurement.
func referenceLoop(threads, episodes int) time.Duration {
	b := noopBarrier{p: threads}
	start := time.Now()
	barrier.Run(b, func(id int) {
		for e := 0; e < episodes; e++ {
			b.Wait(id)
		}
	})
	return time.Since(start)
}

type noopBarrier struct{ p int }

func (n noopBarrier) Wait(int)          {}
func (n noopBarrier) Participants() int { return n.p }
func (n noopBarrier) Name() string      { return "reference" }
