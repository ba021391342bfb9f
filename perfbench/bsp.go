package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"armbarrier/barrier"
	"armbarrier/obs"
	"armbarrier/omp"
	"armbarrier/tune"
)

// bsp-dedicated and bsp-oversub: one operation is one time step of an
// integer 1-D diffusion stencil on an omp.Team over barrier.New: a
// Team.For update followed by a Team.ReduceInt64 of the total heat.
// The grid is small, so fork, join and the fused reduction dominate a
// step.

// bspCells is the grid size. With 512 cells a step's arithmetic is a
// few hundred ns per participant, below the cost of its barrier
// episodes.
const bspCells = 512

// bspWarmSteps run before timing starts; they count towards the steps
// the serial reference replays.
const bspWarmSteps = 10_000

// bspTailQ is the percentile op_tail_us reports on bsp-dedicated, and
// bspOversubTailQ on bsp-oversub. With waiters outnumbering CPUs, a
// step that the host's CPU steal hits lands in the top percent of a
// window; the window's p99 then moved with the host's load by more than
// the metric's bound between runs, and its p90 did not.
const (
	bspTailQ        = 0.99
	bspOversubTailQ = 0.90
)

// flux is the heat moved from a cell holding a to its neighbour holding
// b. Go's division truncates towards zero, so flux(b, a) == -flux(a, b)
// and every unit that leaves one cell arrives in the next: the scheme
// conserves the total exactly.
func flux(a, b int64) int64 { return (a - b) / 4 }

// stencilCell is the update of cell i of a periodic grid.
func stencilCell(cur []int64, i int) int64 {
	n := len(cur)
	l, r := cur[(i+n-1)%n], cur[(i+1)%n]
	return cur[i] - flux(cur[i], r) + flux(l, cur[i])
}

// newField draws the initial heat field from the seed.
func newField(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	f := make([]int64, n)
	for i := range f {
		f[i] = rng.Int63n(1 << 20)
	}
	return f
}

func fieldTotal(f []int64) int64 {
	var s int64
	for _, v := range f {
		s += v
	}
	return s
}

// serialStencil is the reference: the same scheme run for steps steps
// with plain loops, without omp or barrier.
func serialStencil(init []int64, steps int) []int64 {
	cur := append([]int64(nil), init...)
	next := make([]int64, len(cur))
	for s := 0; s < steps; s++ {
		for i := range cur {
			next[i] = stencilCell(cur, i)
		}
		cur, next = next, cur
	}
	return cur
}

// stencil runs the scheme on a team.
type stencil struct {
	team      *omp.Team
	cur, next []int64
	update    func(i, tid int)
	heat      func(i int) int64
	steps     int
}

func newStencil(team *omp.Team, init []int64) *stencil {
	s := &stencil{team: team, cur: append([]int64(nil), init...), next: make([]int64, len(init))}
	s.update = func(i, _ int) { s.next[i] = stencilCell(s.cur, i) }
	s.heat = func(i int) int64 { return s.cur[i] }
	return s
}

// step advances the field one time step and returns the reduced total
// heat. The spans, when traced, time the two team calls.
func (s *stencil) step(tr *tracer, parent *span, op int64) int64 {
	fs := tr.begin("omp.for", parent, op)
	s.team.For(len(s.cur), s.update)
	fs.end()
	s.cur, s.next = s.next, s.cur
	rs := tr.begin("omp.reduce", parent, op)
	total := s.team.ReduceInt64(len(s.cur), 0, s.heat)
	rs.end()
	s.steps++
	return total
}

// stepChecked runs one step and checks its reduction against the
// conserved total. A panic the team re-raises from a participant is a
// failed step too.
func (s *stencil) stepChecked(tr *tracer, parent *span, op int64, want int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step %d: %v", s.steps, r)
		}
	}()
	return checkHeat(s.steps, s.step(tr, parent, op), want)
}

// checkStencil compares the team's field after its steps with the
// serial reference.
func checkStencil(init, got []int64, steps int) error {
	want := serialStencil(init, steps)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("after %d steps cell %d holds %d, the serial stencil %d", steps, i, got[i], want[i])
		}
	}
	return nil
}

// checkHeat checks one step's reduction against the conserved total.
func checkHeat(step int, got, want int64) error {
	if got != want {
		return fmt.Errorf("step %d: ReduceInt64 gave total heat %d, want the conserved %d", step, got, want)
	}
	return nil
}

func runBSP(b *bench, d time.Duration, mult int) endToEnd {
	tr := b.tr
	p := mult * runtime.GOMAXPROCS(0)
	init := newField(b.seed, bspCells)
	want := fieldTotal(init)

	ts := tr.begin("omp.team_start", nil, 0)
	team, err := omp.NewTeam(p, barrier.New(p))
	if err != nil {
		b.fail("omp.NewTeam(%d): %v", p, err)
		return endToEnd{}
	}
	if tr != nil {
		b.set("omp.team_start_ms", float64(ts.end())/1e6, "ms")
	}
	s := newStencil(team, init)
	var stepErr error
	for i := 0; i < bspWarmSteps && stepErr == nil; i++ {
		stepErr = s.stepChecked(nil, nil, 0, want)
	}

	bspTime := d
	if tr != nil {
		// A traced run splits its time between the stencil and the bare
		// barrier loops.
		bspTime = d / 2
	}
	tailQ, tailLabel := bspTailQ, "p99"
	if p > runtime.GOMAXPROCS(0) {
		tailQ, tailLabel = bspOversubTailQ, "p90"
	}
	var w windowed
	var op int64
	b.markSetup()
	end := time.Now().Add(bspTime)
	for stepErr == nil && time.Now().Before(end) {
		var h hist
		w0, c0 := time.Now(), cpuTime()
		var ops int64
		for ; ops < windowOps && stepErr == nil; ops++ {
			t0 := time.Now()
			op++
			ss := tr.begin("bsp.step", nil, op)
			stepErr = s.stepChecked(tr, &ss, op, want)
			ss.end()
			h.add(int64(time.Since(t0)))
		}
		w.add(ops, time.Since(w0), cpuTime()-c0, &h, tailQ)
	}
	// Bounded, so that a team a failed step left wedged cannot keep the
	// run from reporting.
	if err := team.CloseWithin(10 * time.Second); err != nil {
		b.fail("bsp P=%d: %v", p, err)
	}
	b.attempted += op
	if stepErr != nil {
		b.fail("bsp P=%d: %v", p, stepErr)
	} else if err := checkStencil(init, s.cur, s.steps); err != nil {
		b.fail("bsp P=%d: %v", p, err)
	}
	if tr != nil {
		if v, ok := tr.selfPerCall("omp.for"); ok {
			b.set("omp.for_us", v/1e3, "us")
		}
		if v, ok := tr.selfPerCall("omp.reduce"); ok {
			b.set("omp.reduce_us", v/1e3, "us")
		}
		barrierProbes(b, p, d-bspTime)
	}
	return w.result(tailLabel)
}

// barrierProbes times bare Wait loops on barrier.New(p) and on the
// reference barriers, and counts barrier.New's spins, yields and parks
// per episode through obs.Instrument.
func barrierProbes(b *bench, p int, d time.Duration) {
	tr := b.tr
	each := d / 5
	policy := tune.ChooseWaitPolicy(p, runtime.GOMAXPROCS(0))
	probes := []struct {
		metric string
		mk     func() barrier.Barrier
	}{
		{"barrier.episode_ns", func() barrier.Barrier { return barrier.New(p) }},
		{"barrier.episode_ns.central", func() barrier.Barrier { return barrier.NewCentral(p) }},
		// The hierarchical barrier with the wait policy the tuner picks
		// for the regime: spin-park, hence its yield-first wait, once
		// participants outnumber GOMAXPROCS.
		{"barrier.episode_ns.hier", func() barrier.Barrier {
			return barrier.NewHierarchical(p, barrier.HierarchicalConfig{}, barrier.WithWaitPolicy(policy))
		}},
		{"barrier.episode_ns.phaser", func() barrier.Barrier {
			ph := barrier.NewPhaser(p)
			for i := 0; i < p; i++ {
				if _, err := ph.Register(); err != nil {
					b.fail("phaser register: %v", err)
				}
			}
			return ph
		}},
	}
	for _, pr := range probes {
		s := tr.begin(pr.metric, nil, 0)
		ns, _ := bareLoop(pr.mk(), each)
		s.end()
		b.set(pr.metric, ns, "ns")
	}
	in := obs.Instrument(barrier.New(p), obs.Options{})
	s := tr.begin("barrier.instrumented", nil, 0)
	_, episodes := bareLoop(in, each)
	s.end()
	var spins, yields, parks uint64
	for _, ps := range in.Snapshot().PerParti {
		spins += ps.Spins
		yields += ps.Yields
		parks += ps.Parks
	}
	e := float64(episodes)
	b.set("barrier.spins_per_episode", float64(spins)/e, "count")
	b.set("barrier.yields_per_episode", float64(yields)/e, "count")
	b.set("barrier.parks_per_episode", float64(parks)/e, "count")
}

// bareBatch is how many episodes participant 0 times per clock read.
const bareBatch = 128

// bareLoop runs Wait on every participant of b for about d and returns
// the median over batches of the time per episode, and the episode
// count. Participant 0 reads the clock once per batch, decides whether
// to stop, and publishes the decision before one extra episode that
// orders it before every other participant's read.
func bareLoop(b barrier.Barrier, d time.Duration) (nsPerEpisode float64, episodes int64) {
	p := b.Participants()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for id := 1; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for {
				for k := 0; k <= bareBatch; k++ {
					b.Wait(id)
				}
				if stop.Load() {
					return
				}
			}
		}(id)
	}
	var batches []float64
	end := time.Now().Add(d)
	for {
		t0 := time.Now()
		for k := 0; k < bareBatch; k++ {
			b.Wait(0)
		}
		now := time.Now()
		batches = append(batches, float64(now.Sub(t0))/bareBatch)
		episodes += bareBatch + 1
		if !now.Before(end) {
			stop.Store(true)
		}
		b.Wait(0)
		if stop.Load() {
			break
		}
	}
	wg.Wait()
	return median(batches), episodes
}
