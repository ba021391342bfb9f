// Package omp provides an OpenMP-flavoured fork/join layer on top of
// package barrier: persistent worker teams whose parallel regions,
// worksharing loops and reductions are separated by the configurable
// barrier implementations this repository studies.
//
// This is the setting the paper targets — "a parallel construct often
// works with an explicit or implicit barrier operation" — so the team
// runtime makes the barrier choice a first-class, swappable parameter:
//
//	team := omp.NewTeam(8, barrier.New(8))
//	defer team.Close()
//	team.For(len(xs), func(i, tid int) { xs[i] = f(xs[i]) }) // implicit barrier
//	sum := team.ReduceFloat64(len(xs), 0, func(i int) float64 { return xs[i] })
package omp

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"armbarrier/barrier"
	"armbarrier/internal/liveness"
)

// Team is a fixed group of worker goroutines that execute parallel
// regions separated by the team's barrier, like an OpenMP thread team
// with a persistent pool. The calling goroutine acts as the master
// (participant 0); Team methods must be called from one goroutine at a
// time (the master), as in OpenMP's fork/join model.
type Team struct {
	b barrier.Barrier
	// col is non-nil when b supports fused in-tree collectives
	// (barrier.Collective); Reduce* then runs the fused single-episode
	// path instead of the barrier-separated combine.
	col barrier.Collective
	p   int
	// ph and parties are set for elastic teams (NewElasticTeam): the
	// phaser behind b and each tid's registration handle, indexed by
	// tid up to the phaser's capacity. Resize registers/deregisters
	// through them; both stay nil on fixed teams.
	ph      *barrier.Phaser
	parties []*barrier.Party
	// shrinkTo is published by the master before the fork of a shrink
	// control region (Resize with a smaller size): workers with
	// tid >= shrinkTo deregister and exit instead of running the body.
	// 0 means no shrink in progress; read by workers right after the
	// fork, like work and closed.
	shrinkTo int
	// work and fusedJoin are published by the master before the fork
	// barrier and captured by workers right after it. fusedJoin marks a
	// region whose body itself ends with a team-wide collective episode;
	// that episode then *is* the join, and workers skip the join Wait.
	work      func(tid int)
	fusedJoin bool
	closed    bool
	started   sync.WaitGroup
	// regions counts forked regions (master-only); progress[tid] counts
	// regions participant tid has fully joined. A worker whose progress
	// lags regions after a Close deadline expires is stuck.
	regions  uint64
	progress liveness.Gens
	// fusedDone[tid] marks that tid's fused-region body reached its
	// collective (the region's join). Owner-only: set by the collective
	// wrapper, consumed by runBody's defer to decide whether a stand-in
	// join arrival is still owed.
	fusedDone []fusedFlag
	// pan holds the first panic (or Goexit) any participant's body
	// raised in the current region; the master re-raises it after the
	// join.
	pan panicBox
}

type fusedFlag struct {
	v bool
	_ [barrier.CacheLineSize - 1]byte
}

// panicBox keeps the first captured body panic of a region. A mutex —
// not an atomic — because capture is already a cold path and the
// master's take must see the value a worker recorded before its join.
type panicBox struct {
	mu    sync.Mutex
	first *barrier.PanicError
}

func (p *panicBox) record(pe *barrier.PanicError) {
	p.mu.Lock()
	if p.first == nil {
		p.first = pe
	}
	p.mu.Unlock()
}

func (p *panicBox) take() *barrier.PanicError {
	p.mu.Lock()
	pe := p.first
	p.first = nil
	p.mu.Unlock()
	return pe
}

// NewTeam starts a team of p workers synchronized by b. The barrier
// must have exactly p participants. Callers must Close the team to
// release the workers.
func NewTeam(p int, b barrier.Barrier) (*Team, error) {
	if p < 1 {
		return nil, fmt.Errorf("omp: team size %d < 1", p)
	}
	if b.Participants() != p {
		return nil, fmt.Errorf("omp: barrier has %d participants, team needs %d", b.Participants(), p)
	}
	t := &Team{b: b, p: p}
	t.col, _ = b.(barrier.Collective)
	t.progress = make(liveness.Gens, p)
	t.fusedDone = make([]fusedFlag, p)
	t.started.Add(p - 1)
	for id := 1; id < p; id++ {
		go t.worker(id)
	}
	t.started.Wait()
	return t, nil
}

// MustTeam is NewTeam for known-good arguments; it panics on error.
func MustTeam(p int, b barrier.Barrier) *Team {
	t, err := NewTeam(p, b)
	if err != nil {
		panic(err)
	}
	return t
}

// NewElasticTeam starts a team of p workers over a fresh
// barrier.Phaser with room to Resize up to capacity members. The team
// owns the phaser (tids are its slot ids); opts configure its wait
// policy. Elastic teams have no fused collectives — Reduce* uses the
// barrier-separated fallback.
func NewElasticTeam(p, capacity int, opts ...barrier.Option) (*Team, error) {
	if p < 1 {
		return nil, fmt.Errorf("omp: team size %d < 1", p)
	}
	if capacity < p {
		return nil, fmt.Errorf("omp: phaser capacity %d < team size %d", capacity, p)
	}
	ph := barrier.NewPhaser(capacity, opts...)
	t := &Team{b: ph, ph: ph, p: p}
	t.parties = make([]*barrier.Party, capacity)
	for tid := 0; tid < p; tid++ {
		pt, err := ph.Register()
		if err != nil {
			return nil, err
		}
		t.parties[tid] = pt
	}
	t.progress = make(liveness.Gens, capacity)
	t.fusedDone = make([]fusedFlag, capacity)
	t.started.Add(p - 1)
	for id := 1; id < p; id++ {
		go t.worker(id)
	}
	t.started.Wait()
	return t, nil
}

// Resize grows or shrinks an elastic team to q workers, between
// regions (master-only, like every Team method). Growing registers new
// parties and spawns their workers — if a fork round is already in
// flight (workers pre-arrive as soon as the previous join resolves),
// the registration's pre-claimed arrival covers the newcomer and it
// runs its first body in the very next region. Shrinking runs one
// no-op control region during which workers tid >= q deregister and
// exit; when Resize returns they are gone. Fixed teams return an
// error.
func (t *Team) Resize(q int) error {
	if t.ph == nil {
		return fmt.Errorf("omp: Resize on a fixed team (barrier %s)", t.b.Name())
	}
	if t.closed {
		return fmt.Errorf("omp: Resize on a closed team")
	}
	if q < 1 || q > t.ph.Participants() {
		return fmt.Errorf("omp: Resize(%d) outside [1, %d]", q, t.ph.Participants())
	}
	switch {
	case q == t.p:
		return nil
	case q > t.p:
		for tid := t.p; tid < q; tid++ {
			pt, err := t.ph.Register()
			if err != nil {
				t.p = tid // the already-spawned newcomers are full members
				return fmt.Errorf("omp: Resize(%d) grew to %d: %w", q, tid, err)
			}
			if pt.ID() != tid {
				// The team owns its phaser, so slots allocate in tid
				// order; an off-order slot means external registrations.
				pt.Deregister()
				t.p = tid
				return fmt.Errorf("omp: Resize: phaser handed slot %d, want %d (external parties?)", pt.ID(), tid)
			}
			t.parties[tid] = pt
			// Start the newcomer's progress at the forked-region count
			// so it is not mistaken for a worker stuck since region 0.
			t.progress.Store(tid, t.regions)
			t.started.Add(1)
			go t.worker(tid)
		}
		t.p = q
		t.started.Wait()
		return nil
	default: // q < t.p
		t.shrinkTo = q
		t.region(func(int) {}, false)
		t.shrinkTo = 0
		for tid := q; tid < t.p; tid++ {
			t.parties[tid] = nil
		}
		t.p = q
		return nil
	}
}

// worker runs the fork/join loop: wait at the fork barrier for the
// master to publish work, run it, then meet everyone at the join
// barrier (the OpenMP implicit barrier).
//
// work and fusedJoin must be captured immediately after the fork: the
// master's next write to them happens only after the current region's
// join — for fused regions, after the master's own collective call
// returns, which happens-after every worker's contribution and hence
// after this capture — so the capture is race-free while a read placed
// after work(id) would not be.
func (t *Team) worker(id int) {
	t.started.Done()
	t.workerLoop(id)
}

func (t *Team) workerLoop(id int) {
	for {
		t.b.Wait(id) // fork: master has published t.work / t.closed
		if t.closed {
			return
		}
		if s := t.shrinkTo; s > 0 && id >= s {
			// Shrink control region: leave the team. Deregistering —
			// instead of arriving at the join — lets the phaser absorb
			// this worker's pending arrival, so the survivors' join
			// resolves without it and the master's region() returning
			// means every leaver is gone.
			t.parties[id].Deregister()
			return
		}
		work, fused := t.work, t.fusedJoin
		t.runBody(id, work, fused)
	}
}

// runBody executes one region's body for participant id with the
// panic-safety this package guarantees: a panic — or a runtime.Goexit,
// e.g. a test helper's FailNow — in the body is captured, the region's
// join barrier is still completed so no other participant wedges, and
// the master re-raises the first captured panic after the join. A
// worker that Goexits cannot be kept (Goexit is uncancelable), so its
// defer spawns a replacement goroutine to keep the team staffed.
func (t *Team) runBody(id int, work func(tid int), fused bool) {
	completed := false
	defer func() {
		r := recover()
		goexit := r == nil && !completed
		// A master Goexit is not recorded: the master is the goroutine
		// the report would go to, it is already unwinding, and a stale
		// record would misfire on the next region's take.
		if r != nil || (goexit && id != 0) {
			t.pan.record(&barrier.PanicError{
				ID:     id,
				Value:  r,
				Goexit: goexit,
				Stack:  debug.Stack(),
			})
		}
		// A fused body's collective IS the join; if the body died before
		// reaching it, a plain Wait stands in — arrival-compatible with
		// the peers' collective calls (their payload result is garbage,
		// but the master discards it and re-raises the panic instead).
		if !fused || !t.takeFusedDone(id) {
			t.b.Wait(id) // join: implicit end-of-region barrier
		}
		t.progress.Add(id)
		if goexit && id != 0 {
			go t.workerLoop(id)
		}
	}()
	work(id)
	completed = true
}

// markFused records that participant tid's fused body reached its
// collective. The fused closures call it immediately after the
// collective returns.
func (t *Team) markFused(tid int) { t.fusedDone[tid].v = true }

// takeFusedDone consumes the mark, reporting whether the collective ran.
func (t *Team) takeFusedDone(tid int) bool {
	done := t.fusedDone[tid].v
	t.fusedDone[tid].v = false
	return done
}

// Size returns the number of workers (including the master).
func (t *Team) Size() int { return t.p }

// Barrier returns the team's barrier, e.g. for explicit mid-region
// synchronization from inside Parallel bodies.
func (t *Team) Barrier() barrier.Barrier { return t.b }

// Parallel runs body(tid) on every team member concurrently and
// returns after the implicit join barrier. It corresponds to
// `#pragma omp parallel`.
//
// A panic (or runtime.Goexit) in the body — on any participant — no
// longer wedges the team: every participant still completes the join,
// workers survive, and the first captured panic is re-raised here as a
// *barrier.PanicError naming the participant. The team stays usable
// afterwards, and Close still returns.
func (t *Team) Parallel(body func(tid int)) {
	t.region(body, false)
}

// parallelFused runs body on every team member like Parallel, but the
// body must end with a team-wide collective episode on t.col — that
// episode doubles as the join barrier, saving one full episode per
// region. Only callable when t.col is non-nil.
func (t *Team) parallelFused(body func(tid int)) {
	t.region(body, true)
}

// region is the master's half of one fork/join episode.
func (t *Team) region(body func(tid int), fused bool) {
	if t.closed {
		panic("omp: parallel region on a closed team")
	}
	t.work, t.fusedJoin = body, fused
	t.regions++
	t.b.Wait(0) // fork
	t.runBody(0, body, fused)
	// The join in runBody happens-after every worker's panic record, so
	// a non-nil take here is exactly "some body failed this region".
	if pe := t.pan.take(); pe != nil {
		panic(pe)
	}
}

// For executes body(i, tid) for every i in [0, n) using a static
// block schedule across the team, with the implicit ending barrier.
// It corresponds to `#pragma omp parallel for schedule(static)`.
func (t *Team) For(n int, body func(i, tid int)) {
	if n < 0 {
		panic(fmt.Sprintf("omp: For(%d)", n))
	}
	t.Parallel(func(tid int) {
		lo, hi := blockRange(n, t.p, tid)
		for i := lo; i < hi; i++ {
			body(i, tid)
		}
	})
}

// blockRange splits [0, n) into p nearly-equal contiguous blocks and
// returns block tid.
func blockRange(n, p, tid int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = tid*base + min(tid, rem)
	hi = lo + base
	if tid < rem {
		hi++
	}
	return lo, hi
}

// ReduceFloat64 computes init + Σ f(i) for i in [0, n) with a static
// schedule — `#pragma omp parallel for reduction(+:x)`. When the
// team's barrier supports fused collectives (barrier.Collective), the
// partials are combined inside a single fused allreduce episode that
// doubles as the region's join barrier; otherwise it falls back to
// per-worker padded partials with a barrier-separated serial combine.
// The fused combine order is tree-shaped, so float64 results can
// differ from the fallback by the usual reassociation rounding.
func (t *Team) ReduceFloat64(n int, init float64, f func(i int) float64) float64 {
	if t.col != nil {
		var out float64
		t.parallelFused(func(tid int) {
			lo, hi := blockRange(n, t.p, tid)
			var s float64
			for i := lo; i < hi; i++ {
				s += f(i)
			}
			r := barrier.AllReduceFloat64(t.col, tid, s, barrier.SumFloat64)
			t.markFused(tid)
			if tid == 0 {
				out = init + r
			}
		})
		return out
	}
	partial := make([]paddedFloat64, t.p)
	t.For(n, func(i, tid int) {
		partial[tid].v += f(i)
	})
	total := init
	for i := range partial {
		total += partial[i].v
	}
	return total
}

// ReduceInt64 is ReduceFloat64 for integers. Integer addition is
// associative and commutative, so the fused and fallback paths are
// bit-identical.
func (t *Team) ReduceInt64(n int, init int64, f func(i int) int64) int64 {
	if t.col != nil {
		var out int64
		t.parallelFused(func(tid int) {
			lo, hi := blockRange(n, t.p, tid)
			var s int64
			for i := lo; i < hi; i++ {
				s += f(i)
			}
			r := barrier.AllReduceInt64(t.col, tid, s, barrier.SumInt64)
			t.markFused(tid)
			if tid == 0 {
				out = init + r
			}
		})
		return out
	}
	partial := make([]paddedInt64, t.p)
	t.For(n, func(i, tid int) {
		partial[tid].v += f(i)
	})
	total := init
	for i := range partial {
		total += partial[i].v
	}
	return total
}

type paddedFloat64 struct {
	v float64
	_ [barrier.CacheLineSize - 8]byte
}

type paddedInt64 struct {
	v int64
	_ [barrier.CacheLineSize - 8]byte
}

// Close releases the worker goroutines. The team must not be used
// afterwards. Close is idempotent.
//
// Close blocks until every worker reaches the fork barrier; on a team
// whose workers are wedged (e.g. stuck in external code) it blocks
// forever. Use CloseWithin to bound that wait.
func (t *Team) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.b.Wait(0) // fork with closed=true: workers exit
}

// CloseWithin is Close with a time budget: if the workers do not reach
// the closing fork barrier within d, it returns an error naming the
// stuck participants instead of deadlocking. It requires the team's
// barrier to implement barrier.DeadlineWaiter (all barriers in package
// barrier do). After a timeout the barrier is poisoned and the stuck
// workers are abandoned; the team must not be used either way.
func (t *Team) CloseWithin(d time.Duration) error {
	if t.closed {
		return nil
	}
	dw, ok := t.b.(barrier.DeadlineWaiter)
	if !ok {
		return fmt.Errorf("omp: CloseWithin needs a barrier.DeadlineWaiter, %s is not one", t.b.Name())
	}
	t.closed = true
	if err := dw.WaitDeadline(0, d); err != nil {
		return fmt.Errorf("omp: close timed out; stuck participants %v: %w", t.stuckWorkers(), err)
	}
	return nil
}

// stuckWorkers names the workers that plausibly wedged a closing team:
// those whose join progress lags the forked-region count, plus — when
// the team's barrier chain tracks arrivals (barrier.Watchdog) — those
// not currently waiting inside the barrier.
func (t *Team) stuckWorkers() []int {
	worker := func(id int) bool { return id >= 1 && id < t.p }
	stuck := make(map[int]bool)
	if t.regions > 0 {
		for _, id := range t.progress.Missing(t.regions-1, worker) {
			stuck[id] = true
		}
	}
	if at, ok := barrier.Unwrap[interface{ Waiting() []int }](t.b); ok {
		waiting := make(map[int]bool)
		for _, id := range at.Waiting() {
			waiting[id] = true
		}
		for id := 1; id < t.p; id++ {
			if !waiting[id] {
				stuck[id] = true
			}
		}
	}
	ids := make([]int, 0, len(stuck))
	for id := range stuck {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Parallel is a one-shot convenience: spawn p goroutines, run body on
// each with an implicit ending barrier provided by b (or the optimized
// barrier when b is nil), and return when all complete.
func Parallel(p int, b barrier.Barrier, body func(tid int)) error {
	if p < 1 {
		return fmt.Errorf("omp: Parallel size %d < 1", p)
	}
	if b == nil {
		b = barrier.New(p)
	}
	if b.Participants() != p {
		return fmt.Errorf("omp: barrier has %d participants, want %d", b.Participants(), p)
	}
	barrier.Run(b, func(id int) {
		body(id)
		b.Wait(id)
	})
	return nil
}
