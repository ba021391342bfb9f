package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"armbarrier/fabric"
)

// fabric-open: one operation is one join. An open-loop generator sends
// arrivals on a seeded schedule to about a thousand named groups; each
// arrival looks its group up with Fabric.Group and arrives
// asynchronously. It also runs Fabric.Sweep on a period, so idle
// groups are dropped and later re-created. One receiver goroutine
// polls the outcome channels of completed rounds, so no goroutine is
// parked per arrival, or at all, on the receiving side. Each join is
// timed from the due time of the arrival that completed its round
// until its outcome is received.
//
// Neither goroutine ever blocks. An idle CPU of a virtual machine
// halts, and on a shared 2-vCPU host waking it again took up to
// milliseconds whenever other tenants were busy: with a receiver that
// parked between rounds, whole runs' latencies grew tenfold. Two
// spinning goroutines keep both CPUs of a GOMAXPROCS=2 host running.

const (
	fabGroups = 1000
	// fabWide groups have P in the hundreds, so that one round spans
	// several of the pool's WakeBatch chunks; the rest have P in 2..8.
	fabWide = 8
	// fabOpen requests are in progress at once; each next arrival
	// belongs to one of them at random, so rounds of different groups
	// interleave.
	fabOpen = 32
	// fabActive small groups receive requests at a time; the active
	// window moves one group every fabRotate arrivals, so each group
	// is busy for a while, then idle long enough to be swept.
	fabActive = 100
	fabRotate = 100
	// fabWideEvery: one request in this many goes to a wide group,
	// which puts about a third of all arrivals on wide groups.
	fabWideEvery = 150

	// recvYieldEvery is how often the receiver lets other goroutines
	// on its processor run. recvPassMax and recvYieldMax bound how
	// much of one polling pass or one yield counts as the receiver's
	// own CPU time (see receive).
	recvYieldEvery = int64(time.Millisecond)
	recvPassMax    = int64(20 * time.Microsecond)
	recvYieldMax   = int64(3 * time.Microsecond)

	fabSweepEvery = 50 * time.Millisecond
	fabSweepIdle  = 200 * time.Millisecond

	// fabNominal is the fixed offered rate (joins/s) at which
	// op_p50_us, op_tail_us and cpu_us_per_op are taken.
	fabNominal = 50_000
	// fabLimit is the latency limit on the tail percentile: the
	// highest sustained rate is the highest offered rate whose tail
	// join latency and generator lag both stay under it.
	fabLimit = time.Millisecond
	// fabTailQ is the tail percentile of fabric-open. A window's p99
	// moved tenfold with the host's CPU steal, which the fabric's
	// hand-offs between goroutines expose; its p90 moves far less.
	fabTailQ = 0.90

	// fabSearchFrom is the first rate the search offers, about half
	// of what the fabric sustains on a 2-vCPU host.
	fabSearchFrom  = 400_000
	fabSearchSteps = 8
	fabWarmup      = 100_000
)

type pendingArrival struct {
	ch <-chan fabric.Outcome
	op int64
}

// ledger follows one group instance: its round size and the rounds the
// generator saw complete on it.
type ledger struct {
	g    *fabric.Group
	p    int
	next uint64
}

// complete checks the inline outcome of a round's completing arrival:
// it must carry the instance's next round number, so that the
// instance's rounds run 0, 1, 2, ... with no gap or repeat.
func (l *ledger) complete(o fabric.Outcome) error {
	if o.Err != nil {
		return fmt.Errorf("group %s: completing arrival got %v", l.g.Name(), o.Err)
	}
	if o.Round != l.next {
		return fmt.Errorf("group %s: round %d completed, expected round %d", l.g.Name(), o.Round, l.next)
	}
	l.next++
	return nil
}

// checkOutcome checks one non-completing arrival's outcome against its
// round's number.
func checkOutcome(name string, round uint64, o fabric.Outcome) error {
	if o.Err != nil {
		return fmt.Errorf("group %s round %d: arrival got %v", name, round, o.Err)
	}
	if o.Round != round {
		return fmt.Errorf("group %s: an arrival of round %d received round %d", name, round, o.Round)
	}
	return nil
}

type fabGroup struct {
	name    string
	p       int
	wide    bool
	inst    *fabric.Group
	led     *ledger
	pending []pendingArrival
}

// fabWin is one measurement window. The generator writes it, except
// recv, which the receiver writes; both are read only once the
// receiver has retired every round of the window.
type fabWin struct {
	lat    hist // join latency, completing arrivals (generator)
	recv   hist // join latency, other arrivals (receiver)
	lag    hist // generator lateness
	joins  int64
	maxLag int64
	spinNs int64         // generator spin and receiver polling over the window
	cpu    time.Duration // process CPU time over the window
}

// roundRec is a completed round whose other outcomes are awaited.
type roundRec struct {
	led       *ledger
	round     uint64
	due, ret  int64
	wide      bool
	completer <-chan fabric.Outcome
	chans     []pendingArrival
	got       int
	win       *fabWin
}

type request struct{ g, left int }

type fabRun struct {
	b      *bench
	tr     *tracer
	fab    *fabric.Fabric
	ctx    context.Context
	base   time.Time
	rng    *rand.Rand
	groups []fabGroup
	open   [fabOpen]request
	refill bool
	k      int64 // arrivals sent

	instances []*ledger
	retries   int64 // arrivals retried after their group was swept

	pend        []*roundRec // receiver-owned: rounds with outcomes outstanding
	intake      chan *roundRec
	outstanding atomic.Int64
	stop        atomic.Bool
	recvDone    chan struct{}
	recvNs      atomic.Int64 // the receiver's own CPU time (see receive)
	received    atomic.Int64 // outcomes received
	nextSweep   int64        // generator clock when the next sweep is due

	sweeps, swept int64
	sweepNs       int64
}

func (r *fabRun) now() int64 { return int64(time.Since(r.base)) }

func newFabRun(b *bench) *fabRun {
	r := &fabRun{
		b:      b,
		tr:     b.tr,
		fab:    fabric.New(fabric.Config{}),
		ctx:    context.Background(),
		base:   time.Now(),
		rng:    rand.New(rand.NewSource(b.seed)),
		refill: true,
		// A second's worth of rounds at any rate the fabric sustains:
		// the generator blocks on intake only when the receiver is far
		// behind, which the latencies then show.
		intake:   make(chan *roundRec, 1<<16),
		recvDone: make(chan struct{}),
	}
	if b.tr != nil {
		// One clock for the generator and the spans.
		r.base = b.tr.base
	}
	r.groups = make([]fabGroup, fabGroups)
	// The wide groups take the sizes 192, 224, ..., 416 in a seeded
	// order, so that every seed offers the same mix of wide rounds.
	wide := r.rng.Perm(fabWide)
	for i := range r.groups {
		g := &r.groups[i]
		g.name = fmt.Sprintf("g%04d", i)
		if j := i - (fabGroups - fabWide); j >= 0 {
			g.wide = true
			g.p = 192 + 32*wide[j]
		} else {
			g.p = 2 + r.rng.Intn(7)
		}
	}
	for i := range r.open {
		r.newRequest(&r.open[i])
	}
	return r
}

func (r *fabRun) newRequest(q *request) {
	small := fabGroups - fabWide
	if r.rng.Intn(fabWideEvery) == 0 {
		q.g = small + r.rng.Intn(fabWide)
	} else {
		base := int(r.k/fabRotate) % small
		q.g = (base + r.rng.Intn(fabActive)) % small
	}
	q.left = r.groups[q.g].p
}

// nextGroup draws the group of the next arrival. Once refill is off it
// only finishes the open requests, and returns -1 when none is left.
func (r *fabRun) nextGroup() int {
	i := r.rng.Intn(fabOpen)
	for n := 0; r.open[i].left == 0; n++ {
		if n == fabOpen {
			return -1
		}
		i = (i + 1) % fabOpen
	}
	q := &r.open[i]
	g := q.g
	q.left--
	if q.left == 0 && r.refill {
		r.newRequest(q)
	}
	return g
}

// send sends one arrival due at due (generator clock). It returns
// false when the schedule is exhausted.
func (r *fabRun) send(due int64, w *fabWin) bool {
	gi := r.nextGroup()
	if gi < 0 {
		return false
	}
	r.k++
	op := r.k
	g := &r.groups[gi]
	tr := r.tr
	for {
		gs := tr.begin("fabric.group", nil, op)
		inst, err := r.fab.Group(g.name, fabric.GroupConfig{Participants: g.p})
		if err != nil {
			gs.end()
			r.b.fail("Fabric.Group(%s): %v", g.name, err)
			return true
		}
		if inst != g.inst {
			// A new instance: this call created the group.
			gs.name = "fabric.create"
			if len(g.pending) != 0 {
				r.b.fail("group %s was replaced with %d arrivals of a round in flight", g.name, len(g.pending))
				g.pending = g.pending[:0]
			}
			g.inst = inst
			g.led = &ledger{g: inst, p: g.p}
			r.instances = append(r.instances, g.led)
		}
		gs.end()
		if r.now() >= r.nextSweep {
			// A sweep that runs between an arrival's lookup and the
			// arrival itself, as a concurrent sweeper may.
			r.sweep()
		}
		completing := len(g.pending) == g.p-1
		name := "fabric.arrive"
		if completing {
			name = "fabric.publish"
		}
		as := tr.begin(name, nil, op)
		ch := inst.Arrive(r.ctx)
		ret := r.now()
		as.endAt(ret)
		select {
		case o := <-ch:
			if errors.Is(o.Err, fabric.ErrClosed) && len(g.pending) == 0 {
				// The group was swept between the lookup and the
				// arrival: the documented outcome. Retry through
				// Fabric.Group, as a fresh request would.
				r.retries++
				continue
			}
			if !completing {
				r.b.fail("group %s: arrival %d of %d got an outcome before its round completed: %+v",
					g.name, len(g.pending)+1, g.p, o)
				return true
			}
			if err := g.led.complete(o); err != nil {
				r.b.fail("%v", err)
			}
			r.outstanding.Add(1)
			r.intake <- &roundRec{led: g.led, round: o.Round, due: due, ret: ret,
				wide: g.wide, completer: ch, chans: g.pending, win: w}
			g.pending = make([]pendingArrival, 0, g.p-1)
			w.lat.add(ret - due)
			r.received.Add(1)
			// Publishing woke a pool worker.
			yield()
		default:
			if completing {
				r.b.fail("group %s: the completing arrival received no inline outcome", g.name)
			}
			g.pending = append(g.pending, pendingArrival{ch: ch, op: op})
		}
		w.joins++
		return true
	}
}

// pace sends arrivals at rate per second for d and returns the
// measurement windows, windowOps arrivals each. Until an arrival is
// due it spins, which keeps the schedule exact (a sleep of the Go
// runtime on Linux lasts about a millisecond at least). The spin's CPU, and the
// receiver's own CPU over the window, count in the window's spinNs, so
// that cpu_us_per_op can leave the benchmark's own work out.
func (r *fabRun) pace(rate float64, d time.Duration) []*fabWin {
	interval := 1e9 / rate
	n := int64(d.Seconds() * rate)
	var wins []*fabWin
	var w *fabWin
	var c0 time.Duration
	var rs0 int64
	start := r.now()
	for i := int64(0); i < n; i++ {
		if i%windowOps == 0 {
			c, rs := cpuTime(), r.recvNs.Load()
			if w != nil {
				w.cpu = c - c0
				w.spinNs += rs - rs0
			}
			w, c0, rs0 = &fabWin{}, c, rs
			wins = append(wins, w)
		}
		due := start + int64(float64(i)*interval)
		now := r.wait(due, w)
		lag := now - due
		w.lag.add(lag)
		w.maxLag = max(w.maxLag, lag)
		r.send(due, w)
	}
	if w != nil {
		w.cpu = cpuTime() - c0
		w.spinNs += r.recvNs.Load() - rs0
	}
	return wins
}

// wait spins until the generator clock reaches until and returns the
// clock. The spin counts in w.spinNs; a step of it that took over a
// microsecond lost the processor to the host, and counts one.
func (r *fabRun) wait(until int64, w *fabWin) int64 {
	now := r.now()
	for now < until {
		next := r.now()
		w.spinNs += min(next-now, int64(time.Microsecond))
		now = next
	}
	return now
}

// receive runs on the receiver goroutine until stop: it takes rounds
// from intake and polls their outcomes, in the order the pool delivers
// them, and yields every recvYieldEvery so that goroutines made
// runnable on its processor run. Its own CPU time counts in recvNs, so
// that cpu_us_per_op can leave it out.
func (r *fabRun) receive() {
	defer close(r.recvDone)
	t0 := r.now()
	last := t0
	for !r.stop.Load() {
		for drained := false; !drained; {
			select {
			case rec := <-r.intake:
				r.pend = append(r.pend, rec)
			default:
				drained = true
			}
		}
		r.poll()
		t1 := r.now()
		// The whole pass is the receiver's own work. A pass that took
		// longer than any pass does lost the processor to the host;
		// count at most recvPassMax of it.
		r.recvNs.Add(min(t1-t0, recvPassMax))
		t0 = t1
		if t1-last >= recvYieldEvery {
			runtime.Gosched()
			t0 = r.now()
			// A yield with nothing else to run costs about 2 us on a
			// 2-vCPU virtual machine; beyond that, other goroutines ran
			// and their CPU is the joins'.
			r.recvNs.Add(min(t0-t1, recvYieldMax))
			last = t0
		}
	}
}

// yield lets the goroutines and OS threads that the last arrival woke
// run. The generator never blocks, so a pool worker made runnable on
// its processor, or an OS thread the host placed on its CPU, would
// otherwise wait for the generator to be preempted.
func yield() {
	runtime.Gosched()
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// poll takes every outcome that is ready, in the order the pool
// delivers them (a round's chain is last-arrived first), retires the
// rounds that are complete, and returns how many outcomes it took.
func (r *fabRun) poll() int {
	got := 0
	kept := r.pend[:0]
	for _, rec := range r.pend {
		for rec.got < len(rec.chans) {
			pa := rec.chans[len(rec.chans)-1-rec.got]
			o, ok := tryRecv(pa.ch)
			if !ok {
				break
			}
			r.took(rec, pa, o)
			got++
		}
		if rec.got < len(rec.chans) {
			kept = append(kept, rec)
		} else {
			r.retire(rec)
		}
	}
	clear(r.pend[len(kept):])
	r.pend = kept
	return got
}

func (w *fabWin) latency() *hist {
	var h hist
	h.merge(&w.lat)
	h.merge(&w.recv)
	return &h
}

// tryRecv takes an outcome from ch if one is ready.
func tryRecv(ch <-chan fabric.Outcome) (fabric.Outcome, bool) {
	select {
	case o := <-ch:
		return o, true
	default:
		return fabric.Outcome{}, false
	}
}

// took records one received outcome of rec.
func (r *fabRun) took(rec *roundRec, pa pendingArrival, o fabric.Outcome) {
	now := r.now()
	rec.got++
	r.received.Add(1)
	if err := checkOutcome(rec.led.g.Name(), rec.round, o); err != nil {
		r.b.fail("%v", err)
	}
	rec.win.recv.add(now - rec.due)
	if r.tr != nil {
		name := "fabric.deliver.small"
		if rec.wide {
			name = "fabric.deliver.wide"
		}
		r.tr.record(name, pa.op, rec.ret, now)
	}
}

// retire checks that no arrival of a finished round received a second
// outcome.
func (r *fabRun) retire(rec *roundRec) {
	extra := 0
	if _, ok := tryRecv(rec.completer); ok {
		extra++
	}
	for _, pa := range rec.chans {
		if _, ok := tryRecv(pa.ch); ok {
			extra++
		}
	}
	if extra > 0 {
		r.b.fail("group %s round %d: %d arrivals received a second outcome", rec.led.g.Name(), rec.round, extra)
	}
	r.outstanding.Add(-1)
}

func (r *fabRun) sweep() {
	s := r.tr.begin("fabric.sweep", nil, 0)
	t0 := r.now()
	n := r.fab.Sweep(fabSweepIdle)
	t1 := r.now()
	s.endAt(t1)
	r.sweepNs += t1 - t0
	r.sweeps++
	r.swept += int64(n)
	r.nextSweep = t1 + int64(fabSweepEvery)
}

// waitIdle waits until the receiver has retired every completed round,
// for at most limit, and reports whether it got there.
func (r *fabRun) waitIdle(limit time.Duration) bool {
	end := time.Now().Add(limit)
	for r.outstanding.Load() != 0 {
		if time.Now().After(end) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// trial offers rate for d and reports whether the fabric sustained it:
// after the first fifth of the trial, the median over windows of the
// tail join latency and of the generator's lag both stay under fabLimit
// (a backlog that grows makes the lag grow), and the rounds drain
// within fabLimit of the last arrival.
func (r *fabRun) trial(rate float64, d time.Duration) bool {
	if !r.waitIdle(5 * time.Second) {
		return false
	}
	wins := r.pace(rate, d)
	drained := r.waitIdle(fabLimit + 20*time.Millisecond)
	if !drained {
		r.waitIdle(10 * time.Second)
	}
	var tails, lags []float64
	for _, w := range wins[len(wins)/5:] {
		tails = append(tails, w.latency().quantileNs(fabTailQ))
		lags = append(lags, float64(w.maxLag))
	}
	tail, lag := median(tails), median(lags)
	ok := drained && tail <= float64(fabLimit) && lag <= float64(fabLimit)
	fmt.Fprintf(os.Stderr, "perfbench: fabric trial %.0f/s: window medians p90 %.0fus, generator lag %.0fus; drained %v: sustained %v\n",
		rate, tail/1e3, lag/1e3, drained, ok)
	return ok
}

// search finds the highest offered rate the fabric sustains: from
// fabSearchFrom it climbs (or descends) by x1.5 until the outcome of a
// trial changes, then bisects geometrically between the highest pass
// and the lowest failure.
func (r *fabRun) search(d time.Duration) float64 {
	step := d / fabSearchSteps
	rate, pass, failAt := float64(fabSearchFrom), 0.0, 0.0
	for i := 0; i < fabSearchSteps; i++ {
		if r.trial(rate, step) {
			pass = max(pass, rate)
		} else if failAt == 0 || rate < failAt {
			failAt = rate
		}
		switch {
		case failAt == 0:
			rate *= 1.5
		case pass == 0:
			rate /= 1.5
		default:
			rate = math.Sqrt(pass * failAt)
		}
	}
	if pass == 0 {
		// Not even the lowest rate tried was sustained: report that
		// rate, which bounds what the fabric sustains from above.
		return rate
	}
	return pass
}

func runFabricOpen(b *bench, d time.Duration) endToEnd {
	r := newFabRun(b)
	defer r.fab.Close()
	for i := range r.groups {
		g := &r.groups[i]
		inst, err := r.fab.Group(g.name, fabric.GroupConfig{Participants: g.p})
		if err != nil {
			b.fail("Fabric.Group(%s): %v", g.name, err)
			return endToEnd{}
		}
		g.inst = inst
		g.led = &ledger{g: inst, p: g.p}
		r.instances = append(r.instances, g.led)
	}
	go r.receive()
	defer func() {
		r.stop.Store(true)
		<-r.recvDone
	}()
	// Warm-up: a burst of arrivals sent back to back, which also
	// cycles groups through sweeps and re-creation. It is not traced.
	r.tr = nil
	var warm fabWin
	for i := 0; i < fabWarmup; i++ {
		r.send(r.now(), &warm)
	}
	r.waitIdle(10 * time.Second)
	r.tr = b.tr
	warmArrivals := r.k

	nominal := d * 2 / 5
	if r.tr != nil {
		nominal = d
	}
	b.markSetup()
	wins := r.pace(fabNominal, nominal)
	// The search's overload trials build backlogs whose memory says
	// nothing about the fabric at a sustainable rate: take the peak
	// resident set here.
	r.waitIdle(5 * time.Second)
	rss := peakRSSMiB()
	rate := float64(fabNominal)
	if r.tr == nil {
		rate = r.search(d - nominal)
	}
	// Finish every open request so that every round completes.
	r.refill = false
	var tail fabWin
	for r.send(r.now(), &tail) {
	}
	b.attempted += r.k - warmArrivals
	if !r.waitIdle(20 * time.Second) {
		b.fail("%d rounds never received all their outcomes", r.outstanding.Load())
	}

	var wd windowed
	var lags []float64
	for _, w := range wins {
		// The generator's spin-wait is the benchmark's own pacing, not
		// work done for the joins: take it out of the process's CPU.
		wd.add(w.joins, time.Duration(float64(w.joins)/fabNominal*1e9), w.cpu-time.Duration(w.spinNs), w.latency(), fabTailQ)
		lags = append(lags, w.lag.quantileNs(fabTailQ))
	}
	e := wd.result("p90")
	e.opsPerS = rate
	e.peakRSSMiB = rss

	var rounds, fabRounds, joins uint64
	for _, l := range r.instances {
		rounds += l.next
		fabRounds += l.g.Rounds()
		joins += l.next * uint64(l.p)
	}
	if fabRounds != rounds {
		b.fail("the groups report %d rounds, the generator saw %d complete", fabRounds, rounds)
	}
	if got := uint64(r.received.Load()); got != joins || int64(joins) != r.k {
		b.fail("%d arrivals, %d outcomes received, %d joins in completed rounds", r.k, got, joins)
	}
	if r.tr != nil {
		set := func(metric, layer string, scale float64, unit string) {
			if v, ok := r.tr.selfPerCall(layer); ok {
				b.set(metric, v/scale, unit)
			}
		}
		set("fabric.group_ns", "fabric.group", 1, "ns")
		set("fabric.create_us", "fabric.create", 1e3, "us")
		set("fabric.arrive_ns", "fabric.arrive", 1, "ns")
		set("fabric.publish_ns", "fabric.publish", 1, "ns")
		set("fabric.deliver_us.small", "fabric.deliver.small", 1e3, "us")
		set("fabric.deliver_us.wide", "fabric.deliver.wide", 1e3, "us")
		if r.sweeps > 0 {
			b.set("fabric.sweep_ms", float64(r.sweepNs)/float64(r.sweeps)/1e6, "ms")
			b.set("fabric.swept", float64(r.swept)/float64(r.sweeps), "count")
		}
		b.set("fabric.gen_lag_us", median(lags)/1e3, "us")
	}
	fmt.Fprintf(os.Stderr, "perfbench: fabric: %d instances, %d retries after a sweep, %d sweeps removed %d groups\n",
		len(r.instances), r.retries, r.sweeps, r.swept)
	return e
}
