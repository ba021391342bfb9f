package barrier

// Wait policies: how a participant waits for a flag it does not yet
// see. The algorithms in this package decide *who* waits on *what*
// (the tree shape); the wait policy decides *how* — and once P exceeds
// GOMAXPROCS the waiting discipline, not the tree shape, dominates
// cost: a spinning waiter burns the scheduler quantum of the very
// goroutine it is waiting for. Four policies are provided:
//
//   - SpinWait       — pure spinning with exponential poll backoff;
//     never yields. Lowest latency when every participant owns a core
//     and nothing else wants it.
//   - SpinYieldWait  — spin with exponential backoff, then yield to
//     the Go scheduler between polls: near-spin latency dedicated,
//     guaranteed progress oversubscribed.
//   - SpinParkWait   — bounded spin, brief yielding, then park the
//     goroutine on a per-participant cacheline-padded semaphore so the
//     scheduler can run stragglers. The releasing side wakes only
//     actually-parked waiters via a parked-bit CAS, so the
//     dedicated-core fast path pays one extra load per signal and no
//     extra read-modify-write. Oversubscribed, the waiter skips the
//     spin and yields first (see yieldPark).
//   - AdaptiveWait   — starts as SpinYieldWait and switches each
//     participant to the parking discipline when its observed
//     yields-per-wait (the same yield counts spinStats records) cross
//     a threshold, switching back when waits become yield-free.
//
// Without a WithWaitPolicy option a constructor picks by regime, once,
// from its participant count: SpinYieldWait while P <= GOMAXPROCS,
// SpinParkWait once participants outnumber the processors. Pass an
// explicit policy to override the rule:
//
//	b := barrier.New(p, barrier.WithWaitPolicy(barrier.SpinYieldWait()))

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"armbarrier/internal/pad"
)

// waitKind enumerates the wait disciplines. The zero value is no
// discipline but "the regime default", which initWait resolves, so a
// zero WaitPolicy differs from an explicit SpinYieldWait.
type waitKind uint8

const (
	waitDefault waitKind = iota
	waitSpinYield
	waitSpin
	waitSpinPark
	waitAdaptive
)

// WaitPolicy selects how participants wait inside a barrier. The zero
// value asks for the regime default (see the package notes above);
// a constructed barrier's WaitPolicy method reports what it resolved
// to. Values are comparable.
type WaitPolicy struct {
	kind waitKind
}

// SpinWait returns the pure-spin policy: exponential poll backoff,
// never a scheduler yield. Use only when each participant owns a core.
func SpinWait() WaitPolicy { return WaitPolicy{kind: waitSpin} }

// SpinYieldWait returns the spin-yield policy, the default while P <=
// GOMAXPROCS: exponential poll backoff up to spinYieldEvery, then a
// scheduler yield between polls.
func SpinYieldWait() WaitPolicy { return WaitPolicy{kind: waitSpinYield} }

// SpinParkWait returns the parking policy: bounded spin, a few yields,
// then park on a per-participant semaphore until a releaser wakes the
// waiter. The default when P > GOMAXPROCS.
func SpinParkWait() WaitPolicy { return WaitPolicy{kind: waitSpinPark} }

// AdaptiveWait returns the self-tuning policy: each participant starts
// with the spin-yield discipline and switches itself to parking when
// its recent waits average at least one scheduler yield each (and back
// when they become yield-free again).
func AdaptiveWait() WaitPolicy { return WaitPolicy{kind: waitAdaptive} }

// String implements fmt.Stringer with the names the -wait flags use;
// the zero value prints as "default".
func (p WaitPolicy) String() string {
	switch p.kind {
	case waitDefault:
		return "default"
	case waitSpin:
		return "spin"
	case waitSpinYield:
		return "spinyield"
	case waitSpinPark:
		return "spinpark"
	case waitAdaptive:
		return "adaptive"
	}
	return "wait?"
}

// ParseWaitPolicy parses a policy name as printed by String. The empty
// string, like "default", yields the zero value: the regime default.
func ParseWaitPolicy(s string) (WaitPolicy, error) {
	switch s {
	case "", "default":
		return WaitPolicy{}, nil
	case "spin":
		return SpinWait(), nil
	case "spinyield":
		return SpinYieldWait(), nil
	case "spinpark":
		return SpinParkWait(), nil
	case "adaptive":
		return AdaptiveWait(), nil
	}
	return WaitPolicy{}, fmt.Errorf("barrier: unknown wait policy %q (have spin, spinyield, spinpark, adaptive)", s)
}

// mayPark reports whether the policy can ever park, i.e. whether park
// slots must be allocated.
func (p WaitPolicy) mayPark() bool {
	return p.kind == waitSpinPark || p.kind == waitAdaptive
}

// Option configures a barrier constructor. All constructors in this
// package accept trailing options; omitting them keeps the zero-config
// behaviour, the regime's default wait policy.
type Option func(*waitState)

// WithWaitPolicy selects the wait discipline for every wait site of
// the constructed barrier; the zero WaitPolicy keeps the regime
// default.
func WithWaitPolicy(p WaitPolicy) Option {
	return func(w *waitState) { w.policy = p }
}

// parkAfterYields is how many scheduler yields a parking waiter takes
// after its spin budget before it commits to parking: a straggler that
// is merely descheduled usually arrives within a yield or two, and a
// park/wake pair costs two scheduler transitions.
const parkAfterYields = 2

// adaptWindow is how many waits an adaptive participant observes
// before re-deciding its discipline.
const adaptWindow = 64

// parkState is one participant's parking place: a one-token semaphore
// plus the parked bit the release side inspects.
type parkState struct {
	// parks counts times this participant parked; wakes counts tokens a
	// releaser handed it. parks is owner-written, wakes waker-written;
	// both are atomics so concurrent snapshots stay race-free.
	parks atomic.Uint64
	wakes atomic.Uint64
	ch    chan struct{}
	// state is 1 while the owner is parked or committing to park.
	state atomic.Uint32
}

// parkSlot pads parkState to a full line multiple (the shared
// internal/pad trailing-pad formula) so neighbouring participants'
// slots never share a line.
type parkSlot struct {
	parkState
	_ [pad.CacheLine - unsafe.Sizeof(parkState{})%pad.CacheLine]byte
}

// adaptState is one participant's adaptive-policy accounting. Only the
// owning participant touches it, so the fields need no atomics.
type adaptState struct {
	waits  uint64
	yields uint64
	park   bool
}

// adaptSlot pads adaptState so neighbours never share a line.
type adaptSlot struct {
	adaptState
	_ [pad.CacheLine - unsafe.Sizeof(adaptState{})%pad.CacheLine]byte
}

// waitState is the embeddable wait-site implementation shared by every
// spin barrier in this package: the spinStats counters plus the
// configured wait policy and its parking state. Constructors call
// initWait(p, opts).
type waitState struct {
	spinStats
	policy WaitPolicy
	// yieldFirst is set once, by initWait, when the barrier is
	// oversubscribed under SpinParkWait; its waits then take yieldPark.
	yieldFirst bool
	parkSlots  []parkSlot  // non-nil iff the policy may park
	adaptSlots []adaptSlot // non-nil iff the policy is adaptive
	// deadlines[id].at is non-zero while participant id runs a bounded
	// wait (see deadline.go). Owner-only plain field: the bare-Wait fast
	// path pays one non-atomic load of an exclusively-owned cacheline.
	deadlines []deadlineSlot
	// probes[id].pr is participant id's phase probe, nil when disarmed
	// (see phase.go). Same owner-only plain-load discipline as
	// deadlines.
	probes []probeSlot
}

// initWait applies the constructor options, resolves the regime
// default when they chose no policy, and allocates whatever the
// resolved policy needs.
func (w *waitState) initWait(p int, opts []Option) {
	w.initSpin(p)
	for _, o := range opts {
		o(w)
	}
	over := oversubscribed(p)
	if w.policy.kind == waitDefault {
		w.policy = SpinYieldWait()
		if over {
			w.policy = SpinParkWait()
		}
	}
	w.yieldFirst = over && w.policy.kind == waitSpinPark
	if w.policy.mayPark() {
		w.parkSlots = make([]parkSlot, p)
		for i := range w.parkSlots {
			w.parkSlots[i].ch = make(chan struct{}, 1)
		}
	}
	if w.policy.kind == waitAdaptive {
		w.adaptSlots = make([]adaptSlot, p)
	}
	w.deadlines = make([]deadlineSlot, p)
	w.probes = make([]probeSlot, p)
}

// oversubscribed reports whether p participants outnumber the
// processors Go runs goroutines on (GOMAXPROCS): the regime in which a
// waiter that keeps its processor delays the very participant it waits
// for, so how it waits costs more than the tree shape.
func oversubscribed(p int) bool { return p > runtime.GOMAXPROCS(0) }

// WaitPolicy returns the policy the barrier waits with: the one passed
// to WithWaitPolicy, or the regime default it resolved to.
func (w *waitState) WaitPolicy() WaitPolicy { return w.policy }

// ParkCounter is implemented by barriers whose wait policy can park.
// Unlike SpinCounter, the counters are always on: parking and waking
// are already scheduler-priced slow paths, so counting them is free by
// comparison.
type ParkCounter interface {
	// ParkCounts returns how many times participant id parked and how
	// many wake tokens releasers handed it. Both are zero under
	// non-parking policies. Safe to call while the barrier is in use.
	ParkCounts(id int) (parks, wakes uint64)
}

// ParkCounts implements ParkCounter.
func (w *waitState) ParkCounts(id int) (parks, wakes uint64) {
	if id < 0 || id >= w.spinP {
		panic(fmt.Sprintf("barrier: ParkCounts participant %d outside [0,%d)", id, w.spinP))
	}
	if w.parkSlots == nil {
		return 0, 0
	}
	s := &w.parkSlots[id]
	return s.parks.Load(), s.wakes.Load()
}

// wait blocks participant id until *f == want, using the configured
// policy. It replaces direct spinUntilEq calls at every wait site.
func (w *waitState) wait(id int, f *atomic.Uint32, want uint32) {
	if w.deadlines[id].at != 0 {
		w.waitBounded(id, f, want)
		return
	}
	switch w.policy.kind {
	case waitSpinYield:
		spinUntilEq(f, want, w.slot(id))
	case waitSpin:
		spinNoYield(f, want, w.slot(id))
	case waitSpinPark:
		if w.yieldFirst {
			w.yieldPark(id, f, want)
		} else {
			w.parkWait(id, f, want)
		}
	case waitAdaptive:
		a := &w.adaptSlots[id]
		var yields uint64
		if a.park {
			yields = w.parkWait(id, f, want)
		} else {
			var spins uint64
			spins, yields = spinYieldLoop(f, want)
			if c := w.slot(id); c != nil {
				c.spins.Add(spins)
				c.yields.Add(yields)
			}
		}
		a.note(yields)
	}
}

// note folds one wait's yield count into the adaptive decision: after
// adaptWindow waits, park when they averaged >= 1 yield each, go back
// to spinning when at most one wait in four yielded at all.
func (a *adaptSlot) note(yields uint64) {
	a.waits++
	a.yields += yields
	if a.waits < adaptWindow {
		return
	}
	switch {
	case a.yields >= a.waits:
		a.park = true
	case a.yields*4 <= a.waits:
		a.park = false
	}
	a.waits, a.yields = 0, 0
}

// parkWait is the SpinParkWait discipline: spin with exponential
// backoff, yield parkAfterYields times, then park until a releaser
// hands over a token. Returns the scheduler yields taken (the adaptive
// policy feeds on them).
func (w *waitState) parkWait(id int, f *atomic.Uint32, want uint32) uint64 {
	var spins, yields uint64
	backoff := uint32(1)
	for f.Load() != want {
		spins++
		if backoff < spinYieldEvery {
			pause(backoff)
			backoff <<= 1
			continue
		}
		if yields < parkAfterYields {
			yields++
			runtime.Gosched()
			continue
		}
		w.park(id, f, want)
		break
	}
	if c := w.slot(id); c != nil {
		c.spins.Add(spins)
		c.yields.Add(yields)
	}
	return yields
}

// yieldPark is SpinParkWait's oversubscribed discipline: no spin
// window, since the releaser cannot run until a waiter gives up its
// processor. The waiter yields at once, at most parkAfterYields times,
// then parks. Under a FIFO round-robin scheduler the yield requeues it
// behind every not-yet-arrived participant, so the first recheck
// usually finds the flag set and the park/unpark round trip is never
// paid. Only yields are counted: a recheck after a yield is not a spin.
func (w *waitState) yieldPark(id int, f *atomic.Uint32, want uint32) {
	var yields uint64
	for f.Load() != want {
		if yields == parkAfterYields {
			w.park(id, f, want)
			break
		}
		yields++
		runtime.Gosched()
	}
	if c := w.slot(id); c != nil {
		c.yields.Add(yields)
	}
}

// park blocks participant id until *f == want.
//
// The protocol is the classic futex-style handshake, relying on the
// sequential consistency of Go's atomics: the waiter publishes its
// parked bit *before* re-checking the flag; the releaser stores the
// flag *before* checking the parked bit. Whichever order the two
// interleave in, either the waiter sees the flag set and returns, or
// the releaser sees the parked bit and hands over a token. A stale
// token (from a release that raced with the waiter's own flag check)
// only causes a spurious wake; the loop re-checks the flag and parks
// again.
func (w *waitState) park(id int, f *atomic.Uint32, want uint32) {
	s := &w.parkSlots[id]
	for {
		s.state.Store(1)
		if f.Load() == want {
			s.state.Store(0)
			// Drain the token a racing releaser may have deposited so it
			// cannot spuriously wake the next park.
			select {
			case <-s.ch:
			default:
			}
			return
		}
		s.parks.Add(1)
		<-s.ch // the releaser's CAS already cleared state
		if f.Load() == want {
			return
		}
	}
}

// signal stores v into the wait flag f and wakes the participant known
// to wait on it, if it parked. Pass waiter < 0 when no participant
// ever waits on the flag. Under non-parking policies this is a plain
// store; under parking ones the fast path adds one load of the
// waiter's parked bit.
func (w *waitState) signal(f *atomic.Uint32, v uint32, waiter int) {
	f.Store(v)
	if w.parkSlots == nil || waiter < 0 {
		return
	}
	w.unpark(waiter)
}

// signalAll stores v into a globally-polled flag (a sense word every
// other participant waits on) and wakes every parked waiter except
// self.
func (w *waitState) signalAll(f *atomic.Uint32, v uint32, self int) {
	f.Store(v)
	if w.parkSlots == nil {
		return
	}
	for i := range w.parkSlots {
		if i != self {
			w.unpark(i)
		}
	}
}

// signalGroup stores v into a flag any member of ids may be waiting on
// (e.g. a cluster whose current representative is episode-dependent)
// and wakes the parked ones, skipping self.
func (w *waitState) signalGroup(f *atomic.Uint32, v uint32, ids []int, self int) {
	f.Store(v)
	if w.parkSlots == nil {
		return
	}
	for _, i := range ids {
		if i != self {
			w.unpark(i)
		}
	}
}

// unpark hands participant i a wake token iff it is parked. The
// parked-bit load keeps the no-parked-waiter path to a single read;
// the CAS ensures exactly one releaser delivers the token.
func (w *waitState) unpark(i int) {
	s := &w.parkSlots[i]
	if s.state.Load() == 1 && s.state.CompareAndSwap(1, 0) {
		s.wakes.Add(1)
		select {
		case s.ch <- struct{}{}:
		default:
		}
	}
}

// spinNoYield is the SpinWait discipline: poll forever, backing off
// exponentially (capped at spinYieldEvery pause iterations) to keep
// the waiting core off the interconnect, and never enter the
// scheduler. Go's asynchronous preemption keeps this safe — though not
// fast — even when cores are shared.
func spinNoYield(f *atomic.Uint32, want uint32, c *spinCount) {
	var spins uint64
	backoff := uint32(1)
	for f.Load() != want {
		spins++
		pause(backoff)
		if backoff < spinYieldEvery {
			backoff <<= 1
		}
	}
	if c != nil {
		c.spins.Add(spins)
	}
}

// pause spins the calling core for roughly n no-op iterations between
// polls — cheap backoff that keeps a hot flag's cacheline from being
// hammered. The gc compiler does not eliminate empty loops.
func pause(n uint32) {
	for i := uint32(0); i < n; i++ { //nolint:revive // intentional busy-wait
	}
}
