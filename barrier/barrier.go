// Package barrier provides reusable spin barriers for a fixed set of
// concurrent participants, implementing the algorithms studied in
// "Optimizing Barrier Synchronization on ARMv8 Many-Core Architectures"
// (CLUSTER 2021):
//
//   - Central     — sense-reversing centralized barrier (SENSE; the GNU
//     libgomp algorithm)
//   - Dissemination — the log2(P)-round pairwise barrier (DIS)
//   - Combining   — software combining tree (CMB)
//   - MCS         — the Mellor-Crummey–Scott 4-ary/binary tree barrier
//   - Tournament  — pairwise static tournament (TOUR)
//   - FWay        — static/dynamic f-way tournaments (STOUR, DTOUR)
//   - Hyper       — hypercube-embedded tree (the LLVM libomp barrier)
//   - Optimized   — the paper's contribution: cacheline-padded arrival
//     flags, fixed fan-in 4, cluster-aware grouping, and a global /
//     binary-tree / NUMA-aware-tree wake-up
//
// All barriers are allocated for a fixed participant count P and are
// reusable: participants may call Wait in a loop without
// re-initialization (sense reversal replaces the Re-initialization-
// Phase). Participants are identified by an ID in [0, P); each ID must
// be used by exactly one goroutine at a time.
//
// These are spin barriers, as in the paper: they trade CPU for latency
// and are intended for one goroutine per core (set GOMAXPROCS
// accordingly). The wait policy follows the regime by default: while
// P <= GOMAXPROCS waiters spin and yield to the Go scheduler
// periodically; once participants outnumber processors they yield
// first and then park, instead of burning the quantum of the goroutine
// they are waiting for. WithWaitPolicy overrides the choice — e.g.
// SpinWait() for participants that each own a core (see
// waitpolicy.go).
package barrier

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"armbarrier/internal/pad"
)

// Barrier synchronizes a fixed group of participants. Implementations
// in this package are safe for concurrent use by their P participants
// and reusable across any number of rounds.
type Barrier interface {
	// Wait blocks participant id until all P participants of the
	// current round have called Wait. It panics if id is outside
	// [0, P).
	Wait(id int)
	// Participants returns P.
	Participants() int
	// Name identifies the algorithm configuration.
	Name() string
}

// Unwrap returns the first barrier in b's decorator chain — b itself,
// then each Inner() in turn (watchdogs, fault injectors, telemetry
// wrappers) — that implements T. It is how a wrapper finds a
// capability (SpinCounter, ParkCounter, PhaseProber, Membership) of the
// barrier it decorates without the decorators forwarding it.
func Unwrap[T any](b Barrier) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		u, ok := b.(interface{ Inner() Barrier })
		if !ok {
			break
		}
		b = u.Inner()
	}
	var zero T
	return zero, false
}

// CacheLineSize is the padding granularity used throughout this
// repository. 128 bytes covers the 64-byte lines of the studied
// machines plus adjacent-line prefetching, and matches Kunpeng920's
// 128-byte L3 granularity. Exported so callers placing their own
// per-participant state (partial sums, counters) next to a barrier can
// reuse the same discipline instead of hand-rolling `_ [120]byte`.
// internal/pad holds the shared constant and the generic padded-slot
// helper the newer packages use.
const CacheLineSize = pad.CacheLine

// cacheLine is the internal alias the padded types use.
const cacheLine = CacheLineSize

// paddedUint32 is a 32-bit flag alone on its cacheline — the paper's
// arrival-flag padding optimization.
type paddedUint32 struct {
	v atomic.Uint32
	_ [cacheLine - 4]byte
}

// spinYieldEvery caps the exponential poll backoff: the pause between
// polls doubles 1 → 2 → … → spinYieldEvery; once the cap is reached a
// spin-yield waiter enters the scheduler between polls instead, so
// oversubscribed configurations (P > GOMAXPROCS) still make progress.
const spinYieldEvery = 128

// spinCount accumulates poll-loop statistics for one participant. The
// fields are atomics only so a concurrent Snapshot can read them while
// the owning participant keeps spinning; the participant is the sole
// writer. Padded so neighbouring participants' counters never share a
// line.
type spinCount struct {
	spins  atomic.Uint64
	yields atomic.Uint64
	_      [cacheLine - 16]byte
}

// spinUntilEq polls an atomic flag until it equals want — the
// spin-yield wait discipline. The pause between polls backs off
// exponentially (1 → 2 → … → spinYieldEvery) so an early arrival stays
// off the flag's cacheline; once the backoff is exhausted the waiter
// yields to the Go scheduler between polls. A non-nil c receives the
// number of polls and scheduler yields the wait took; the counters are
// touched once at loop exit, so the nil (uninstrumented) path pays a
// single predictable branch and no extra atomics.
func spinUntilEq(f *atomic.Uint32, want uint32, c *spinCount) {
	var spins, yields uint64
	backoff := uint32(1)
	for f.Load() != want {
		spins++
		if backoff < spinYieldEvery {
			pause(backoff)
			backoff <<= 1
		} else {
			yields++
			runtime.Gosched()
		}
	}
	if c != nil {
		c.spins.Add(spins)
		c.yields.Add(yields)
	}
}

// SpinCounter is implemented by barriers that can count their waiters'
// poll-loop iterations and scheduler yields per participant. Enable the
// counters before any participant calls Wait; they stay off (and free)
// otherwise.
type SpinCounter interface {
	// EnableSpinCounts allocates the per-participant counters and turns
	// counting on. It is not safe to call concurrently with Wait.
	EnableSpinCounts()
	// SpinCounts returns the cumulative poll iterations and scheduler
	// yields participant id has spent waiting. Safe to call while the
	// barrier is in use.
	SpinCounts(id int) (spins, yields uint64)
}

// spinStats is the embeddable implementation of SpinCounter shared by
// the spin barriers in this package. The zero value is "disabled";
// constructors call initSpin(p) so EnableSpinCounts knows how many
// slots to allocate.
type spinStats struct {
	spinP int
	slots []spinCount
}

func (s *spinStats) initSpin(p int) { s.spinP = p }

// EnableSpinCounts implements SpinCounter.
func (s *spinStats) EnableSpinCounts() {
	if s.slots == nil && s.spinP > 0 {
		s.slots = make([]spinCount, s.spinP)
	}
}

// SpinCounts implements SpinCounter.
func (s *spinStats) SpinCounts(id int) (spins, yields uint64) {
	if id < 0 || id >= s.spinP {
		panic(fmt.Sprintf("barrier: SpinCounts participant %d outside [0,%d)", id, s.spinP))
	}
	if s.slots == nil {
		return 0, 0
	}
	return s.slots[id].spins.Load(), s.slots[id].yields.Load()
}

// slot returns participant id's counter, or nil when counting is off.
func (s *spinStats) slot(id int) *spinCount {
	if s.slots == nil {
		return nil
	}
	return &s.slots[id]
}

// checkID panics for an out-of-range participant, naming the barrier.
func checkID(id, p int, name string) {
	if id < 0 || id >= p {
		panic(fmt.Sprintf("barrier: %s: participant %d outside [0,%d)", name, id, p))
	}
}

// checkP panics for an invalid participant count.
func checkP(p int, name string) {
	if p < 1 {
		panic(fmt.Sprintf("barrier: %s: participant count %d < 1", name, p))
	}
}

// PanicError is a panic (or runtime.Goexit) captured from a
// participant goroutine, attributed to the participant that raised it.
// barrier.Run and omp.Team re-raise the first one on the caller.
type PanicError struct {
	// ID is the participant whose body panicked or exited.
	ID int
	// Value is the original panic value; nil when the goroutine ran
	// runtime.Goexit instead of panicking.
	Value any
	// Goexit is true when the body called runtime.Goexit (e.g. via
	// testing's FailNow) rather than panicking.
	Goexit bool
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Goexit {
		return fmt.Sprintf("barrier: participant %d called runtime.Goexit", e.ID)
	}
	return fmt.Sprintf("barrier: participant %d panicked: %v", e.ID, e.Value)
}

// Unwrap exposes the original panic value when it was an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run starts P goroutines, one per participant of b, each executing
// body(id), and returns when all complete. It is a convenience for
// examples, tests and benchmarks.
//
// A panic in a body no longer crashes the process with an unattributed
// trace: Run recovers it, waits for the remaining participants, and
// re-raises the first captured panic on the caller as a *PanicError
// naming the participant. Note that a panicking participant skips its
// remaining barrier episodes, so peers still inside Wait may wedge —
// bound those waits with WaitDeadline or watch them with a Watchdog if
// the body can fail between barrier calls.
func Run(b Barrier, body func(id int)) {
	ids := make([]int, b.Participants())
	for i := range ids {
		ids[i] = i
	}
	RunIDs(b, ids, body)
}

// RunIDs is Run for an explicit participant set: one goroutine per id
// in ids, with the same panic capture and re-raise. It exists for
// elastic barriers (Phaser), where only the registered slots may call
// Wait — Run's 0..Participants()-1 sweep would touch empty slots.
func RunIDs(b Barrier, ids []int, body func(id int)) {
	p := b.Participants()
	for _, id := range ids {
		checkID(id, p, b.Name())
	}
	var wg sync.WaitGroup
	var first atomic.Pointer[PanicError]
	wg.Add(len(ids))
	for _, id := range ids {
		go func(id int) {
			completed := false
			defer func() {
				r := recover()
				if r != nil || !completed {
					first.CompareAndSwap(nil, &PanicError{
						ID:     id,
						Value:  r,
						Goexit: r == nil,
						Stack:  debug.Stack(),
					})
				}
				wg.Done()
			}()
			body(id)
			completed = true
		}(id)
	}
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}
