//go:build go1.23

// The kernel runs each simulated thread on an iter.Pull coroutine,
// which needs Go 1.23. go.mod stays at go 1.22 because the perfbench
// module requires this one and pins go 1.22, and a module's go line may
// not be older than its dependencies'. This constraint raises only this
// file's language version; package sim needs a Go 1.23 toolchain.

// Package sim is a deterministic discrete-event simulator of the
// cache-coherent many-core machines described by package topology. It
// executes real algorithm control flow — loads, stores, atomics and
// spin-waits issued by simulated threads pinned to simulated cores —
// and charges each memory operation the cost the paper's model assigns
// it (Section III-B): ε for local cache hits, the layer latency L_i
// for remote reads, the read-for-ownership invalidation term n·α·L for
// stores, serialized line occupancy for contended atomics, and the
// contention coefficient c for multiple readers pulling one line.
//
// The simulator replaces the ARMv8 silicon the paper measures: thread
// pinning, cluster distances and write-invalidate coherence all behave
// as configured by the topology, so barrier algorithms exhibit the
// same relative costs as on the real machines without requiring the
// hardware.
//
// Concurrency model: every simulated thread is a coroutine (iter.Pull),
// and the kernel resumes exactly one at a time — always the thread with
// the smallest (virtual time, thread ID), kept at the head of a ready
// heap — so execution is sequential, reproducible, and needs no locks.
// A thread whose memory operation is still the global minimum runs on
// without switching.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"armbarrier/topology"
)

// Addr names a simulated memory variable (one flag-sized slot).
// Variables are mapped onto cachelines by the Alloc functions.
type Addr int

// OpKind classifies a traced memory operation.
type OpKind int

// Operation kinds reported to Trace hooks and counted in Stats.
const (
	OpLoad OpKind = iota
	OpStore
	OpAtomic
	OpWake // a spinning thread woken by a store
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	case OpWake:
		return "wake"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Event is one simulated memory operation, delivered to the Trace hook.
type Event struct {
	Time   float64 // virtual time at which the operation started, ns
	Thread int
	Core   int
	Kind   OpKind
	Addr   Addr
	Cost   float64 // charged nanoseconds (including queueing)
	Remote bool    // crossed a communication layer (cost involved some L_i)
	// QueueNs is the portion of Cost spent waiting for a line or the
	// interconnect to free up — time that belongs to the blocking
	// operation, not this one.
	QueueNs float64
	// Seq is the operation's global sequence number (application order).
	Seq int
	// BlockedBy is the Seq of the operation this one waited for
	// (-1 when unblocked): the previous writer of a queued line, the
	// previous interconnect user, or the store that woke this thread's
	// spin. Block names the dependency kind ("line", "net", "wake").
	BlockedBy int
	Block     string
}

// Stats aggregates operation counts for one Run.
type Stats struct {
	Loads        uint64
	LocalLoads   uint64
	RemoteLoads  uint64
	Stores       uint64
	RemoteStores uint64 // stores that fetched the line from another core
	Atomics      uint64
	Wakeups      uint64
	// InvalidationNs is the total RFO cost charged to stores.
	InvalidationNs float64
}

// Config configures a Kernel.
type Config struct {
	// Machine is the simulated processor. Required.
	Machine *topology.Machine
	// Placement pins simulated thread i to core Placement[i]. Required;
	// its length is the thread count.
	Placement topology.Placement
	// Trace, if non-nil, receives every memory operation. Tracing is
	// for tests and debugging; it does not affect timing.
	Trace func(Event)
}

// Kernel is a single-use simulation instance: allocate variables, then
// call Run exactly once.
type Kernel struct {
	machine   *topology.Machine
	placement topology.Placement
	trace     func(Event)

	vars  []varInfo
	lines []*line

	threads []*Thread
	// ready holds the runnable threads other than the running one.
	ready readyHeap
	ran   bool
	stats Stats
	// netFreeAt is when the on-chip interconnect next accepts a remote
	// transfer; concurrent remote operations serialize by the
	// machine's NetworkOccupancy, scaled by transfer distance.
	netFreeAt float64
	// netLastSeq is the sequence number of the op holding netFreeAt.
	netLastSeq int
	// seq numbers operations in application order for dependency
	// tracking.
	seq int
	// minRemoteLatency is the cheapest L_i, the reference distance for
	// network occupancy scaling.
	minRemoteLatency float64
}

// reserveNetwork books the interconnect for one remote transfer of
// latency L that would otherwise start at `at`, returning the queueing
// delay. Longer transfers occupy the network proportionally longer, so
// cross-cluster traffic throttles concurrency harder than local
// traffic — the effect the paper's NUMA-aware tree exploits by
// minimizing L_i (i>0) accesses.
// It also returns the sequence number of the operation previously
// holding the interconnect, for dependency attribution.
func (k *Kernel) reserveNetwork(at, latency float64, seq int) (delay float64, prevSeq int) {
	if k.machine.NetworkOccupancy == 0 {
		return 0, -1
	}
	prevSeq = k.netLastSeq
	start := at
	if k.netFreeAt > start {
		start = k.netFreeAt
	}
	k.netFreeAt = start + k.machine.NetworkOccupancy*(latency/k.minRemoteLatency)
	k.netLastSeq = seq
	if start == at {
		prevSeq = -1
	}
	return start - at, prevSeq
}

type varInfo struct {
	line  int
	value uint64
}

type line struct {
	id      int
	owner   int // core holding the authoritative copy; -1 before first touch
	sharers coreSet
	// readsSinceWrite counts remote reads of the current version, for
	// the c·(readers−1) contention term.
	readsSinceWrite int
	// writeFreeAt is when the line next accepts a store or atomic:
	// exclusive ownership transfers are serial, so concurrent writers
	// of one line queue — the paper's "the write operations must
	// perform in sequential" for flags packed into a shared line.
	writeFreeAt float64
	// writeLastSeq is the sequence number of the op holding writeFreeAt.
	writeLastSeq int
	waiters      []*Thread
}

type threadState int

const (
	stateRunnable threadState = iota
	stateWaiting              // blocked on a line write
	stateDone
)

// New builds a Kernel. It returns an error for invalid configuration.
func New(cfg Config) (*Kernel, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sim: Config.Machine is nil")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Placement.Validate(cfg.Machine); err != nil {
		return nil, err
	}
	minRemote := cfg.Machine.Latency[0]
	for _, l := range cfg.Machine.Latency {
		if l < minRemote {
			minRemote = l
		}
	}
	k := &Kernel{
		machine:          cfg.Machine,
		placement:        cfg.Placement,
		trace:            cfg.Trace,
		minRemoteLatency: minRemote,
		netLastSeq:       -1,
	}
	return k, nil
}

// Machine returns the simulated machine.
func (k *Kernel) Machine() *topology.Machine { return k.machine }

// Threads returns the simulated thread count.
func (k *Kernel) Threads() int { return len(k.placement) }

// Placement returns the thread-to-core pinning the kernel runs with.
// The returned slice must not be modified.
func (k *Kernel) Placement() topology.Placement { return k.placement }

// Stats returns the operation counters accumulated by Run.
func (k *Kernel) Stats() Stats { return k.stats }

// Alloc allocates n variables packed consecutively into cachelines at
// the machine's flag granularity (FlagBytes), so FlagsPerLine variables
// share a line — the layout of the original 32-bit-flag algorithms.
// Each Alloc call starts on a fresh line; lines are never shared
// between calls.
func (k *Kernel) Alloc(n int) []Addr {
	return k.alloc(n, k.machine.FlagsPerLine())
}

// AllocPadded allocates n variables, each alone on its own cacheline —
// the paper's padding optimization.
func (k *Kernel) AllocPadded(n int) []Addr {
	return k.alloc(n, 1)
}

// AllocGrouped packs variables with `perLine` slots per cacheline,
// starting a fresh line. Use it to model intermediate padding choices.
func (k *Kernel) AllocGrouped(n, perLine int) []Addr {
	if perLine < 1 || perLine > k.machine.FlagsPerLine() {
		panic(fmt.Sprintf("sim: AllocGrouped perLine %d outside [1,%d]", perLine, k.machine.FlagsPerLine()))
	}
	return k.alloc(n, perLine)
}

func (k *Kernel) alloc(n, perLine int) []Addr {
	if k.ran {
		panic("sim: Alloc after Run")
	}
	if n < 0 {
		panic(fmt.Sprintf("sim: Alloc(%d)", n))
	}
	addrs := make([]Addr, n)
	for i := 0; i < n; i++ {
		if i%perLine == 0 {
			k.lines = append(k.lines, &line{
				id:      len(k.lines),
				owner:   -1,
				sharers: newCoreSet(k.machine.Cores),
			})
		}
		addrs[i] = Addr(len(k.vars))
		k.vars = append(k.vars, varInfo{line: len(k.lines) - 1})
	}
	return addrs
}

// LineOf returns the cacheline index backing an address, for tests that
// assert layout decisions.
func (k *Kernel) LineOf(a Addr) int {
	return k.vars[k.checkAddr(a)].line
}

func (k *Kernel) checkAddr(a Addr) int {
	if int(a) < 0 || int(a) >= len(k.vars) {
		panic(fmt.Sprintf("sim: address %d out of range [0,%d)", a, len(k.vars)))
	}
	return int(a)
}

// Run executes fn once per simulated thread (distinguished by
// Thread.ID) and returns when every thread finishes. It may be called
// once per Kernel. It panics on deadlock — every live thread blocked on
// a line no one will ever write — identifying the stuck threads. A
// panic in fn reaches Run's caller unchanged. Either way no simulated
// thread outlives Run.
func (k *Kernel) Run(fn func(t *Thread)) {
	if k.ran {
		panic("sim: Run called twice")
	}
	k.ran = true
	n := len(k.placement)
	k.threads = make([]*Thread, n)
	next := make([]func() (struct{}, bool), n)
	stop := make([]func(), n)
	for i := range k.threads {
		t := &Thread{id: i, core: k.placement[i], kernel: k, wakeSeq: -1}
		k.threads[i] = t
		next[i], stop[i] = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			defer func() {
				if r := recover(); r != nil && r != (stopped{}) {
					panic(r)
				}
			}()
			fn(t)
			t.state = stateDone
		})
		k.ready.push(t)
	}
	// Unwind every thread still suspended when Run returns or panics.
	defer func() {
		for _, s := range stop {
			s()
		}
	}()
	for {
		t := k.ready.pop()
		if t == nil {
			if k.allDone() {
				return
			}
			panic(k.deadlockReport())
		}
		next[t.id]()
	}
}

// stopped is the panic that unwinds a thread whose coroutine Run
// stopped; the coroutine recovers it.
type stopped struct{}

// readyHeap is a min-heap of threads keyed on (now, id), the order in
// which the kernel resumes them.
type readyHeap []*Thread

func (h *readyHeap) push(t *Thread) {
	s := append(*h, t)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// pop removes and returns the smallest thread, or nil when h is empty.
func (h *readyHeap) pop() *Thread {
	s := *h
	if len(s) == 0 {
		return nil
	}
	top, n := s[0], len(s)-1
	s[0], s[n] = s[n], nil
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

func (k *Kernel) allDone() bool {
	for _, t := range k.threads {
		if t.state != stateDone {
			return false
		}
	}
	return true
}

func (k *Kernel) deadlockReport() string {
	var stuck []string
	for _, t := range k.threads {
		if t.state == stateWaiting {
			stuck = append(stuck, fmt.Sprintf("thread %d (core %d) waiting on line %d at t=%.1f",
				t.id, t.core, t.waitLine, t.now))
		}
	}
	sort.Strings(stuck)
	return fmt.Sprintf("sim: deadlock on %s with %d threads: %v", k.machine.Name, len(k.threads), stuck)
}

// MaxTime returns the largest per-thread virtual time after Run — the
// completion time of the whole program.
func (k *Kernel) MaxTime() float64 {
	max := 0.0
	for _, t := range k.threads {
		if t.now > max {
			max = t.now
		}
	}
	return max
}

// ThreadTimes returns each thread's final virtual time after Run.
func (k *Kernel) ThreadTimes() []float64 {
	ts := make([]float64, len(k.threads))
	for i, t := range k.threads {
		ts[i] = t.now
	}
	return ts
}

func (k *Kernel) emit(e Event) {
	if k.trace != nil {
		k.trace(e)
	}
}
