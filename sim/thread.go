package sim

import "fmt"

// Thread is one simulated hardware thread, pinned to a core. All
// methods must be called from inside the function passed to Kernel.Run,
// on the coroutine Run handed that Thread.
type Thread struct {
	id     int
	core   int
	kernel *Kernel
	now    float64
	state  threadState
	// yield suspends the thread's coroutine until Run resumes it; it
	// returns false once Run has stopped the coroutine.
	yield func(struct{}) bool
	// waitLine is the line this thread is blocked on while waiting.
	waitLine int
	// loadStreak counts back-to-back remote loads of distinct lines
	// with no intervening store, atomic, wait or compute: such loads
	// overlap in hardware (memory-level parallelism), so the 2nd and
	// later pay only mlpFactor of their latency.
	loadStreak int
	lastLine   int
	// wakeSeq is the sequence number of the store that woke this
	// thread's spin (-1 when not freshly woken); the next load is
	// attributed to it.
	wakeSeq int
}

// mlpFactor discounts the latency of overlapping independent remote
// loads (a winner polling several padded arrival flags back to back).
const mlpFactor = 0.5

// ID returns the simulated thread's logical ID (its index in the
// placement).
func (t *Thread) ID() int { return t.id }

// Core returns the physical core the thread is pinned to.
func (t *Thread) Core() int { return t.core }

// Now returns the thread's current virtual time in nanoseconds.
func (t *Thread) Now() float64 { return t.now }

// Compute advances the thread's clock by ns nanoseconds of purely local
// work (no shared-memory traffic).
func (t *Thread) Compute(ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("sim: Compute(%g)", ns))
	}
	t.loadStreak = 0
	t.now += ns
}

// before orders threads by (now, id), the kernel's resume order.
func (t *Thread) before(u *Thread) bool {
	return t.now < u.now || (t.now == u.now && t.id < u.id)
}

// sync returns once this thread is the globally-minimal runnable
// thread. Every memory operation passes through sync first so
// operations apply in virtual-time order. A thread that is still the
// minimum runs on without a switch.
func (t *Thread) sync() {
	k := t.kernel
	if len(k.ready) == 0 || t.before(k.ready[0]) {
		return
	}
	k.ready.push(t)
	t.suspend()
}

// suspend returns control to Run until it resumes this thread. A thread
// whose coroutine Run stopped unwinds instead.
func (t *Thread) suspend() {
	if !t.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Load reads a variable. A hit in the local cache costs ε; a miss is a
// remote read across the owner's layer (O_{R_R} = L_i) plus the
// per-extra-reader contention term c.
func (t *Thread) Load(a Addr) uint64 {
	k := t.kernel
	vi := k.checkAddr(a)
	t.sync()
	seq := k.seq
	k.seq++
	blockedBy, block := -1, ""
	if t.wakeSeq >= 0 {
		blockedBy, block = t.wakeSeq, "wake"
		t.wakeSeq = -1
	}
	v := &k.vars[vi]
	ln := k.lines[v.line]
	m := k.machine

	var cost float64
	remote := false
	k.stats.Loads++
	switch {
	case ln.sharers.has(t.core):
		cost = m.Epsilon
		k.stats.LocalLoads++
	case ln.owner == -1:
		// First touch: line faults in from memory at its home; treat
		// as a local warm miss and make this core the owner.
		cost = m.Epsilon
		ln.owner = t.core
		k.stats.LocalLoads++
	default:
		// Reads of one line fan out from the owner without exclusive
		// interconnect transactions (the LLC serves them), so they pay
		// the per-line reader contention c instead of reserving the
		// network the way ownership transfers do.
		cost = m.LatencyBetween(t.core, ln.owner)
		if t.loadStreak > 0 && ln.id != t.lastLine {
			// Independent back-to-back loads overlap (MLP).
			cost *= mlpFactor
		}
		cost += m.ReadContention * float64(ln.readsSinceWrite)
		ln.readsSinceWrite++
		remote = true
		k.stats.RemoteLoads++
	}
	t.loadStreak++
	t.lastLine = ln.id
	ln.sharers.add(t.core)
	k.emit(Event{Time: t.now, Thread: t.id, Core: t.core, Kind: OpLoad, Addr: a, Cost: cost, Remote: remote,
		Seq: seq, BlockedBy: blockedBy, Block: block})
	t.now += cost
	return v.value
}

// Store writes a variable. Per the paper's write-invalidate model the
// writer pays a read-for-ownership invalidation of α·L per remote
// shared copy, plus the full layer latency when the line must first be
// fetched from a remote owner:
//
//	O_{W_L} = n·α·L   (already owner)
//	O_{W_R} = (1+n·α)·L  (remote owner)
//
// The store invalidates all other copies and wakes threads spinning on
// the line.
func (t *Thread) Store(a Addr, value uint64) {
	k := t.kernel
	vi := k.checkAddr(a)
	t.sync()
	t.loadStreak = 0
	seq := k.seq
	k.seq++
	ln := k.lines[k.vars[vi].line]
	start := t.now
	blockedBy, block := -1, ""
	if t.wakeSeq >= 0 {
		blockedBy, block = t.wakeSeq, "wake"
		t.wakeSeq = -1
	}
	if ln.writeFreeAt > start {
		start = ln.writeFreeAt
		blockedBy, block = ln.writeLastSeq, "line"
	}
	queued := start - t.now
	// The line is occupied for the exclusive-ownership transfer; the
	// trailing invalidation traffic overlaps the next writer's fetch.
	transfer := k.machine.Epsilon
	if ln.owner != -1 && ln.owner != t.core {
		transfer = k.machine.LatencyBetween(t.core, ln.owner)
	}
	cost, remote, netDelay, netPrev, communicated := t.applyStore(ln, start, seq)
	if netDelay > queued && netPrev >= 0 {
		blockedBy, block = netPrev, "net"
	}
	k.stats.Stores++
	if remote {
		k.stats.RemoteStores++
	}
	k.emit(Event{Time: t.now, Thread: t.id, Core: t.core, Kind: OpStore, Addr: a, Cost: queued + cost, Remote: communicated,
		QueueNs: queued + netDelay, Seq: seq, BlockedBy: blockedBy, Block: block})
	ln.writeFreeAt = start + transfer
	ln.writeLastSeq = seq
	t.now = start + cost
	k.vars[vi].value = value
	t.commitWrite(ln, seq)
}

// FetchAdd atomically adds delta to a variable and returns the previous
// value. Atomic read-modify-writes on one line serialize: each operation
// occupies the line until it completes, and each pays the machine's
// AtomicContention hot-spot penalty on top of the store cost — the
// behaviour that makes centralized counters scale linearly with thread
// count on the ARM machines.
func (t *Thread) FetchAdd(a Addr, delta uint64) uint64 {
	k := t.kernel
	vi := k.checkAddr(a)
	t.sync()
	t.loadStreak = 0
	seq := k.seq
	k.seq++
	ln := k.lines[k.vars[vi].line]
	start := t.now
	blockedBy, block := -1, ""
	if t.wakeSeq >= 0 {
		blockedBy, block = t.wakeSeq, "wake"
		t.wakeSeq = -1
	}
	if ln.writeFreeAt > start {
		start = ln.writeFreeAt
		blockedBy, block = ln.writeLastSeq, "line"
	}
	queued := start - t.now
	cost, remote, netDelay, netPrev, communicated := t.applyStore(ln, start, seq)
	if netDelay > queued && netPrev >= 0 {
		blockedBy, block = netPrev, "net"
	}
	// Uncontended atomics pay a small RMW premium; contended ones pay
	// the machine's hot-spot penalty (the network-controller contention
	// the paper blames for the centralized barrier's linear growth).
	if queued > 0 {
		cost += k.machine.AtomicContention
	} else {
		cost += 2 * k.machine.Epsilon
	}
	k.stats.Atomics++
	if remote {
		k.stats.RemoteStores++
	}
	k.emit(Event{Time: t.now, Thread: t.id, Core: t.core, Kind: OpAtomic, Addr: a, Cost: queued + cost, Remote: communicated,
		QueueNs: queued + netDelay, Seq: seq, BlockedBy: blockedBy, Block: block})
	t.now = start + cost
	ln.writeFreeAt = t.now
	ln.writeLastSeq = seq
	old := k.vars[vi].value
	k.vars[vi].value = old + delta
	t.commitWrite(ln, seq)
	return old
}

// applyStore computes the invalidation cost of taking exclusive
// ownership of a line and updates the directory. `at` is the
// operation's start time, used to reserve the interconnect when the
// store communicates. The caller adds the cost to the thread clock and
// updates the value.
func (t *Thread) applyStore(ln *line, at float64, seq int) (cost float64, remote bool, netDelay float64, netPrev int, communicated bool) {
	m := t.kernel.machine
	me := t.core
	// crossNs accumulates the cross-cluster portion of this store's
	// communication: only that part occupies the global interconnect
	// (intra-cluster snoops ride the cluster-local fabric).
	crossNs := 0.0
	invalCost := func() float64 {
		inval := 0.0
		ln.sharers.forEach(func(s int) {
			if s != me && s != ln.owner {
				d := m.Alpha * m.LatencyBetween(me, s)
				inval += d
				if !m.SameCluster(me, s) {
					crossNs += d
				}
			}
		})
		return inval
	}
	switch {
	case ln.owner == me:
		inval := invalCost()
		if inval == 0 {
			cost = m.Epsilon
		} else {
			cost = inval
			t.kernel.stats.InvalidationNs += inval
		}
	case ln.owner == -1:
		cost = m.Epsilon
	default:
		remote = true
		lat := m.LatencyBetween(me, ln.owner)
		// The owner's own copy is invalidated by the ownership fetch
		// itself; other sharers cost α·L each.
		inval := invalCost() + m.Alpha*lat
		if !m.SameCluster(me, ln.owner) {
			crossNs += (1 + m.Alpha) * lat
		}
		cost = lat + inval
		t.kernel.stats.InvalidationNs += inval
	}
	netPrev = -1
	if crossNs > 0 {
		netDelay, netPrev = t.kernel.reserveNetwork(at, crossNs, seq)
		cost += netDelay
	}
	// The event is "remote" whenever the store communicated beyond the
	// local cluster fabric: an ownership fetch or any cross-cluster
	// invalidation.
	communicated = remote || crossNs > 0
	ln.owner = me
	ln.sharers.clear()
	ln.sharers.add(me)
	ln.readsSinceWrite = 0
	return cost, remote, netDelay, netPrev, communicated
}

// commitWrite wakes all threads spinning on the line. Waiters resume no
// earlier than the write's commit time; their subsequent re-read pays
// the remote-read plus contention cost as usual.
func (t *Thread) commitWrite(ln *line, seq int) {
	if len(ln.waiters) == 0 {
		return
	}
	k := t.kernel
	commit := t.now
	for _, w := range ln.waiters {
		if w.now < commit {
			w.now = commit
		}
		w.state = stateRunnable
		w.wakeSeq = seq
		k.ready.push(w)
		k.stats.Wakeups++
		k.emit(Event{Time: commit, Thread: w.id, Core: w.core, Kind: OpWake, Cost: 0,
			Seq: -1, BlockedBy: seq, Block: "wake"})
	}
	ln.waiters = ln.waiters[:0]
}

// SpinUntil polls a variable until pred returns true, blocking between
// polls until some thread writes the variable's cacheline. It returns
// the value that satisfied pred. The first poll pays the usual load
// cost; re-polls after a wake pay the remote-read cost of pulling the
// freshly-invalidated line.
func (t *Thread) SpinUntil(a Addr, pred func(uint64) bool) uint64 {
	for {
		v := t.Load(a)
		if pred(v) {
			return v
		}
		t.wait(a)
	}
}

// SpinUntilEqual spins until the variable equals want.
func (t *Thread) SpinUntilEqual(a Addr, want uint64) {
	t.SpinUntil(a, func(v uint64) bool { return v == want })
}

// wait blocks the thread until the line holding a is written.
func (t *Thread) wait(a Addr) {
	t.loadStreak = 0
	k := t.kernel
	ln := k.lines[k.vars[k.checkAddr(a)].line]
	t.state = stateWaiting
	t.waitLine = ln.id
	ln.waiters = append(ln.waiters, t)
	t.suspend()
}
