package barrier

// Phaser: elastic membership. Every other barrier in this package is
// fixed-P at construction — the participant set is the type's
// invariant. A production worker pool is not: goroutines join and
// leave while rounds keep completing. Phaser is the sense-reversing
// barrier with dynamic Register / Deregister, built on the two ideas
// the fixed barriers already rely on, generalized:
//
//   - Per-party generation counters (the Beehive sync.c gen-distance
//     idiom): each party carries the epoch of the round it
//     participates in next. A party whose generation equals the
//     current epoch owes (or has made) an arrival for the in-flight
//     round; a party registering while a round is in flight is stamped
//     with the current epoch plus a pre-claimed arrival, so it waits
//     for the *next* epoch instead of corrupting this one.
//
//   - One packed state word. The round can only resolve correctly if
//     "how many have arrived" and "how many are registered" are read
//     and advanced together — a last arrival racing a deregistration
//     must see one consistent pair. Phaser packs
//
//     [ epoch:16 | active:24 | arrived:24 ]
//
//     into a single uint64 advanced only by CAS, so every transition
//     (arrive, resolve, register, deregister) moves epoch, membership
//     and arrival count atomically. The epoch wraps mod 2^16, which is
//     safe because generation distances are only ever 0 or 1: a party
//     of round g must arrive before round g+1 can resolve.
//
// Wake-up is the Central barrier's: a padded global sense flag storing
// the resolved epoch's parity, flipped by whichever party (or
// deregistration) completes the round, waited on with the configured
// WaitPolicy. The parity flag is ABA-safe for the same distance-≤1
// reason the epoch wrap is.
//
// Transitions, with e/a/n the unpacked epoch, arrived, active:
//
//	arrive (not last)        [e, a,   n] → [e,   a+1, n]
//	arrive (last, a+1 == n)  [e, a,   n] → [e+1, 0,   n]   + flip sense
//	register (idle, a == 0)  [e, 0,   n] → [e,   0,   n+1]  gen=e
//	register (mid-round)     [e, a,   n] → [e,   a+1, n+1]  gen=e, claim
//	deregister (claim held)  [e, a,   n] → [e,   a-1, n-1]
//	deregister (absorbing,
//	   a == n-1 > 0)         [e, a,   n] → [e+1, 0,   n-1]  + flip sense
//	deregister (otherwise)   [e, a,   n] → [e,   a,   n-1]
//
// The mid-round register pre-claims an arrival ("vicarious arrival"):
// the joiner is counted as arrived for the in-flight round, so the
// round resolves without it, and the joiner's first Wait simply waits
// out that round's resolution — it participates for real from the next
// epoch on. The absorbing deregister is the dual: when every remaining
// party has arrived and the leaver was the only hole, leaving IS the
// last arrival, and the leaver performs the resolution duties so the
// round cannot wedge.
//
// Phaser implements Barrier over a fixed slot capacity: Participants()
// reports the capacity (sizing for watchdogs, instrumentation and park
// slots), Registered() the live membership. Wait(id) may only be
// called by the party registered on slot id — use barrier.RunIDs or
// Party.Wait. Like every barrier here it supports all four wait
// policies, bounded waits (a timeout poisons the phaser: Register
// fails afterwards), spin/park counters, and flat phase probes.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"armbarrier/internal/pad"
)

// Membership is implemented by barriers whose participant set changes
// at runtime (Phaser). Fixed-P barriers do not implement it; wrappers
// (Watchdog, obs.Instrument) discover it by type assertion and make
// their reporting membership-aware — a deregistered slot must stop
// being named "Missing".
type Membership interface {
	// IsMember reports whether participant slot id currently holds a
	// registered party.
	IsMember(id int) bool
	// Registered returns the number of currently registered parties.
	Registered() int
}

// ErrPhaserFull is returned by Register when every slot up to the
// phaser's capacity holds a registered party.
var ErrPhaserFull = errors.New("barrier: phaser: capacity exhausted")

// ErrPhaserPoisoned is returned by Register after any bounded wait on
// the phaser timed out: membership of a poisoned barrier is not worth
// having. Build a fresh phaser instead.
var ErrPhaserPoisoned = errors.New("barrier: phaser: poisoned by an expired bounded wait")

// Packed-word layout: [ epoch:16 | active:24 | arrived:24 ].
const (
	phActiveShift = 24
	phEpochShift  = 48
	phCountMask   = 1<<24 - 1
	phEpochMask   = 1<<16 - 1
)

// maxPhaserCapacity keeps both 24-bit counts safe with slack to spare.
const maxPhaserCapacity = 1 << 20

// phPack builds the state word; counts are masked to their fields.
func phPack(epoch, arrived, active uint32) uint64 {
	return uint64(epoch&phEpochMask)<<phEpochShift |
		uint64(active&phCountMask)<<phActiveShift |
		uint64(arrived&phCountMask)
}

// phUnpack splits the state word.
func phUnpack(w uint64) (epoch, arrived, active uint32) {
	return uint32(w>>phEpochShift) & phEpochMask,
		uint32(w) & phCountMask,
		uint32(w>>phActiveShift) & phCountMask
}

// phaserParty is one slot's party state. gen and pending follow the
// deadline-slot discipline — only the owning party's goroutine touches
// them, between that party's own operations, so they need no atomics.
// registered is read by concurrent observers (IsMember, watchdogs).
type phaserParty struct {
	// gen is the free-running generation counter: the epoch (mod 2^16,
	// when masked) of the round this party participates in next.
	gen uint32
	// pending marks a mid-round joiner whose arrival for round gen was
	// pre-claimed at registration and not yet waited out.
	pending    bool
	registered atomic.Bool
}

// phaserSlot pads phaserParty so neighbouring parties never share a
// line (the shared internal/pad trailing-pad formula; layout tests
// assert the size).
type phaserSlot struct {
	phaserParty
	_ [pad.CacheLine - unsafe.Sizeof(phaserParty{})%pad.CacheLine]byte
}

// Phaser is the elastic sense-reversing barrier. Construct with
// NewPhaser; the zero value is not usable.
type Phaser struct {
	capacity int

	// state is the packed [epoch|active|arrived] word every transition
	// CASes; alone on its line like any central counter.
	state pad.Padded[atomic.Uint64]
	// sense holds the parity of the last resolved epoch — the global
	// wake-up flag, exactly Central's.
	sense paddedUint32

	// phase counts resolved rounds; regs/deregs count membership
	// changes. Reporting only — never part of the protocol.
	phase  pad.Padded[atomic.Uint64]
	regs   pad.Padded[atomic.Uint64]
	deregs pad.Padded[atomic.Uint64]

	poisoned atomic.Bool

	slots []phaserSlot

	// regMu serializes slot allocation (smallest free slot wins, so a
	// team registering k parties on a fresh phaser gets ids 0..k-1).
	// Register's membership transition is the lock-free CAS; Deregister
	// holds regMu across its CAS and the slot release, so a Register
	// that starts after the round the departure resolved or unblocked
	// sees the slot free.
	regMu sync.Mutex
	inUse []bool

	waitState
}

// Party is a registration handle: the party's slot id plus the
// Deregister capability. Each Party belongs to exactly one goroutine
// at a time, like a participant id of a fixed barrier.
type Party struct {
	ph *Phaser
	id int
}

// NewPhaser builds a phaser with room for capacity simultaneous
// parties and no parties registered. Capacity is fixed (it sizes the
// per-slot wait machinery); membership moves freely within it.
func NewPhaser(capacity int, opts ...Option) *Phaser {
	checkP(capacity, "phaser")
	if capacity > maxPhaserCapacity {
		panic(fmt.Sprintf("barrier: phaser: capacity %d exceeds %d", capacity, maxPhaserCapacity))
	}
	b := &Phaser{
		capacity: capacity,
		slots:    make([]phaserSlot, capacity),
		inUse:    make([]bool, capacity),
	}
	b.initWait(capacity, opts)
	return b
}

// Name implements Barrier.
func (b *Phaser) Name() string { return "phaser" }

// Participants implements Barrier: the slot capacity, not the live
// membership — wrappers size per-participant state from it. See
// Registered for the live count.
func (b *Phaser) Participants() int { return b.capacity }

// Registered implements Membership: the current registered-party
// count, read atomically from the packed state word.
func (b *Phaser) Registered() int {
	_, _, n := phUnpack(b.state.V.Load())
	return int(n)
}

// IsMember implements Membership.
func (b *Phaser) IsMember(id int) bool {
	if id < 0 || id >= b.capacity {
		return false
	}
	return b.slots[id].registered.Load()
}

// Phase returns the number of resolved rounds — the phaser's epoch as
// a free-running counter (the packed epoch is its low 16 bits).
func (b *Phaser) Phase() uint64 { return b.phase.V.Load() }

// MembershipCounts returns the cumulative Register and Deregister
// totals, for gauges and counters.
func (b *Phaser) MembershipCounts() (registers, deregisters uint64) {
	return b.regs.V.Load(), b.deregs.V.Load()
}

// Poisoned reports whether a bounded wait on this phaser has expired.
func (b *Phaser) Poisoned() bool { return b.poisoned.Load() }

// Register adds a party, returning its handle. The new party occupies
// the smallest free slot. If no round is in flight the party joins the
// current epoch and owes it an arrival; if a round is in flight the
// registration pre-claims an arrival for it (the round resolves
// without the newcomer) and the party participates from the next epoch
// on. Safe to call from any goroutine at any time.
func (b *Phaser) Register() (*Party, error) {
	id, err := b.join()
	if err != nil {
		return nil, err
	}
	b.admit(id)
	return &Party{ph: b, id: id}, nil
}

// join is Register's first half: it takes the smallest free slot and
// lands the membership CAS, stamping the slot's gen and pending.
func (b *Phaser) join() (int, error) {
	if b.poisoned.Load() {
		return -1, ErrPhaserPoisoned
	}
	b.regMu.Lock()
	id := -1
	for i, used := range b.inUse {
		if !used {
			id = i
			break
		}
	}
	if id < 0 {
		b.regMu.Unlock()
		return -1, fmt.Errorf("%w (capacity %d)", ErrPhaserFull, b.capacity)
	}
	b.inUse[id] = true
	b.regMu.Unlock()

	s := &b.slots[id]
	backoff := uint32(1)
	for {
		w := b.state.V.Load()
		e, a, n := phUnpack(w)
		if a == 0 {
			// No round in flight: join epoch e, owing it an arrival.
			if b.state.V.CompareAndSwap(w, phPack(e, 0, n+1)) {
				s.gen, s.pending = e, false
				break
			}
		} else {
			// Round e is in flight: claim an arrival for it so it can
			// resolve without us; we participate from e+1 on.
			if b.state.V.CompareAndSwap(w, phPack(e, a+1, n+1)) {
				s.gen, s.pending = e, true
				break
			}
		}
		pause(backoff)
		if backoff < spinYieldEvery {
			backoff <<= 1
		}
	}
	return id, nil
}

// admit is Register's second half: it publishes the joined slot as a
// member, once the party's first Wait cannot pass early.
//
// A round resolves in one CAS and publishes its release (the sense
// flip) just after. A party that joined an idle epoch e in between
// would find the flag still at the parity round e's waiters wait for,
// pass its first Wait at once and have its arrival counted in a round
// it did not wait out, so it waits for round e-1's release. It polls
// rather than parks: a departing resolver may have freed this very
// slot, and its wake-up skips its own slot. A mid-round joiner needs
// no wait: another party has already arrived at epoch e, which it can
// only do after round e-1's release. It must not wait either, because
// round e resolves without it and may flip the flag again before this
// runs; waiting for round e-1's parity would then outlast round e+1,
// which cannot resolve until this party arrives.
func (b *Phaser) admit(id int) {
	s := &b.slots[id]
	if !s.pending {
		spinUntilEq(&b.sense.v, s.gen&1, nil)
	}
	s.registered.Store(true)
	b.regs.V.Add(1)
}

// ID returns the party's slot id — its participant id for Wait,
// watchdog reports and instrumentation.
func (p *Party) ID() int { return p.id }

// Wait arrives at the party's phaser: p.ph.Wait(p.ID()).
func (p *Party) Wait() { p.ph.Wait(p.id) }

// WaitDeadline is the bounded Wait: p.ph.WaitDeadline(p.ID(), d).
func (p *Party) WaitDeadline(timeout time.Duration) error {
	return p.ph.WaitDeadline(p.id, timeout)
}

// Deregister removes the party. It may only be called between the
// party's own rounds — never while the party's Wait is in flight. If
// every remaining party has already arrived, deregistering completes
// the round: the leaver performs the resolution (the "absorbed without
// wedging" guarantee). If the party registered mid-round and never
// waited, its pre-claimed arrival is withdrawn with its membership.
// The slot is free for Register again before the round this departure
// resolves (or lets resolve) releases anyone; the handle is dead.
func (p *Party) Deregister() {
	b, id := p.ph, p.id
	s := &b.slots[id]
	if !s.registered.Load() {
		panic(fmt.Sprintf("barrier: phaser: Deregister of unregistered party %d", id))
	}
	g := s.gen
	claim := s.pending
	backoff := uint32(1)
	var resolveGen uint32
	resolved := false
	b.regMu.Lock()
	for {
		w := b.state.V.Load()
		e, a, n := phUnpack(w)
		switch {
		case claim && e == g&phEpochMask:
			// Our registration pre-claimed an arrival for the still
			// in-flight round g: withdraw claim and membership together.
			// a < n always holds mid-round, so a-1 == n-1 is impossible
			// and this can never be the resolving transition.
			if b.state.V.CompareAndSwap(w, phPack(e, a-1, n-1)) {
				goto done
			}
		case a > 0 && a == n-1:
			// Everyone else has arrived; our leaving completes round e.
			if b.state.V.CompareAndSwap(w, phPack(e+1, 0, n-1)) {
				resolved, resolveGen = true, e
				goto done
			}
		default:
			if b.state.V.CompareAndSwap(w, phPack(e, a, n-1)) {
				goto done
			}
		}
		pause(backoff)
		if backoff < spinYieldEvery {
			backoff <<= 1
		}
	}
done:
	s.pending = false
	s.registered.Store(false)
	b.inUse[id] = false
	b.regMu.Unlock()
	b.deregs.V.Add(1)
	if resolved {
		b.resolve(resolveGen, id)
	}
}

// Wait implements Barrier for the party registered on slot id: it
// blocks until every currently registered party of the round has
// arrived (or deregistered). It panics for an unregistered slot.
func (b *Phaser) Wait(id int) {
	checkID(id, b.capacity, "phaser")
	s := &b.slots[id]
	if !s.registered.Load() {
		panic(fmt.Sprintf("barrier: phaser: Wait by unregistered party %d", id))
	}
	g := s.gen
	if s.pending {
		// Mid-round joiner: registration already claimed this round's
		// arrival. Wait out round g's resolution; full participant from
		// g+1 on.
		s.pending = false
		b.phasePoint(id, PhaseArrival, 0)
		b.wait(id, &b.sense.v, (g+1)&1)
		b.phasePoint(id, PhaseWakeup, 0)
		s.gen = g + 1
		return
	}
	backoff := uint32(1)
	for {
		w := b.state.V.Load()
		e, a, n := phUnpack(w)
		_ = e // e == g&phEpochMask: an idle party's gen always matches the epoch
		if a+1 == n {
			// Last arrival: resolve round g against the registered count
			// read in the same word the arrival lands in.
			if b.state.V.CompareAndSwap(w, phPack(e+1, 0, n)) {
				b.phasePoint(id, PhaseArrival, 0)
				s.gen = g + 1
				b.resolve(g, id)
				b.phasePoint(id, PhaseWakeup, 0)
				return
			}
		} else {
			if b.state.V.CompareAndSwap(w, phPack(e, a+1, n)) {
				b.phasePoint(id, PhaseArrival, 0)
				b.wait(id, &b.sense.v, (g+1)&1)
				b.phasePoint(id, PhaseWakeup, 0)
				s.gen = g + 1
				return
			}
		}
		pause(backoff)
		if backoff < spinYieldEvery {
			backoff <<= 1
		}
	}
}

// resolve performs the round-completion duties after the resolving CAS
// already advanced the epoch: count the phase, flip the sense flag to
// round g's completion parity, wake parked waiters.
func (b *Phaser) resolve(g uint32, self int) {
	b.phase.V.Add(1)
	b.signalAll(&b.sense.v, (g+1)&1, self)
}

// WaitDeadline implements DeadlineWaiter. Like every bounded wait a
// timeout poisons the barrier; for a phaser that additionally means
// Register fails from then on (ErrPhaserPoisoned).
func (b *Phaser) WaitDeadline(id int, timeout time.Duration) error {
	err := b.runDeadline(b, id, timeout)
	if err != nil {
		b.poisoned.Store(true)
	}
	return err
}

// PhaseShape implements PhaseProber: one flat arrival mark and one
// wake-up mark per episode — the phaser has no tree levels.
func (b *Phaser) PhaseShape() (arrival, wakeup int) { return 1, 1 }

var (
	_ Barrier        = (*Phaser)(nil)
	_ DeadlineWaiter = (*Phaser)(nil)
	_ Membership     = (*Phaser)(nil)
	_ SpinCounter    = (*Phaser)(nil)
	_ ParkCounter    = (*Phaser)(nil)
	_ PhaseProber    = (*Phaser)(nil)
)
