package fabric

// The async arrival protocol. The classic way to expose a barrier to a
// server is a goroutine per waiter parked on the barrier — which is
// exactly the per-waiter cost the fabric exists to avoid. Here the
// group's entire arrival state is ONE atomic pointer: a Treiber stack
// of completion nodes that doubles as the round's arrival counter.
//
// Each node records the cumulative arrival count n of its round
// (node.n = next.n + 1, bottom of the stack has n = 1). An arrival
// reads the head h and either
//
//   - pushes {n: h.n+1, next: h} with one CAS (not the last arriver), or
//   - CASes head from h to nil (h.n+1 == P: it IS the last arriver) —
//     detaching the complete round's waiter list in the same atomic step
//     that ends the round. The stack therefore never holds nodes from
//     two rounds, there is no separate counter to race against, and the
//     next round starts from an empty stack.
//
// The detaching arriver (the publisher) hands the list to the fabric's
// worker pool, which delivers Outcome{Round} to each waiter's buffered
// channel in WakeBatch-sized chunks — batched wake-ups instead of P-1
// individual goroutine wakeups on the publisher's critical path, with
// the chunking bounding how long any one group's release can occupy a
// worker. ABA cannot occur: nodes are heap-allocated per arrival and
// unreachable after delivery, so a recycled head value would require
// the GC to be wrong.
//
// Close swaps the head to a permanent sentinel node; arrivals that see
// the sentinel fail fast with ErrClosed, and the swapped-out partial
// round is drained with ErrClosed outcomes. The swap uses the same
// word as arrival CASes, so close/arrive races resolve atomically.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"armbarrier/internal/liveness"
	"armbarrier/internal/pad"
)

// ErrClosed is returned in an Outcome when the group was closed before
// (or while) the round could complete.
var ErrClosed = errors.New("fabric: group closed")

// Outcome is the result of one arrival, delivered on the channel
// returned by Arrive once the group's round completes.
type Outcome struct {
	// Round is the completed round's index (0-based), valid when Err is
	// nil.
	Round uint64
	// Err is non-nil if the arrival could not complete a round:
	// ErrClosed, a context error at entry, or ArriveAs's out-of-range
	// participant error.
	Err error
}

// waiter is one arrival's completion node on the group's arrival stack.
type waiter struct {
	ch chan Outcome
	// n is the cumulative arrival count of this waiter's round at the
	// moment it was pushed; the node with n == roundP-1 under a new
	// arrival makes that arrival the publisher.
	n uint32
	// roundP is the round size latched by the round's first arrival and
	// copied down the chain: an elastic resize changes only rounds that
	// have not yet begun, so an in-flight round always resolves at the
	// size its waiters signed up for. Fixed groups stamp their constant P.
	roundP uint32
	// arriveNs is this arrival's timestamp, stamped only on sampled
	// rounds (0 otherwise) so unsampled rounds pay no clock read.
	arriveNs int64
	next     *waiter
}

// closedNode is the permanent sentinel installed by Close; its identity
// (not its contents) marks the group closed.
var closedNode = &waiter{}

// groupHot is the group's single-word arrival state, alone on its
// cacheline: the Treiber stack head / generation counter.
type groupHot struct {
	head atomic.Pointer[waiter]
}

// groupMeta is the publisher/observer state: written once per round or
// read by the watchdog, so it lives on its own line away from the
// arrival word.
type groupMeta struct {
	// rounds counts completed rounds; the publisher increments it.
	rounds atomic.Uint64
	// firstNs is the in-flight round's first-arrival timestamp, stored
	// before the first arrival's CAS publishes the node, so a watchdog
	// that sees a non-empty stack sees a fresh stamp.
	firstNs atomic.Int64
	// lastNs is the last arrival or completion, for Sweep idleness.
	lastNs atomic.Int64
	// stalls fires OnStall once per stalled round.
	stalls liveness.Dedup
}

// Group is one named barrier group. All methods are safe for
// concurrent use; the zero value is not usable — obtain groups from
// Fabric.Group.
type Group struct {
	name string
	p    int
	fab  *Fabric

	// elastic marks a group whose round size follows membership; want is
	// the target size the NEXT round's first arrival will latch. Fixed
	// groups keep want pinned to p so the arrival path is uniform.
	elastic bool
	want    atomic.Int32

	hot  pad.Padded[groupHot]
	meta pad.Padded[groupMeta]

	// st carries the sampled telemetry rollups; nil when disabled.
	st *groupStats
	// tracked is the optional per-participant cumulative arrival count
	// (Track), read by the watchdog to name missing participants.
	tracked liveness.Gens

	closed atomic.Bool
}

func (f *Fabric) newGroup(name string, cfg GroupConfig) *Group {
	g := &Group{name: name, p: cfg.Participants, fab: f, elastic: cfg.Elastic}
	g.want.Store(int32(cfg.Participants))
	if f.cfg.SampleEvery > 0 {
		g.st = newGroupStats(uint64(f.cfg.SampleEvery))
	}
	if cfg.Track {
		g.tracked = make(liveness.Gens, cfg.Participants)
	}
	g.meta.V.lastNs.Store(f.monons())
	return g
}

// Name returns the group's registry name.
func (g *Group) Name() string { return g.name }

// Participants returns the group's round size P: fixed at creation for
// ordinary groups, the current target for elastic groups (an in-flight
// round may still be running at a previously latched size).
func (g *Group) Participants() int { return int(g.want.Load()) }

// Elastic reports whether the group's round size can change.
func (g *Group) Elastic() bool { return g.elastic }

// Resize sets an elastic group's round size. The change applies to the
// next round's first arrival; a round already in flight completes at
// the size it latched, so a shrink never strands waiters and a grow
// never extends a rendezvous that is already assembling. Fixed groups
// return an error.
func (g *Group) Resize(p int) error {
	if !g.elastic {
		return fmt.Errorf("fabric: group %q is fixed at %d participants", g.name, g.p)
	}
	if p < 1 {
		return fmt.Errorf("fabric: group %q: resize to %d < 1", g.name, p)
	}
	g.want.Store(int32(p))
	return nil
}

// Rounds returns how many rounds have completed.
func (g *Group) Rounds() uint64 { return g.meta.V.rounds.Load() }

// Arrive registers one arrival at the group's current round and
// returns immediately; the buffered channel receives exactly one
// Outcome when the round completes (or the group closes). No goroutine
// is parked on the caller's behalf — the arrival is one CAS on the
// group's arrival stack. The arrival is irrevocable: a non-nil
// ctx.Err() at entry short-circuits, but once registered the caller is
// counted whether or not it waits for the outcome (abandoning the
// channel is safe; it is buffered).
func (g *Group) Arrive(ctx context.Context) <-chan Outcome {
	ch := make(chan Outcome, 1)
	if err := ctx.Err(); err != nil {
		ch <- Outcome{Err: err}
		return ch
	}
	g.arrive(ch, -1)
	return ch
}

// ArriveAs is Arrive for identity-tracked groups: id (0 <= id < P)
// attributes the arrival, so a stalled round's watchdog report can name
// the participants that never showed. On untracked groups it behaves
// exactly like Arrive.
func (g *Group) ArriveAs(ctx context.Context, id int) <-chan Outcome {
	ch := make(chan Outcome, 1)
	if id < 0 || id >= g.p {
		ch <- Outcome{Err: errors.New("fabric: ArriveAs participant out of range")}
		return ch
	}
	if err := ctx.Err(); err != nil {
		ch <- Outcome{Err: err}
		return ch
	}
	g.arrive(ch, id)
	return ch
}

// Join is the synchronous convenience: Arrive and wait for the
// outcome, abandoning the wait (not the arrival — arrivals are
// irrevocable) if ctx is done first.
func (g *Group) Join(ctx context.Context) (uint64, error) {
	select {
	case o := <-g.Arrive(ctx):
		return o.Round, o.Err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// arrive runs the async arrival protocol described in the file header.
func (g *Group) arrive(ch chan Outcome, id int) {
	w := &waiter{ch: ch}
	var casFails uint32
	for {
		h := g.hot.V.head.Load()
		if h == closedNode {
			ch <- Outcome{Err: ErrClosed}
			return
		}
		n, roundP := uint32(1), uint32(g.want.Load())
		if h != nil {
			n, roundP = h.n+1, h.roundP
		} else {
			// Candidate first arrival of a round: stamp the round start
			// (watchdog age) and arm/disarm sampling before the CAS
			// publishes the node.
			now := g.fab.monons()
			g.meta.V.firstNs.Store(now)
			g.meta.V.lastNs.Store(now)
			if g.st != nil {
				g.st.arm(g.meta.V.rounds.Load())
			}
		}
		if n == roundP {
			// Last arrival: detach the whole round instead of pushing.
			if g.hot.V.head.CompareAndSwap(h, nil) {
				g.publish(h, ch, id)
				return
			}
		} else {
			w.n, w.roundP, w.next = n, roundP, h
			w.arriveNs = 0
			if g.st != nil && g.st.sampling() {
				w.arriveNs = g.fab.monons()
			}
			if g.hot.V.head.CompareAndSwap(h, w) {
				g.countArrival(id)
				return
			}
		}
		// CAS lost to a concurrent arrival (or close); back off a touch
		// before rereading so a stampede converges.
		casFails++
		spinWait(casFails)
	}
}

// publish completes a round: the detaching arriver assigns the round
// number, delivers its own outcome inline, and hands the rest of the
// waiter list to the wake-up pool.
func (g *Group) publish(chain *waiter, ch chan Outcome, id int) {
	round := g.meta.V.rounds.Add(1) - 1
	g.countArrival(id)
	sampled := false
	if g.st != nil && g.st.sampling() {
		sampled = true
		now := g.fab.monons()
		g.meta.V.lastNs.Store(now)
		g.st.roundSampled(now - g.meta.V.firstNs.Load())
	} else {
		g.meta.V.lastNs.Store(g.fab.monons())
	}
	ch <- Outcome{Round: round}
	if chain != nil {
		g.fab.enqueueWake(wakeTask{g: g, chain: chain, round: round, sampled: sampled})
	}
}

// countArrival bumps the per-participant cumulative counter for tracked
// identities.
func (g *Group) countArrival(id int) {
	if id >= 0 && g.tracked != nil {
		g.tracked.Add(id)
	}
}

// Close marks the group closed and drains the partial round (if any)
// with ErrClosed outcomes. Idempotent; concurrent with arrivals.
// A directly closed group that is still registered is a corpse: Arrive
// on it fails fast, and the next Fabric.Group call for the name
// replaces it with a fresh group rather than returning it.
func (g *Group) Close() {
	if g.closed.Swap(true) {
		return
	}
	h := g.hot.V.head.Swap(closedNode)
	for w := h; w != nil && w != closedNode; w = w.next {
		w.ch <- Outcome{Err: ErrClosed}
	}
}

// Closed reports whether Close has run.
func (g *Group) Closed() bool { return g.closed.Load() }

// tryCloseIdle closes the group iff it is provably idle: one CAS of
// the empty arrival stack to the closed sentinel, called with the
// shard write lock held so close-and-delete is a single step relative
// to Group and Lookup. An arrival that lands between the sweep's
// idleness check and the CAS makes the CAS fail and the group survives
// the cycle — a swept arrival can therefore only ever observe the
// sentinel (ErrClosed), never vanish into a detached stack.
func (g *Group) tryCloseIdle(cutoffNs int64) bool {
	if g.meta.V.lastNs.Load() >= cutoffNs {
		return false
	}
	if !g.hot.V.head.CompareAndSwap(nil, closedNode) {
		// Non-empty (a round is in flight) or already closed by someone
		// else; either way this sweep must leave it alone.
		return false
	}
	g.closed.Store(true)
	return true
}

// inflight returns the current round's arrival count (lock-free: the
// stack head's cumulative n) — 0 when the stack is empty or closed.
func (g *Group) inflight() int {
	h := g.hot.V.head.Load()
	if h == nil || h == closedNode {
		return 0
	}
	return int(h.n)
}

// spinWait is a tiny CPU-relax ladder for arrival-CAS retries; capped
// so a loser never leaves the runnable state for long.
func spinWait(n uint32) {
	if n > 8 {
		n = 8
	}
	for i := uint32(0); i < n<<2; i++ {
		spinHint()
	}
}

var spinSink uint32

// spinHint approximates a CPU pause without an assembly dependency: a
// volatile-ish store the compiler must keep.
func spinHint() { atomic.StoreUint32(&spinSink, 0) }
