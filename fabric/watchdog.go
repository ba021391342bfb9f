package fabric

// Stall detection across the whole registry. One stuck participant
// wedges its group forever — the fabric's job is to make sure it
// wedges *only* its group: detection is a read-only scan (lock-free
// arrival counts off the groups' own state, shard locks held just long
// enough to copy the group list), so a stalled group never blocks its
// shard's siblings from creating, looking up, or completing rounds.
// The faultinject wedge-matrix test pins exactly that property.

import (
	"time"

	"armbarrier/internal/liveness"
)

// Stall describes one group whose in-flight round has been open (since
// its first arrival) longer than the fabric's StallDeadline. Missing is
// set only for identity-tracked groups whose callers use ArriveAs;
// Waiting is always nil.
type Stall = liveness.Stall

// Check scans every group once and returns the groups newly or still
// stalled past the configured StallDeadline (nil deadline disables the
// scan). The OnStall callback fires only on the first detection of a
// given (group, round); the returned slice reports every currently
// stalled group on every call, so a poller always sees the full
// picture. A fabric with a StallDeadline runs Check in the background
// every StallDeadline/4 (at least 1ms) from New until Close.
func (f *Fabric) Check() []Stall {
	dl := int64(f.cfg.StallDeadline)
	if dl <= 0 {
		return nil
	}
	now := f.monons()
	var stalls []Stall
	f.eachGroup(func(g *Group) {
		if st, ok := g.checkStall(now, dl); ok {
			stalls = append(stalls, st)
			if g.meta.V.stalls.Fresh(st.Round) && f.cfg.OnStall != nil {
				f.cfg.OnStall(st)
			}
		}
	})
	return stalls
}

// checkStall evaluates one group's in-flight round against the
// deadline, entirely from lock-free reads.
func (g *Group) checkStall(now, deadlineNs int64) (Stall, bool) {
	// Read the head once: the in-flight round's count AND its latched
	// size come from the same node, so an elastic resize between reads
	// cannot make a healthy round look short-handed.
	arrived, target := 0, g.p
	if h := g.hot.V.head.Load(); h != nil && h != closedNode {
		arrived, target = int(h.n), int(h.roundP)
	}
	if arrived == 0 || arrived >= target || g.closed.Load() {
		return Stall{}, false
	}
	first := g.meta.V.firstNs.Load()
	if first == 0 || now-first < deadlineNs {
		return Stall{}, false
	}
	round := g.meta.V.rounds.Load()
	return Stall{
		Name:         g.name,
		Round:        round,
		Arrived:      arrived,
		Participants: target,
		Age:          time.Duration(now - first),
		Missing:      g.tracked.Missing(round, nil),
	}, true
}
