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
)

// Stall describes one group whose in-flight round has been incomplete
// for longer than the fabric's StallDeadline.
type Stall struct {
	// Group is the stalled group's registry name.
	Group string
	// Round is the round index that cannot complete.
	Round uint64
	// Arrived and Participants are the round's arrival count and P.
	Arrived, Participants int
	// Age is how long the round has been open (since first arrival).
	Age time.Duration
	// Missing names the participants that have not arrived this round —
	// only for identity-tracked groups whose callers use ArriveAs; nil
	// otherwise.
	Missing []int
}

// Check scans every group once and returns the groups newly or still
// stalled past the configured StallDeadline (nil deadline disables the
// scan). The OnStall callback fires only on the first detection of a
// given (group, round); the returned slice reports every currently
// stalled group on every call, so a poller always sees the full
// picture.
func (f *Fabric) Check() []Stall {
	dl := int64(f.cfg.StallDeadline)
	if dl <= 0 {
		return nil
	}
	now := f.monons()
	var stalls []Stall
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		groups := make([]*Group, 0, len(s.groups))
		for _, g := range s.groups {
			groups = append(groups, g)
		}
		s.mu.RUnlock()
		for _, g := range groups {
			if st, ok := g.checkStall(now, dl); ok {
				stalls = append(stalls, st)
				// Dedup the callback by round: stallMark holds 1+round
				// of the last reported stall.
				if f.cfg.OnStall != nil && g.meta.V.stallMark.Swap(st.Round+1) != st.Round+1 {
					f.cfg.OnStall(st)
				}
			}
		}
	}
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
	st := Stall{
		Group:        g.name,
		Round:        g.meta.V.rounds.Load(),
		Arrived:      arrived,
		Participants: target,
		Age:          time.Duration(now - first),
	}
	if g.arrived != nil {
		// A participant is missing if its cumulative arrival count still
		// equals the completed-round count — it never arrived this round.
		done := st.Round
		for id := range g.arrived {
			if g.arrived[id].Load() <= done {
				st.Missing = append(st.Missing, id)
			}
		}
	}
	return st, true
}

// StartWatchdog runs Check every interval on a background goroutine
// until StopWatchdog or Fabric.Close. Results flow through the OnStall
// callback. No-op if a watchdog is already running or the deadline is
// unset.
func (f *Fabric) StartWatchdog(interval time.Duration) {
	if f.cfg.StallDeadline <= 0 || interval <= 0 {
		return
	}
	f.pubMu.Lock()
	if f.closed || f.wdStop != nil {
		f.pubMu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	f.wdStop, f.wdDone = stop, done
	f.pubMu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				f.Check()
			}
		}
	}()
}

// StopWatchdog stops the background watchdog, if running, and waits
// for it to exit.
func (f *Fabric) StopWatchdog() {
	f.pubMu.Lock()
	stop, done := f.wdStop, f.wdDone
	f.wdStop, f.wdDone = nil, nil
	f.pubMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
