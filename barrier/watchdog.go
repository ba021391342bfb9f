package barrier

import (
	"fmt"
	"sync/atomic"
	"time"

	"armbarrier/internal/liveness"
)

// Watchdog wraps a Barrier and detects stuck episodes: each Wait stamps
// the participant's arrival, and a checker (Check, or the background
// poller Start runs) compares the oldest in-progress wait against a
// deadline. When an episode stalls the watchdog reports *which*
// participants are inside the barrier waiting (Waiting) and which never
// arrived (Missing) — the wedged-team diagnosis the bare algorithms
// cannot give, since a spin barrier's waiters only ever see a flag that
// stays wrong.
//
// What it can and cannot detect: a stall with non-empty Missing means
// those participants never reached Wait this episode — a panicked or
// stuck body, the common case. A stall where every participant is
// waiting (Missing empty) means arrival completed but wake-up did not:
// a lost-wakeup bug in the wrapped barrier itself. The watchdog cannot
// attribute a stall to a participant that is merely slow; its Deadline
// must exceed the longest legitimate inter-barrier work time, or
// healthy episodes will be reported. Stamping costs two atomic stores
// and one add per Wait on the participant's own padded line; wrap only
// the barriers you want supervised.
type Watchdog struct {
	inner Barrier
	cfg   WatchdogConfig
	// gens holds each participant's entry stamp (the start of its
	// in-progress Wait) and its completed-episode count.
	gens liveness.Gens
	// mem, when the barrier chain has elastic membership (Phaser),
	// restricts Missing to registered slots.
	mem Membership

	// dedup fires OnStall once per stuck round and counts stalls; stalled is the last Check's verdict;
	// last is the most recent distinct stall, never modified once stored.
	dedup   liveness.Dedup
	stalled atomic.Bool
	last    atomic.Pointer[Stall]

	poll *liveness.Poller
}

// WatchdogConfig configures a Watchdog.
type WatchdogConfig struct {
	// Deadline is how long an episode may stay incomplete after its
	// first arrival before the watchdog reports a stall. Required; it
	// must exceed the longest legitimate gap between the first and last
	// participant's arrivals (inter-barrier work time included). The
	// background checker (Start) polls every Deadline/4, floored at 1ms.
	Deadline time.Duration
	// OnStall, if non-nil, is called once per distinct stall, from
	// whichever goroutine ran the detecting Check. It must not call
	// Wait on the watched barrier.
	OnStall func(Stall)
}

// Stall describes one stuck episode. A Watchdog reports the oldest
// waiter's Round and Age, the participants inside Wait as Waiting and
// the members that are not as Missing.
type Stall = liveness.Stall

// NewWatchdog wraps b. It panics if cfg.Deadline is not positive.
func NewWatchdog(b Barrier, cfg WatchdogConfig) *Watchdog {
	if cfg.Deadline <= 0 {
		panic("barrier: Watchdog needs a positive Deadline")
	}
	d := &Watchdog{
		inner: b,
		cfg:   cfg,
		gens:  make(liveness.Gens, b.Participants()),
	}
	d.mem, _ = Unwrap[Membership](b)
	d.poll = liveness.NewPoller(liveness.Period(cfg.Deadline), func() { d.Check() })
	return d
}

// Name implements Barrier.
func (d *Watchdog) Name() string { return d.inner.Name() }

// Participants implements Barrier.
func (d *Watchdog) Participants() int { return d.inner.Participants() }

// Inner returns the wrapped barrier.
func (d *Watchdog) Inner() Barrier { return d.inner }

// Wait implements Barrier, stamping the participant's arrival so a
// concurrent Check can attribute a stall.
func (d *Watchdog) Wait(id int) {
	checkID(id, len(d.gens), d.inner.Name())
	d.gens.Enter(id, monons())
	d.inner.Wait(id)
	d.gens.Enter(id, 0)
	d.gens.Add(id)
}

// WaitDeadline implements DeadlineWaiter by forwarding to the wrapped
// barrier, which must itself implement it.
func (d *Watchdog) WaitDeadline(id int, timeout time.Duration) error {
	dw, ok := d.inner.(DeadlineWaiter)
	if !ok {
		return fmt.Errorf("barrier: %s does not implement DeadlineWaiter", d.inner.Name())
	}
	checkID(id, len(d.gens), d.inner.Name())
	d.gens.Enter(id, monons())
	err := dw.WaitDeadline(id, timeout)
	d.gens.Enter(id, 0)
	if err == nil {
		d.gens.Add(id)
	}
	return err
}

// Check inspects the arrival stamps and reports whether the current
// episode has stalled: some participant has been waiting at least
// Deadline. Safe to call from any goroutine, any number of times; the
// background checker is just Check once per poll period. OnStall fires
// only the first time a given stall is seen.
func (d *Watchdog) Check() (Stall, bool) {
	now := monons()
	st := Stall{Name: d.inner.Name()}
	oldest := int64(0)
	for i := range d.gens {
		if e := d.gens.Entered(i); e != 0 {
			st.Waiting = append(st.Waiting, i)
			if oldest == 0 || e < oldest {
				oldest, st.Round = e, d.gens.Count(i)
			}
		} else if d.mem == nil || d.mem.IsMember(i) {
			st.Missing = append(st.Missing, i)
		}
	}
	if oldest == 0 || time.Duration(now-oldest) < d.cfg.Deadline {
		d.stalled.Store(false)
		return Stall{}, false
	}
	st.Age = time.Duration(now - oldest)
	st.Arrived = len(st.Waiting)
	st.Participants = len(st.Waiting) + len(st.Missing)
	d.stalled.Store(true)
	if d.dedup.Fresh(st.Round) {
		d.last.Store(&st)
		if d.cfg.OnStall != nil {
			d.cfg.OnStall(st)
		}
	}
	return st, true
}

// Waiting returns the participants currently blocked inside Wait,
// ascending. Unlike Check it applies no deadline — it is the live
// arrival picture, for callers (omp.Team.CloseWithin) attributing their
// own timeouts.
func (d *Watchdog) Waiting() []int {
	var ids []int
	for i := range d.gens {
		if d.gens.Entered(i) != 0 {
			ids = append(ids, i)
		}
	}
	return ids
}

// Start launches the background checker, polling Check every
// max(Deadline/4, 1ms); a no-op while it runs, a restart after Stop.
func (d *Watchdog) Start() { d.poll.Start() }

// Stop ends the background checker and waits for it to exit. A no-op
// when it is not running.
func (d *Watchdog) Stop() { d.poll.Stop() }

// WatchdogSnapshot is a point-in-time view of the watchdog's state,
// consumable by the obs exporters.
type WatchdogSnapshot struct {
	Barrier      string `json:"barrier"`
	Participants int    `json:"participants"`
	// DeadlineNs is the configured stall deadline.
	DeadlineNs int64 `json:"deadline_ns"`
	// Stalls counts distinct stalls detected so far.
	Stalls uint64 `json:"stalls"`
	// Stalled is true when the most recent Check saw a stall.
	Stalled bool `json:"stalled"`
	// Rounds is each participant's completed-episode count.
	Rounds []uint64 `json:"rounds"`
	// WaitingNs is each participant's current in-progress wait age in
	// nanoseconds, 0 when not waiting.
	WaitingNs []int64 `json:"waiting_ns"`
	// LastStall is the most recent distinct stall, nil if none yet;
	// shared with the watchdog, so read-only.
	LastStall *Stall `json:"last_stall,omitempty"`
}

// Snapshot captures the watchdog's state. Safe to call concurrently
// with Waits and Checks.
func (d *Watchdog) Snapshot() WatchdogSnapshot {
	now := monons()
	s := WatchdogSnapshot{
		Barrier:      d.inner.Name(),
		Participants: len(d.gens),
		DeadlineNs:   int64(d.cfg.Deadline),
		Stalls:       d.dedup.Count(),
		Stalled:      d.stalled.Load(),
		Rounds:       make([]uint64, len(d.gens)),
		WaitingNs:    make([]int64, len(d.gens)),
		LastStall:    d.last.Load(),
	}
	for i := range d.gens {
		s.Rounds[i] = d.gens.Count(i)
		if e := d.gens.Entered(i); e != 0 {
			s.WaitingNs[i] = now - e
		}
	}
	return s
}

var (
	_ Barrier        = (*Watchdog)(nil)
	_ DeadlineWaiter = (*Watchdog)(nil)
)
