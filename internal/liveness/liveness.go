// Package liveness is the one stall detector behind barrier.Watchdog,
// the fabric's group watchdog and omp's stuck-worker report. Following
// the paper's split of an episode into arrival and notification, a
// stall either has participants that never arrived (Missing) or has
// every participant arrived and a wake-up lost. The package owns the
// pieces every detector needs: per-participant arrival counts and
// entry stamps (Gens), the report (Stall), once-per-stall reporting
// (Dedup) and the background checker (Poller).
package liveness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"armbarrier/internal/pad"
)

// gen is one participant's line, written only by that participant: its
// cumulative arrival count and, for detectors that stamp waits, the
// monotonic time its in-progress wait began (0 = not waiting).
type gen struct {
	n       atomic.Uint64
	entered atomic.Int64
	_       [pad.CacheLine - 16]byte
}

// Gens holds one padded liveness line per participant. A nil Gens
// tracks nobody: Missing returns nil.
type Gens []gen

// Add counts one arrival of participant id: one atomic add, own line.
func (g Gens) Add(id int) { g[id].n.Add(1) }

// Store sets participant id's arrival count (a late joiner's start).
func (g Gens) Store(id int, n uint64) { g[id].n.Store(n) }

// Count returns participant id's arrival count.
func (g Gens) Count(id int) uint64 { return g[id].n.Load() }

// Enter stamps participant id as waiting since ns; 0 means not waiting.
func (g Gens) Enter(id int, ns int64) { g[id].entered.Store(ns) }

// Entered returns participant id's Enter stamp.
func (g Gens) Entered(id int) int64 { return g[id].entered.Load() }

// Missing returns, ascending, the participants with at most round
// arrivals — those that have not arrived at round (0-based) — among
// the ids member accepts (all of them when member is nil).
func (g Gens) Missing(round uint64, member func(id int) bool) []int {
	var ids []int
	for id := range g {
		if g[id].n.Load() <= round && (member == nil || member(id)) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Stall describes one stuck episode: the barrier's or group's Name, the
// Round (0-based) that cannot complete, how long it had been stuck
// (Age), its arrival count and size, and — ascending, nil when the
// detector cannot name them — the participants Waiting and Missing.
// Arrived == Participants means arrival completed but wake-up did not:
// a lost wakeup.
type Stall struct {
	Name         string        `json:"name"`
	Round        uint64        `json:"round"`
	Age          time.Duration `json:"age_ns"`
	Arrived      int           `json:"arrived"`
	Participants int           `json:"participants"`
	Waiting      []int         `json:"waiting"`
	Missing      []int         `json:"missing"`
}

// String formats the stall the way a log line wants it.
func (s Stall) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s stalled: round %d stuck for %v, %d/%d arrived",
		s.Name, s.Round, s.Age.Round(time.Millisecond), s.Arrived, s.Participants)
	if s.Waiting != nil {
		fmt.Fprintf(&b, "; waiting %v", s.Waiting)
	}
	if len(s.Missing) > 0 {
		fmt.Fprintf(&b, "; missing %v", s.Missing)
	} else if s.Arrived >= s.Participants {
		b.WriteString("; all participants waiting (lost wakeup?)")
	}
	return b.String()
}

// Dedup reports each stall once. A stall is identified by its stuck
// round: while the round stays stuck, participants that give up or
// wake first change who is oldest or missing, not which stall it is.
type Dedup struct {
	last atomic.Uint64 // 1 + the last round seen; 0 before any
	n    atomic.Uint64
}

// Fresh reports, and counts, a round that differs from the last one
// seen.
func (d *Dedup) Fresh(round uint64) bool {
	if d.last.Swap(round+1) == round+1 {
		return false
	}
	d.n.Add(1)
	return true
}

// Count returns how many distinct stalls Fresh has reported.
func (d *Dedup) Count() uint64 { return d.n.Load() }

// Period is the poll period for a stall deadline, max(deadline/4, 1ms):
// a stall is reported at most a quarter of its deadline late.
func Period(deadline time.Duration) time.Duration {
	return max(deadline/4, time.Millisecond)
}

// Poller runs check on one background goroutine, once per period,
// between Start and Stop. The goroutine sleeps through a sleeper
// rather than a time.Ticker, so on Linux a running poller arms no
// runtime timer (see sleep_linux.go).
type Poller struct {
	period time.Duration
	check  func()

	mu    sync.Mutex // serializes Start and Stop
	sleep *sleeper
	done  chan struct{}
}

// NewPoller returns a stopped poller.
func NewPoller(period time.Duration, check func()) *Poller {
	return &Poller{period: period, check: check}
}

// Start launches the goroutine. A no-op while it is already running;
// Start after Stop starts it again.
func (p *Poller) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sleep != nil {
		return
	}
	sl, done := newSleeper(), make(chan struct{})
	p.sleep, p.done = sl, done
	go func() {
		defer close(done)
		for sl.sleep(p.period) {
			p.check()
		}
	}()
}

// Stop ends the goroutine and waits for it to exit. A no-op when it
// is not running.
func (p *Poller) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sleep != nil {
		p.sleep.stop()
		<-p.done
		p.sleep, p.done = nil, nil
	}
}
