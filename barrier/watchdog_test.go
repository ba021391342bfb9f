package barrier

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWatchdogCleanRoundsNoStall(t *testing.T) {
	const p, rounds = 4, 200
	var stalls atomic.Uint32
	d := NewWatchdog(NewCentral(p), WatchdogConfig{
		Deadline: 10 * time.Second,
		OnStall:  func(Stall) { stalls.Add(1) },
	})
	d.Start()
	defer d.Stop()
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d.Wait(id)
			}
		}(id)
	}
	wg.Wait()
	if _, stalled := d.Check(); stalled {
		t.Error("Check reported a stall on a healthy barrier")
	}
	if n := stalls.Load(); n != 0 {
		t.Errorf("OnStall fired %d times on a healthy barrier", n)
	}
	s := d.Snapshot()
	for id, r := range s.Rounds {
		if r != rounds {
			t.Errorf("participant %d rounds = %d, want %d", id, r, rounds)
		}
	}
	if s.Stalled || s.Stalls != 0 || s.LastStall != nil {
		t.Errorf("snapshot records a stall on a healthy barrier: %+v", s)
	}
}

func TestWatchdogNamesMissingParticipant(t *testing.T) {
	const p = 3
	var onStall atomic.Uint32
	d := NewWatchdog(NewCentral(p), WatchdogConfig{
		Deadline: 20 * time.Millisecond,
		OnStall:  func(Stall) { onStall.Add(1) },
	})
	var wg sync.WaitGroup
	errs := make([]error, p)
	for _, id := range []int{0, 1} { // participant 2 never arrives
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = d.WaitDeadline(id, 5*time.Second)
		}(id)
	}

	var st Stall
	deadline := time.Now().Add(2 * time.Second)
	for {
		var stalled bool
		// The stall must eventually report exactly {0,1} waiting and {2}
		// missing; early polls may catch 0 or 1 before they arrive.
		if st, stalled = d.Check(); stalled && len(st.Waiting) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never reported the full stall; last: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if len(st.Missing) != 1 || st.Missing[0] != 2 {
		t.Errorf("Missing = %v, want [2]", st.Missing)
	}
	if len(st.Waiting) != 2 || st.Waiting[0] != 0 || st.Waiting[1] != 1 {
		t.Errorf("Waiting = %v, want [0 1]", st.Waiting)
	}
	if !strings.Contains(st.String(), "missing [2]") {
		t.Errorf("Stall.String() = %q, want the missing id named", st)
	}

	// The same stall must not re-fire OnStall or re-count.
	d.Check()
	d.Check()
	if n := onStall.Load(); n != 1 {
		t.Errorf("OnStall fired %d times for one stall", n)
	}
	if s := d.Snapshot(); s.Stalls != 1 || !s.Stalled || s.LastStall == nil {
		t.Errorf("snapshot = %+v, want one recorded stall", s)
	}

	// Late arrival completes the episode and clears the stall.
	if err := d.WaitDeadline(2, 5*time.Second); err != nil {
		t.Fatalf("late arrival: %v", err)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Errorf("participant %d: %v", id, err)
		}
	}
	if _, stalled := d.Check(); stalled {
		t.Error("stall persists after the episode completed")
	}
}

// TestWatchdogOneStallPerRound: participants that give up on a stuck
// round one by one change who the oldest waiter is, not which stall it
// is — OnStall must fire once for the round.
func TestWatchdogOneStallPerRound(t *testing.T) {
	var fired atomic.Uint32
	d := NewWatchdog(NewCentral(3), WatchdogConfig{
		Deadline: 5 * time.Millisecond,
		OnStall:  func(Stall) { fired.Add(1) },
	})
	done := make(chan error, 2)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Participant 0 enters first and gives up first; 2 keeps waiting; 1
	// never arrives.
	go func() { done <- d.WaitDeadline(0, 50*time.Millisecond) }()
	waitFor("participant 0 to wait", func() bool { return len(d.Waiting()) == 1 })
	go func() { done <- d.WaitDeadline(2, 500*time.Millisecond) }()
	waitFor("the stall with 0 and 2 waiting", func() bool {
		st, stalled := d.Check()
		return stalled && len(st.Waiting) == 2
	})
	if err := <-done; err == nil {
		t.Fatal("participant 0 did not time out")
	}
	st, stalled := d.Check()
	if !stalled || len(st.Waiting) != 1 || st.Waiting[0] != 2 || st.Round != 0 {
		t.Fatalf("after 0 gave up: stalled=%v %+v, want round 0 with only 2 waiting", stalled, st)
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("OnStall fired %d times for one stuck round", n)
	}
	if s := d.Snapshot(); s.Stalls != 1 {
		t.Errorf("Snapshot().Stalls = %d, want 1", s.Stalls)
	}
	if err := <-done; err == nil {
		t.Error("participant 2 finished a round participant 1 never joined")
	}
}

func TestWatchdogBackgroundChecker(t *testing.T) {
	stallCh := make(chan Stall, 1)
	d := NewWatchdog(NewCentral(2), WatchdogConfig{
		Deadline: 10 * time.Millisecond,
		OnStall: func(s Stall) {
			select {
			case stallCh <- s:
			default:
			}
		},
	})
	d.Start()
	defer d.Stop()
	done := make(chan error, 1)
	go func() { done <- d.WaitDeadline(0, 5*time.Second) }()

	select {
	case st := <-stallCh:
		if len(st.Missing) != 1 || st.Missing[0] != 1 {
			t.Errorf("Missing = %v, want [1]", st.Missing)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("background checker never reported the stall")
	}
	d.Wait(1)
	if err := <-done; err != nil {
		t.Errorf("episode after late arrival: %v", err)
	}
}

func TestWatchdogSnapshotJSON(t *testing.T) {
	d := NewWatchdog(NewCentral(2), WatchdogConfig{Deadline: time.Second})
	out, err := json.Marshal(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"barrier", "participants", "deadline_ns", "rounds", "waiting_ns"} {
		if !strings.Contains(string(out), key) {
			t.Errorf("snapshot JSON missing %q: %s", key, out)
		}
	}
}

// plainBarrier deliberately lacks WaitDeadline.
type plainBarrier struct{ p int }

func (b plainBarrier) Wait(int)          {}
func (b plainBarrier) Participants() int { return b.p }
func (b plainBarrier) Name() string      { return "plain" }

func TestWatchdogConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero Deadline accepted")
		}
	}()
	NewWatchdog(NewCentral(2), WatchdogConfig{})
}

func TestWatchdogWaitDeadlineNeedsDeadlineWaiter(t *testing.T) {
	d := NewWatchdog(plainBarrier{p: 2}, WatchdogConfig{Deadline: time.Second})
	if err := d.WaitDeadline(0, time.Second); err == nil {
		t.Error("WaitDeadline on a non-DeadlineWaiter inner barrier returned nil")
	}
}

// TestWatchdogDelegation: the watchdog reports its barrier's identity,
// and the barrier's spin and park counters stay reachable through it.
func TestWatchdogDelegation(t *testing.T) {
	d := NewWatchdog(NewCentral(2, WithWaitPolicy(SpinParkWait())), WatchdogConfig{Deadline: time.Second})
	sc, ok := Unwrap[SpinCounter](d)
	if !ok {
		t.Fatal("no SpinCounter behind the watchdog")
	}
	sc.EnableSpinCounts()
	if s, y := sc.SpinCounts(0); s != 0 || y != 0 {
		t.Errorf("fresh SpinCounts = %d, %d", s, y)
	}
	pc, ok := Unwrap[ParkCounter](d)
	if !ok {
		t.Fatal("no ParkCounter behind the watchdog")
	}
	if pk, wk := pc.ParkCounts(0); pk != 0 || wk != 0 {
		t.Errorf("fresh ParkCounts = %d, %d", pk, wk)
	}
	if d.Name() != "central" || d.Participants() != 2 || d.Inner().Name() != "central" {
		t.Error("delegation identity mismatch")
	}
}

// TestUnwrap walks decorator chains: each wrapper is found by its own
// type, each capability on the barrier that owns it, and a capability
// nobody in the chain has reports false.
func TestUnwrap(t *testing.T) {
	ph := NewPhaser(4)
	wd := NewWatchdog(ph, WatchdogConfig{Deadline: time.Second})
	outer := NewWatchdog(wd, WatchdogConfig{Deadline: time.Second})
	if got, ok := Unwrap[*Watchdog](outer); !ok || got != outer {
		t.Errorf("Unwrap[*Watchdog] = %p, %v; want the outermost watchdog", got, ok)
	}
	if got, ok := Unwrap[Membership](outer); !ok || got != Membership(ph) {
		t.Errorf("Unwrap[Membership] = %v, %v; want the phaser", got, ok)
	}
	if got, ok := Unwrap[ParkCounter](outer); !ok || got != ParkCounter(ph) {
		t.Errorf("Unwrap[ParkCounter] = %v, %v; want the phaser", got, ok)
	}
	if _, ok := Unwrap[Membership](NewWatchdog(NewCentral(2), WatchdogConfig{Deadline: time.Second})); ok {
		t.Error("Unwrap found Membership on a fixed barrier's chain")
	}
	if _, ok := Unwrap[Collective](plainBarrier{p: 2}); ok {
		t.Error("Unwrap found a capability on a barrier without Inner or the method set")
	}
	if wd.Name() != "phaser" || wd.Participants() != 4 || wd.Inner() != Barrier(ph) {
		t.Errorf("watchdog identity %q/%d/%v, want the phaser's", wd.Name(), wd.Participants(), wd.Inner())
	}
}

// waitGoroutines waits for the goroutine count to fall back to base,
// failing with a dump of every goroutine if it does not within 5s.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogStopLeaksNoGoroutine starts the background checker twice
// before one Stop: the second Start must not launch a second checker
// that Stop then strands.
func TestWatchdogStopLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	d := NewWatchdog(NewCentral(2), WatchdogConfig{Deadline: 4 * time.Millisecond})
	d.Start()
	d.Start()
	d.Stop()
	waitGoroutines(t, base)
	d.Start() // restartable after Stop
	d.Stop()
	d.Stop()
	waitGoroutines(t, base)
}
