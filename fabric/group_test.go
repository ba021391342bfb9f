package fabric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestGroupCreateLookup covers the registry contract: first-use
// creation, config-mismatch rejection, Lookup without creation.
func TestGroupCreateLookup(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	g, err := f.Group("a", GroupConfig{Participants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "a" || g.Participants() != 3 {
		t.Fatalf("group = %s/%d, want a/3", g.Name(), g.Participants())
	}
	if g2, err := f.Group("a", GroupConfig{Participants: 3}); err != nil || g2 != g {
		t.Fatalf("re-Group: got %p err %v, want same group", g2, err)
	}
	if _, err := f.Group("a", GroupConfig{Participants: 5}); err == nil {
		t.Fatal("participant mismatch accepted")
	}
	if _, err := f.Group("bad", GroupConfig{}); err == nil {
		t.Fatal("zero participants accepted")
	}
	if _, ok := f.Lookup("a"); !ok {
		t.Fatal("Lookup missed existing group")
	}
	if _, ok := f.Lookup("nope"); ok {
		t.Fatal("Lookup invented a group")
	}
	if n := f.Groups(); n != 1 {
		t.Fatalf("Groups() = %d, want 1", n)
	}
}

// TestConcurrentCreateOneWinner races creators of one name; everyone
// must end up with the same *Group.
func TestConcurrentCreateOneWinner(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	const n = 16
	got := make([]*Group, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			g, err := f.Group("contended", GroupConfig{Participants: 2})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("creator %d got a different group", i)
		}
	}
	if f.Groups() != 1 {
		t.Fatalf("Groups() = %d, want 1", f.Groups())
	}
}

// TestArriveAfterClose pins the close semantics: a partial round
// drains with ErrClosed, later arrivals fail fast, and a removed
// group's stale handle behaves the same.
func TestArriveAfterClose(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	ctx := context.Background()

	g, _ := f.Group("g", GroupConfig{Participants: 3})
	pending := g.Arrive(ctx) // partial round: 1 of 3
	g.Close()
	if o := recvOutcome(t, pending); !errors.Is(o.Err, ErrClosed) {
		t.Fatalf("pending arrival got %+v, want ErrClosed", o)
	}
	if o := recvOutcome(t, g.Arrive(ctx)); !errors.Is(o.Err, ErrClosed) {
		t.Fatalf("post-close arrival got %+v, want ErrClosed", o)
	}
	if !g.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	g.Close() // idempotent

	// Remove closes and unregisters; a stale handle keeps failing fast.
	g2, _ := f.Group("g2", GroupConfig{Participants: 2})
	if !f.Remove("g2") {
		t.Fatal("Remove missed g2")
	}
	if f.Remove("g2") {
		t.Fatal("second Remove claimed success")
	}
	if _, ok := f.Lookup("g2"); ok {
		t.Fatal("removed group still registered")
	}
	if o := recvOutcome(t, g2.Arrive(ctx)); !errors.Is(o.Err, ErrClosed) {
		t.Fatalf("stale handle got %+v, want ErrClosed", o)
	}
}

// TestSweepCollectsIdleGroups checks the GC half of the lifecycle:
// only groups that are idle past the cutoff — and not mid-round — are
// collected.
func TestSweepCollectsIdleGroups(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	ctx := context.Background()

	idle, _ := f.Group("idle", GroupConfig{Participants: 2})
	busy, _ := f.Group("busy", GroupConfig{Participants: 2})
	pending := busy.Arrive(ctx) // busy has a round in flight

	// Complete one round on idle so it has history, then let it sit.
	a, b := idle.Arrive(ctx), idle.Arrive(ctx)
	recvOutcome(t, a)
	recvOutcome(t, b)

	time.Sleep(20 * time.Millisecond)
	if n := f.Sweep(5 * time.Millisecond); n != 1 {
		t.Fatalf("Sweep = %d, want 1 (only idle)", n)
	}
	if _, ok := f.Lookup("idle"); ok {
		t.Fatal("idle group survived sweep")
	}
	if _, ok := f.Lookup("busy"); !ok {
		t.Fatal("busy group was swept mid-round")
	}
	// The swept group's stale handles fail fast; busy still works.
	if o := recvOutcome(t, idle.Arrive(ctx)); !errors.Is(o.Err, ErrClosed) {
		t.Fatalf("swept group arrival got %+v, want ErrClosed", o)
	}
	recvOutcome(t, busy.Arrive(ctx))
	if o := recvOutcome(t, pending); o.Err != nil {
		t.Fatalf("busy round got %+v, want success", o)
	}
}

// TestFabricCloseDrains closes a fabric with partial rounds in flight
// everywhere and checks every waiter gets an outcome.
func TestFabricCloseDrains(t *testing.T) {
	f := New(Config{})
	ctx := context.Background()
	var pending []<-chan Outcome
	for i := 0; i < 20; i++ {
		g, err := f.Group(fmt.Sprintf("g%d", i), GroupConfig{Participants: 4})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, g.Arrive(ctx), g.Arrive(ctx)) // 2 of 4
	}
	f.Close()
	for i, ch := range pending {
		if o := recvOutcome(t, ch); !errors.Is(o.Err, ErrClosed) {
			t.Fatalf("waiter %d got %+v, want ErrClosed", i, o)
		}
	}
	if f.Groups() != 0 {
		t.Fatalf("Groups() = %d after Close, want 0", f.Groups())
	}
}

// TestCloseLeaksNoGoroutine checks that no goroutine outlives Close:
// the wake-up pool's workers and the background watchdog both exit,
// including when Close has to drain a group left holding a partial
// round. The goroutine count is polled back to its baseline under a
// deadline, so a leak fails the test instead of hanging it.
func TestCloseLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	stalled := make(chan struct{}, 1)
	f := New(Config{
		Workers:       4,
		WakeBatch:     8, // the wide group's release re-queues chunks
		StallDeadline: 5 * time.Millisecond,
		OnStall: func(Stall) {
			select {
			case stalled <- struct{}{}:
			default:
			}
		},
	})
	ctx := context.Background()

	for i, p := range []int{1, 3, 40} {
		g, err := f.Group(fmt.Sprintf("g%d", i), GroupConfig{Participants: p})
		if err != nil {
			t.Fatal(err)
		}
		for r := uint64(0); r < 5; r++ {
			chs := make([]<-chan Outcome, p)
			for j := range chs {
				chs[j] = g.Arrive(ctx)
			}
			for j, ch := range chs {
				if o := recvOutcome(t, ch); o.Err != nil || o.Round != r {
					t.Fatalf("group %s arrival %d: got %+v, want round %d", g.Name(), j, o, r)
				}
			}
		}
	}
	held, err := f.Group("held", GroupConfig{Participants: 3})
	if err != nil {
		t.Fatal(err)
	}
	pending := []<-chan Outcome{held.Arrive(ctx), held.Arrive(ctx)} // 2 of 3
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never reported the held group")
	}

	f.Close()
	for i, ch := range pending {
		if o := recvOutcome(t, ch); !errors.Is(o.Err, ErrClosed) {
			t.Fatalf("held arrival %d got %+v, want ErrClosed", i, o)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogNamesMissing wedges a tracked group and checks the stall
// report: right group, right arithmetic, and the missing participant
// named.
func TestWatchdogNamesMissing(t *testing.T) {
	var fired []Stall
	var mu sync.Mutex
	f := New(Config{
		StallDeadline: 10 * time.Millisecond,
		OnStall: func(s Stall) {
			mu.Lock()
			fired = append(fired, s)
			mu.Unlock()
		},
	})
	defer f.Close()
	ctx := context.Background()

	g, err := f.Group("wedged", GroupConfig{Participants: 3, Track: true})
	if err != nil {
		t.Fatal(err)
	}
	healthy, _ := f.Group("healthy", GroupConfig{Participants: 1})

	// Participants 0 and 2 arrive; 1 never does.
	g.ArriveAs(ctx, 0)
	g.ArriveAs(ctx, 2)
	time.Sleep(20 * time.Millisecond)

	stalls := f.Check()
	if len(stalls) != 1 {
		t.Fatalf("Check reported %d stalls, want 1: %+v", len(stalls), stalls)
	}
	st := stalls[0]
	if st.Name != "wedged" || st.Round != 0 || st.Arrived != 2 || st.Participants != 3 {
		t.Fatalf("stall = %+v", st)
	}
	if len(st.Missing) != 1 || st.Missing[0] != 1 {
		t.Fatalf("missing = %v, want [1]", st.Missing)
	}
	if st.Age < 10*time.Millisecond {
		t.Fatalf("age = %v, want >= deadline", st.Age)
	}

	// The healthy group keeps completing while its sibling is wedged,
	// and is never reported.
	if o := recvOutcome(t, healthy.Arrive(ctx)); o.Err != nil {
		t.Fatalf("healthy group: %v", o.Err)
	}

	// Callback dedup: a second Check re-reports the stall but does not
	// re-fire OnStall for the same round.
	if again := f.Check(); len(again) != 1 {
		t.Fatalf("second Check = %d stalls, want 1", len(again))
	}
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("OnStall fired %d times, want 1", n)
	}

	// The missing participant arrives: the round completes and the
	// stall clears.
	g.ArriveAs(ctx, 1)
	deadline := time.Now().Add(5 * time.Second)
	for len(f.Check()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall never cleared after the straggler arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogBackground checks that a fabric with a StallDeadline
// polls for stalls on its own, from New until Close.
func TestWatchdogBackground(t *testing.T) {
	ch := make(chan Stall, 4)
	f := New(Config{
		StallDeadline: 5 * time.Millisecond,
		OnStall:       func(s Stall) { ch <- s },
	})
	defer f.Close()
	g, _ := f.Group("w", GroupConfig{Participants: 2})
	g.Arrive(context.Background())
	select {
	case st := <-ch:
		if st.Name != "w" {
			t.Fatalf("stall for %q, want w", st.Name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("background watchdog never fired")
	}
}
