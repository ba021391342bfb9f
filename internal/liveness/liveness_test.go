package liveness

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"armbarrier/internal/pad"
)

func TestGenLineSize(t *testing.T) {
	if got := unsafe.Sizeof(gen{}); got != pad.CacheLine {
		t.Fatalf("gen is %d bytes, want one %d-byte line", got, pad.CacheLine)
	}
}

func TestGensMissing(t *testing.T) {
	g := make(Gens, 5)
	// Round 0: 0, 2 and 4 arrived; round 1: only 2.
	for _, id := range []int{0, 2, 4, 2} {
		g.Add(id)
	}
	if got, want := g.Missing(0, nil), []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Missing(0) = %v, want %v", got, want)
	}
	if got, want := g.Missing(1, nil), []int{0, 1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("Missing(1) = %v, want %v", got, want)
	}
	odd := func(id int) bool { return id%2 == 1 }
	if got, want := g.Missing(1, odd), []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Missing(1, odd) = %v, want %v", got, want)
	}
	g.Store(1, 2) // a late joiner starts level with round 2
	if got, want := g.Missing(1, odd), []int{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Store, Missing(1, odd) = %v, want %v", got, want)
	}
	if got := g.Count(2); got != 2 {
		t.Errorf("Count(2) = %d, want 2", got)
	}
	if got := Gens(nil).Missing(0, nil); got != nil {
		t.Errorf("nil Gens Missing = %v, want nil", got)
	}
}

func TestGensEntered(t *testing.T) {
	g := make(Gens, 2)
	g.Enter(1, 42)
	if g.Entered(0) != 0 || g.Entered(1) != 42 {
		t.Fatalf("Entered = %d, %d; want 0, 42", g.Entered(0), g.Entered(1))
	}
	g.Enter(1, 0)
	if g.Entered(1) != 0 {
		t.Fatal("Enter(1, 0) did not clear the stamp")
	}
}

func TestDedup(t *testing.T) {
	var d Dedup
	for i, c := range []struct {
		round uint64
		fresh bool
	}{{0, true}, {0, false}, {0, false}, {9, true}, {7, true}, {7, false}} {
		if got := d.Fresh(c.round); got != c.fresh {
			t.Errorf("call %d: Fresh(%d) = %v, want %v", i, c.round, got, c.fresh)
		}
	}
	if got := d.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
}

func TestPeriod(t *testing.T) {
	for _, c := range []struct{ deadline, want time.Duration }{
		{2 * time.Second, 500 * time.Millisecond},
		{8 * time.Millisecond, 2 * time.Millisecond},
		{4 * time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
		{time.Nanosecond, time.Millisecond},
	} {
		if got := Period(c.deadline); got != c.want {
			t.Errorf("Period(%v) = %v, want %v", c.deadline, got, c.want)
		}
	}
}

func TestStallString(t *testing.T) {
	for _, c := range []struct {
		st   Stall
		want []string
		not  string
	}{
		{Stall{Name: "central", Round: 3, Age: 20 * time.Millisecond, Arrived: 2, Participants: 3, Waiting: []int{0, 1}, Missing: []int{2}},
			[]string{"central stalled", "round 3", "2/3 arrived", "waiting [0 1]", "missing [2]"}, "lost wakeup"},
		{Stall{Name: "central", Arrived: 3, Participants: 3, Waiting: []int{0, 1, 2}},
			[]string{"3/3 arrived", "lost wakeup"}, "missing"},
		{Stall{Name: "g", Arrived: 1, Participants: 2},
			[]string{"g stalled", "1/2 arrived"}, "waiting"},
	} {
		s := c.st.String()
		for _, w := range c.want {
			if !strings.Contains(s, w) {
				t.Errorf("%q lacks %q", s, w)
			}
		}
		if strings.Contains(s, c.not) {
			t.Errorf("%q contains %q", s, c.not)
		}
	}
}

// TestPollerStartStop checks that the poller calls check while running,
// that Start and Stop are idempotent, and that no goroutine outlives
// Stop, even after a double Start.
func TestPollerStartStop(t *testing.T) {
	base := runtime.NumGoroutine()
	var calls atomic.Int64
	p := NewPoller(time.Millisecond, func() { calls.Add(1) })
	p.Stop() // never started
	p.Start()
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("poller never called check")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	p.Stop()
	stopped := calls.Load()
	time.Sleep(5 * time.Millisecond)
	if got := calls.Load(); got != stopped {
		t.Errorf("check ran %d times after Stop", got-stopped)
	}
	p.Start() // restartable
	p.Stop()
	waitGoroutines(t, base)
}

// TestPollerStopInterruptsSleep checks that Stop ends a poller in the
// middle of a long period instead of waiting the period out.
func TestPollerStopInterruptsSleep(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPoller(time.Hour, func() { t.Error("check ran before its period") })
	p.Start()
	time.Sleep(10 * time.Millisecond) // let the goroutine fall asleep
	stopped := make(chan struct{})
	go func() {
		p.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop waited for the poller's hour-long period")
	}
	waitGoroutines(t, base)
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

// TestPollerConcurrentStartStop races Start and Stop from several
// goroutines; run under -race it checks the poller's own locking.
func TestPollerConcurrentStartStop(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPoller(time.Millisecond, func() {})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.Start()
				p.Stop()
			}
		}()
	}
	wg.Wait()
	p.Stop()
	waitGoroutines(t, base)
}
