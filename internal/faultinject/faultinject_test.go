package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"armbarrier/barrier"
)

func TestParseFault(t *testing.T) {
	cases := map[string]Fault{
		"2@5:stall":      {ID: 2, Round: 5, Kind: Stall},
		"0@0:delay:3ms":  {ID: 0, Round: 0, Kind: Delay, Delay: 3 * time.Millisecond},
		"1@9:drop":       {ID: 1, Round: 9, Kind: Drop},
		"3@1:panic":      {ID: 3, Round: 1, Kind: Panic},
		"7@2:stall:50ms": {ID: 7, Round: 2, Kind: Stall, Delay: 50 * time.Millisecond},
	}
	for spec, want := range cases {
		got, err := ParseFault(spec)
		if err != nil || got != want {
			t.Errorf("ParseFault(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
		if rt, err := ParseFault(got.String()); err != nil || rt != want {
			t.Errorf("round trip of %q via %q = %+v, %v", spec, got, rt, err)
		}
	}
	for _, bad := range []string{"", "x", "1@2", "1@2:nap", "1@2:delay", "-1@0:stall", "a@0:stall"} {
		if f, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted: %+v", bad, f)
		}
	}
	fs, err := ParseFaults("2@5:stall, 0@0:delay:3ms")
	if err != nil || len(fs) != 2 {
		t.Errorf("ParseFaults list = %v, %v", fs, err)
	}
	if fs, err := ParseFaults(""); err != nil || fs != nil {
		t.Errorf("ParseFaults(\"\") = %v, %v", fs, err)
	}
}

func TestWrapValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("out-of-range id", func() {
		Wrap(barrier.NewCentral(2), Fault{ID: 2, Kind: Stall})
	})
	mustPanic("duplicate fault", func() {
		Wrap(barrier.NewCentral(2), Fault{ID: 1, Round: 3, Kind: Stall}, Fault{ID: 1, Round: 3, Kind: Drop})
	})
}

// TestDelayFaultArrivesLate: the episode still completes, just later.
func TestDelayFaultArrivesLate(t *testing.T) {
	const p = 3
	in := Wrap(barrier.NewCentral(p), Fault{ID: 1, Round: 1, Kind: Delay, Delay: 30 * time.Millisecond})
	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			in.Wait(id)
			in.Wait(id)
		}(id)
	}
	wg.Wait()
	if e := time.Since(start); e < 30*time.Millisecond {
		t.Errorf("two episodes with a 30ms delay fault took only %v", e)
	}
	if in.Injected() != 1 {
		t.Errorf("Injected = %d, want 1", in.Injected())
	}
}

// TestStallFaultReleased: the stalled participant holds the episode
// until Release, then everyone completes.
func TestStallFaultReleased(t *testing.T) {
	const p = 2
	in := Wrap(barrier.NewCentral(p), Fault{ID: 1, Round: 0, Kind: Stall})
	done := make(chan error, p)
	for id := 0; id < p; id++ {
		go func(id int) { done <- in.WaitDeadline(id, 10*time.Second) }(id)
	}
	select {
	case err := <-done:
		t.Fatalf("episode completed while participant 1 was stalled: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	in.Release()
	for i := 0; i < p; i++ {
		if err := <-done; err != nil {
			t.Errorf("post-release episode: %v", err)
		}
	}
}

// TestStallSelfRelease: a stall with a duration un-wedges by itself.
func TestStallSelfRelease(t *testing.T) {
	const p = 2
	in := Wrap(barrier.NewCentral(p), Fault{ID: 0, Round: 0, Kind: Stall, Delay: 20 * time.Millisecond})
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			in.Wait(id)
		}(id)
	}
	wg.Wait() // completing at all is the assertion
}

// TestDropFaultTimesOutPeers: the dropped participant never arrives, so
// a peer's bounded wait expires; after Release the dropper returns nil
// without having arrived.
func TestDropFaultTimesOutPeers(t *testing.T) {
	const p = 2
	in := Wrap(barrier.NewCentral(p), Fault{ID: 1, Round: 0, Kind: Drop})
	peer := make(chan error, 1)
	go func() { peer <- in.WaitDeadline(0, 50*time.Millisecond) }()
	err := <-peer
	if !errors.Is(err, barrier.ErrWaitTimeout) {
		t.Fatalf("peer of a dropped participant got %v, want a timeout", err)
	}
	in.Release()
	if err := in.WaitDeadline(1, time.Second); err != nil {
		t.Errorf("released dropper returned %v, want nil (it skips the episode)", err)
	}
}

// TestPanicFault: the injected panic carries participant and round.
func TestPanicFault(t *testing.T) {
	in := Wrap(barrier.NewCentral(1), Fault{ID: 0, Round: 0, Kind: Panic})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "participant 0 round 0") {
			t.Errorf("injected panic = %v", r)
		}
	}()
	in.Wait(0)
}

// TestWaitDeadlineBudgetCoversStall: the stall consumes the caller's
// budget and the injector reports the timeout itself.
func TestWaitDeadlineBudgetCoversStall(t *testing.T) {
	in := Wrap(barrier.NewCentral(2), Fault{ID: 0, Round: 0, Kind: Stall})
	var te *barrier.TimeoutError
	err := in.WaitDeadline(0, 30*time.Millisecond)
	if !errors.As(err, &te) || te.ID != 0 {
		t.Fatalf("stalled bounded wait = %v, want *TimeoutError for participant 0", err)
	}
	if !strings.Contains(te.Barrier, "+fault") {
		t.Errorf("timeout names %q, want the injector", te.Barrier)
	}
}

func TestInjectorDelegation(t *testing.T) {
	b := barrier.NewCentral(2, barrier.WithWaitPolicy(barrier.SpinParkWait()))
	in := Wrap(b)
	if in.Name() != "central+fault" || in.Participants() != 2 || in.Inner() != barrier.Barrier(b) {
		t.Error("delegation identity mismatch")
	}
	in.Release()
	in.Release() // idempotent
}
