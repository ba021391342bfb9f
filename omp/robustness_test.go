package omp

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"armbarrier/barrier"
	"armbarrier/internal/faultinject"
	"armbarrier/internal/liveness"
)

// robustnessPolicies is the wait-policy sweep the panic-regression
// tests run under: the join completion after a recovered panic must
// work whichever discipline the surviving participants wait with.
func robustnessPolicies() map[string]barrier.WaitPolicy {
	return map[string]barrier.WaitPolicy{
		"spin":      barrier.SpinWait(),
		"spinyield": barrier.SpinYieldWait(),
		"spinpark":  barrier.SpinParkWait(),
		"adaptive":  barrier.AdaptiveWait(),
	}
}

// mustPanicWith runs f and returns the *barrier.PanicError it panics
// with, failing the test on no panic or a different panic type.
func mustPanicWith(t *testing.T, f func()) *barrier.PanicError {
	t.Helper()
	var pe *barrier.PanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic propagated to the master")
			}
			var ok bool
			if pe, ok = r.(*barrier.PanicError); !ok {
				t.Fatalf("master panic type %T (%v), want *barrier.PanicError", r, r)
			}
		}()
		f()
	}()
	return pe
}

// checkTeamUsable runs a full post-failure workload: a Parallel region,
// a worksharing loop and both reduction paths must still work and the
// team must still Close.
func checkTeamUsable(t *testing.T, team *Team) {
	t.Helper()
	var ran atomic.Int64
	team.Parallel(func(tid int) { ran.Add(1) })
	if got := ran.Load(); got != int64(team.Size()) {
		t.Errorf("post-panic Parallel ran on %d of %d members", got, team.Size())
	}
	if got := team.ReduceInt64(100, 0, func(i int) int64 { return int64(i) }); got != 4950 {
		t.Errorf("post-panic ReduceInt64 = %d, want 4950", got)
	}
	done := make(chan struct{})
	go func() {
		team.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a team that should be healthy")
	}
}

// TestWorkerPanicDoesNotWedgeTeam is the regression test for the wedge
// this PR fixes: before, a panicking worker body killed the process and
// a panicking master body left the workers blocked at the join barrier
// forever. Now the first panic is re-raised on the master, attributed,
// and the team stays usable under every wait policy.
func TestWorkerPanicDoesNotWedgeTeam(t *testing.T) {
	for pname, pol := range robustnessPolicies() {
		t.Run(pname, func(t *testing.T) {
			t.Parallel()
			team := MustTeam(4, barrier.New(4, barrier.WithWaitPolicy(pol)))
			pe := mustPanicWith(t, func() {
				team.Parallel(func(tid int) {
					if tid == 2 {
						panic("worker boom")
					}
				})
			})
			if pe.ID != 2 || pe.Value != "worker boom" || pe.Goexit {
				t.Errorf("PanicError = %+v, want ID 2, value \"worker boom\"", pe)
			}
			if !strings.Contains(pe.Error(), "participant 2") {
				t.Errorf("Error() = %q, want the participant named", pe.Error())
			}
			checkTeamUsable(t, team)
		})
	}
}

func TestMasterPanicDoesNotWedgeTeam(t *testing.T) {
	for pname, pol := range robustnessPolicies() {
		t.Run(pname, func(t *testing.T) {
			t.Parallel()
			team := MustTeam(4, barrier.New(4, barrier.WithWaitPolicy(pol)))
			pe := mustPanicWith(t, func() {
				team.For(8, func(i, tid int) {
					if tid == 0 {
						panic(errors.New("master boom"))
					}
				})
			})
			if pe.ID != 0 {
				t.Errorf("PanicError.ID = %d, want 0 (master)", pe.ID)
			}
			if !errors.Is(pe, pe.Unwrap()) || pe.Unwrap().Error() != "master boom" {
				t.Errorf("Unwrap() = %v, want the original error", pe.Unwrap())
			}
			checkTeamUsable(t, team)
		})
	}
}

// TestWorkerGoexitRespawns covers runtime.Goexit in a worker body (what
// a stray FailNow from a test helper does): the join still completes,
// the master is told, and a replacement worker keeps the team staffed.
func TestWorkerGoexitRespawns(t *testing.T) {
	team := MustTeam(3, barrier.New(3))
	pe := mustPanicWith(t, func() {
		team.Parallel(func(tid int) {
			if tid == 1 {
				runtime.Goexit()
			}
		})
	})
	if pe.ID != 1 || !pe.Goexit || pe.Value != nil {
		t.Errorf("PanicError = %+v, want Goexit by participant 1", pe)
	}
	checkTeamUsable(t, team)
}

// TestFusedReducePanic panics inside the reduction input of a fused
// (collective-join) region: the dying participant still owes the
// episode an arrival, which a stand-in plain Wait provides, so the
// peers' collective completes and the master re-raises instead of
// returning a garbage sum.
func TestFusedReducePanic(t *testing.T) {
	team := MustTeam(4, barrier.New(4)) // optimized barrier: Collective
	if team.col == nil {
		t.Fatal("test premise: the optimized barrier should support fused collectives")
	}
	pe := mustPanicWith(t, func() {
		team.ReduceFloat64(64, 0, func(i int) float64 {
			if i == 40 { // lands in a worker's block
				panic("bad input")
			}
			return 1
		})
	})
	if pe.Value != "bad input" || pe.ID == 0 {
		t.Errorf("PanicError = %+v, want \"bad input\" on a worker", pe)
	}
	if got := team.ReduceFloat64(64, 0, func(i int) float64 { return 1 }); got != 64 {
		t.Errorf("post-panic fused reduce = %v, want 64", got)
	}
	checkTeamUsable(t, team)
}

// TestEveryParticipantPanics: the master reports the first record and
// the team survives even a total loss of the region.
func TestEveryParticipantPanics(t *testing.T) {
	team := MustTeam(4, barrier.New(4))
	pe := mustPanicWith(t, func() {
		team.Parallel(func(tid int) { panic(tid) })
	})
	if pe.Value == nil {
		t.Errorf("PanicError = %+v, want some participant's value", pe)
	}
	checkTeamUsable(t, team)
}

func TestCloseWithinHealthyTeam(t *testing.T) {
	team := MustTeam(4, barrier.New(4))
	team.Parallel(func(tid int) {})
	if err := team.CloseWithin(10 * time.Second); err != nil {
		t.Fatalf("CloseWithin on a healthy team: %v", err)
	}
	if err := team.CloseWithin(time.Second); err != nil {
		t.Errorf("second CloseWithin: %v", err)
	}
}

// TestCloseWithinWedgedTeam builds the wedge state directly — a team
// whose workers are gone, which is what a pre-fix panic left behind —
// and checks CloseWithin returns naming the absent workers instead of
// deadlocking like Close.
func TestCloseWithinWedgedTeam(t *testing.T) {
	t.Run("progress", func(t *testing.T) {
		wedged := &Team{b: barrier.NewCentral(3), p: 3}
		wedged.progress = make(liveness.Gens, 3)
		wedged.fusedDone = make([]fusedFlag, 3)
		wedged.regions = 1 // one region forked, no worker ever joined
		err := wedged.CloseWithin(50 * time.Millisecond)
		if err == nil {
			t.Fatal("CloseWithin returned nil on a wedged team")
		}
		if !errors.Is(err, barrier.ErrWaitTimeout) {
			t.Errorf("error %v does not wrap ErrWaitTimeout", err)
		}
		if !strings.Contains(err.Error(), "[1 2]") {
			t.Errorf("error %q does not name stuck participants [1 2]", err)
		}
	})
	t.Run("watchdog", func(t *testing.T) {
		// With a Watchdog barrier the arrival stamps attribute the wedge
		// even when the progress counters cannot (regions == 0).
		wd := barrier.NewWatchdog(barrier.NewCentral(3), barrier.WatchdogConfig{
			Deadline: 10 * time.Millisecond,
		})
		wedged := &Team{b: wd, p: 3}
		wedged.progress = make(liveness.Gens, 3)
		wedged.fusedDone = make([]fusedFlag, 3)
		err := wedged.CloseWithin(50 * time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "[1 2]") {
			t.Errorf("error %v does not name stuck participants [1 2]", err)
		}
	})
	t.Run("watchdog under fault injector", func(t *testing.T) {
		// The watchdog's arrival stamps are found through the
		// injector's Inner link, not only when the watchdog is the
		// team's barrier itself.
		wd := barrier.NewWatchdog(barrier.NewCentral(3), barrier.WatchdogConfig{
			Deadline: 10 * time.Millisecond,
		})
		wedged := &Team{b: faultinject.Wrap(wd), p: 3}
		wedged.progress = make(liveness.Gens, 3)
		wedged.fusedDone = make([]fusedFlag, 3)
		err := wedged.CloseWithin(50 * time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "[1 2]") {
			t.Errorf("error %v does not name stuck participants [1 2]", err)
		}
	})
}

// TestTeamCloseLeaksNoGoroutine closes a fixed team, an elastic team that
// grew and shrank, and a team whose worker Goexited and was replaced:
// every worker goroutine must be gone afterwards.
func TestTeamCloseLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	fixed := MustTeam(4, barrier.New(4))
	fixed.For(100, func(i, tid int) {})
	fixed.Close()

	elastic, err := NewElasticTeam(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{4, 3, 1, 2} {
		if err := elastic.Resize(q); err != nil {
			t.Fatalf("Resize(%d): %v", q, err)
		}
		elastic.Parallel(func(tid int) {})
	}
	elastic.Close()

	respawned := MustTeam(3, barrier.New(3))
	func() {
		defer func() { _ = recover() }()
		respawned.Parallel(func(tid int) {
			if tid == 2 {
				runtime.Goexit()
			}
		})
	}()
	respawned.Parallel(func(tid int) {})
	respawned.Close()

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

// notADeadlineWaiter is a Barrier without WaitDeadline.
type notADeadlineWaiter struct{}

func (notADeadlineWaiter) Wait(int)          {}
func (notADeadlineWaiter) Participants() int { return 1 }
func (notADeadlineWaiter) Name() string      { return "stub" }

func TestCloseWithinNeedsDeadlineWaiter(t *testing.T) {
	team := MustTeam(1, notADeadlineWaiter{})
	if err := team.CloseWithin(time.Second); err == nil {
		t.Error("CloseWithin accepted a barrier without WaitDeadline")
	}
	team.Close()
}

// TestRunReRaisesFirstPanic covers the barrier.Run satellite: a body
// panic is recovered, the other participants finish, and the first
// panic is re-raised attributed to its participant.
func TestRunReRaisesFirstPanic(t *testing.T) {
	b := barrier.New(4)
	var completed atomic.Int64
	pe := mustPanicWith(t, func() {
		barrier.Run(b, func(id int) {
			if id == 3 {
				panic("run boom")
			}
			completed.Add(1)
		})
	})
	if pe.ID != 3 || pe.Value != "run boom" {
		t.Errorf("PanicError = %+v, want ID 3 \"run boom\"", pe)
	}
	if got := completed.Load(); got != 3 {
		t.Errorf("%d participants completed, want 3 (Run must not abandon them)", got)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack empty")
	}
}
