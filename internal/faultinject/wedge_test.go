package faultinject

import (
	"sync"
	"testing"
	"time"

	"armbarrier/barrier"
)

// Wedge matrix: the robustness acceptance test. For every barrier
// algorithm × wait policy, a fault-injected missing participant must be
// (a) detected by the watchdog — with the right straggler ID reported —
// and (b) survivable: the peers' bounded waits hold, the straggler's
// release completes the episode, and a further clean round proves the
// barrier was not poisoned. The wrapping order is participant →
// Injector → Watchdog → barrier, so the watchdog never sees the
// faulted arrival and genuinely has to detect the absence.

// algorithms enumerates every option-accepting barrier constructor,
// mirroring the barrier package's own wait-policy matrix.
func algorithms() map[string]func(p int, opts ...barrier.Option) barrier.Barrier {
	return map[string]func(p int, opts ...barrier.Option) barrier.Barrier{
		"central":       func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewCentral(p, o...) },
		"dissemination": func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewDissemination(p, o...) },
		"combining2":    func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewCombining(p, 2, o...) },
		"mcs":           func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewMCS(p, o...) },
		"tournament":    func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewTournament(p, o...) },
		"hyper":         func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewHyper(p, o...) },
		"hyper2":        func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewHyperBranch(p, 2, o...) },
		"stour":         func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewStaticFWay(p, o...) },
		"dtour":         func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewDynamicFWay(p, o...) },
		"optimized":     func(p int, o ...barrier.Option) barrier.Barrier { return barrier.New(p, o...) },
		"ring":          func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewRing(p, o...) },
		"hybrid": func(p int, o ...barrier.Option) barrier.Barrier {
			return barrier.NewHybrid(p, barrier.HybridConfig{}, o...)
		},
		"ndis2": func(p int, o ...barrier.Option) barrier.Barrier {
			return barrier.NewNWayDissemination(p, 2, o...)
		},
		// Group size 2 at the matrix's p=4 puts the straggler inside a
		// two-member group line with a live representative stage above it.
		"hier": func(p int, o ...barrier.Option) barrier.Barrier {
			return barrier.NewHierarchical(p, barrier.HierarchicalConfig{GroupSize: 2}, o...)
		},
	}
}

func policies() map[string]barrier.WaitPolicy {
	return map[string]barrier.WaitPolicy{
		"spin":      barrier.SpinWait(),
		"spinyield": barrier.SpinYieldWait(),
		"spinpark":  barrier.SpinParkWait(),
	}
}

func TestMissingParticipantDetectedMatrix(t *testing.T) {
	const (
		p         = 4
		straggler = 2
		deadline  = 25 * time.Millisecond
		budget    = 30 * time.Second // failure bound: errors, not hangs
	)
	for aname, mk := range algorithms() {
		for pname, pol := range policies() {
			t.Run(aname+"/"+pname, func(t *testing.T) {
				wd := barrier.NewWatchdog(mk(p, barrier.WithWaitPolicy(pol)), barrier.WatchdogConfig{
					Deadline: deadline,
				})
				in := Wrap(wd, Fault{ID: straggler, Round: 1, Kind: Stall})

				errs := make([]error, p)
				var wg sync.WaitGroup
				for id := 0; id < p; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						for r := 0; r < 3; r++ {
							if err := in.WaitDeadline(id, budget); err != nil {
								errs[id] = err
								return
							}
						}
					}(id)
				}

				// Round 0 completes; in round 1 the straggler stalls before
				// arrival. The watchdog must report the stuck episode with
				// exactly the straggler missing. Early polls can catch the
				// healthy peers mid-arrival, so poll until the picture is
				// complete — it becomes stable once all three are waiting.
				var st barrier.Stall
				giveUp := time.Now().Add(20 * time.Second)
				for {
					var stalled bool
					if st, stalled = wd.Check(); stalled &&
						len(st.Missing) == 1 && len(st.Waiting) == p-1 {
						break
					}
					if time.Now().After(giveUp) {
						t.Fatalf("watchdog never reported the stall; last: %+v", st)
					}
					time.Sleep(time.Millisecond)
				}
				if st.Missing[0] != straggler {
					t.Errorf("Missing = %v, want [%d]", st.Missing, straggler)
				}
				if st.Age < deadline {
					t.Errorf("stall reported at age %v, before the %v deadline", st.Age, deadline)
				}

				// Release the straggler: the wedged episode completes, and
				// round 2 proves nothing was poisoned.
				in.Release()
				wg.Wait()
				for id, err := range errs {
					if err != nil {
						t.Errorf("participant %d: %v", id, err)
					}
				}
				if _, stalled := wd.Check(); stalled {
					t.Error("stall persists after the straggler was released")
				}
			})
		}
	}
}

// TestLateParticipantRecovers is the Delay variant of the matrix's
// scenario on a representative subset: a straggler that is merely late
// (shorter than the bounded-wait budget) must not produce errors, only
// a watchdog stall that clears by itself. Every stall report is
// collected: a later report may legitimately name no missing
// participant (taken after the straggler entered the tree but before
// it released), so the check is that some report names exactly the
// straggler, not that the last one does.
func TestLateParticipantRecovers(t *testing.T) {
	const p = 4
	for _, aname := range []string{"central", "dissemination", "optimized"} {
		mk := algorithms()[aname]
		t.Run(aname, func(t *testing.T) {
			var (
				mu      sync.Mutex
				reports []barrier.Stall
			)
			wd := barrier.NewWatchdog(mk(p), barrier.WatchdogConfig{
				Deadline: 10 * time.Millisecond,
				OnStall: func(st barrier.Stall) {
					mu.Lock()
					reports = append(reports, st)
					mu.Unlock()
				},
			})
			in := Wrap(wd, Fault{ID: 1, Round: 0, Kind: Delay, Delay: 60 * time.Millisecond})
			wd.Start()
			defer wd.Stop()
			errs := make([]error, p)
			var wg sync.WaitGroup
			for id := 0; id < p; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for r := 0; r < 2; r++ {
						if err := in.WaitDeadline(id, 30*time.Second); err != nil {
							errs[id] = err
							return
						}
					}
				}(id)
			}
			wg.Wait()
			for id, err := range errs {
				if err != nil {
					t.Errorf("participant %d: %v", id, err)
				}
			}
			wd.Stop()
			mu.Lock()
			named := false
			for _, st := range reports {
				if len(st.Missing) == 1 && st.Missing[0] == 1 {
					named = true
				}
			}
			if !named {
				t.Errorf("no stall report names exactly [1] as missing; reports: %+v", reports)
			}
			mu.Unlock()
			if _, stalled := wd.Check(); stalled {
				t.Error("stall persists after the late participant arrived")
			}
		})
	}
}
