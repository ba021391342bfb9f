package faultinject

import (
	"context"
	"sync"
	"testing"
	"time"

	"armbarrier/fabric"
)

// Fabric wedge matrix: the multi-group counterpart of the barrier
// wedge tests. One participant of one group stalls; the fabric's
// watchdog must report exactly that group (naming the straggler, since
// the group is identity-tracked), sibling groups sharing the same
// shard must keep completing rounds the whole time, and releasing the
// straggler must clear the stall and complete the wedged round. Run
// under -race this doubles as the isolation race check.
func TestFabricWedgedGroupIsolated(t *testing.T) {
	const (
		p         = 4
		straggler = 2
		siblings  = 8
		rounds    = 30
		deadline  = 15 * time.Millisecond
	)
	t.Run("async", func(t *testing.T) {
		f := fabric.New(fabric.Config{
			Shards:        1, // every group in one shard: isolation must not depend on sharding luck
			StallDeadline: deadline,
		})
		defer f.Close()
		ctx := context.Background()

		wedged, err := f.Group("wedged", fabric.GroupConfig{Participants: p, Track: true})
		if err != nil {
			t.Fatal(err)
		}

		// The wedged group's round 0: everyone arrives except the
		// straggler. The arrivals are irrevocable, so the round hangs
		// open until the straggler shows.
		var wedgedChs []<-chan fabric.Outcome
		for id := 0; id < p; id++ {
			if id == straggler {
				continue
			}
			wedgedChs = append(wedgedChs, wedged.ArriveAs(ctx, id))
		}

		// Sibling groups grind rounds in the same shard throughout.
		var wg sync.WaitGroup
		sibErrs := make([]error, siblings)
		for s := 0; s < siblings; s++ {
			g, err := f.Group("sib"+string(rune('a'+s)), fabric.GroupConfig{Participants: 2})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(s int, g *fabric.Group) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					a, b := g.Arrive(ctx), g.Arrive(ctx)
					for _, ch := range []<-chan fabric.Outcome{a, b} {
						if o := <-ch; o.Err != nil {
							sibErrs[s] = o.Err
							return
						}
					}
				}
			}(s, g)
		}

		// The watchdog must converge on exactly one stall: the wedged
		// group, with the straggler named.
		var st fabric.Stall
		giveUp := time.Now().Add(20 * time.Second)
		for {
			stalls := f.Check()
			if len(stalls) == 1 && stalls[0].Group == "wedged" && stalls[0].Arrived == p-1 {
				st = stalls[0]
				break
			}
			if len(stalls) > 1 {
				t.Fatalf("healthy siblings reported stalled: %+v", stalls)
			}
			if time.Now().After(giveUp) {
				t.Fatalf("watchdog never isolated the wedged group; last: %+v", stalls)
			}
			time.Sleep(time.Millisecond)
		}
		if st.Age < deadline {
			t.Errorf("stall reported at age %v, before the %v deadline", st.Age, deadline)
		}
		if len(st.Missing) != 1 || st.Missing[0] != straggler {
			t.Errorf("Missing = %v, want [%d]", st.Missing, straggler)
		}

		// Siblings must have made progress while the stall was live —
		// they finish all their rounds without error.
		wg.Wait()
		for s, err := range sibErrs {
			if err != nil {
				t.Errorf("sibling %d: %v", s, err)
			}
		}

		// Release the straggler: the wedged round completes for all P
		// and the stall clears.
		last := wedged.ArriveAs(ctx, straggler)
		for _, ch := range append(wedgedChs, last) {
			select {
			case o := <-ch:
				if o.Err != nil || o.Round != 0 {
					t.Fatalf("wedged round outcome %+v, want round 0", o)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("wedged round never completed after release")
			}
		}
		clearBy := time.Now().Add(5 * time.Second)
		for len(f.Check()) != 0 {
			if time.Now().After(clearBy) {
				t.Fatal("stall persists after the straggler was released")
			}
			time.Sleep(time.Millisecond)
		}
	})
}
