package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRoundCompletes is the smallest async contract: P arrivals, one
// round, everyone gets round 0.
func TestRoundCompletes(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	g, err := f.Group("g", GroupConfig{Participants: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chs := make([]<-chan Outcome, 4)
	for i := range chs {
		chs[i] = g.Arrive(ctx)
	}
	for i, ch := range chs {
		o := recvOutcome(t, ch)
		if o.Err != nil || o.Round != 0 {
			t.Fatalf("arrival %d: got %+v, want round 0", i, o)
		}
	}
	if got := g.Rounds(); got != 1 {
		t.Fatalf("rounds = %d, want 1", got)
	}
}

// TestManyRoundsManyGoroutines hammers one group from P concurrent
// loopers for many rounds; every looper must observe every round
// exactly once, in order. Run with -race this is the main protocol
// check.
func TestManyRoundsManyGoroutines(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 33} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			f := New(Config{SampleEvery: 2})
			defer f.Close()
			g, err := f.Group("g", GroupConfig{Participants: p})
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 200
			ctx := context.Background()
			var wg sync.WaitGroup
			errs := make([]error, p)
			wg.Add(p)
			for i := 0; i < p; i++ {
				go func(slot int) {
					defer wg.Done()
					for r := uint64(0); r < rounds; r++ {
						o := <-g.Arrive(ctx)
						if o.Err != nil {
							errs[slot] = o.Err
							return
						}
						if o.Round != r {
							errs[slot] = fmt.Errorf("got round %d, want %d", o.Round, r)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("looper %d: %v", i, err)
				}
			}
			if got := g.Rounds(); got != rounds {
				t.Fatalf("rounds = %d, want %d", got, rounds)
			}
		})
	}
}

// TestGroupsAreIndependent runs many groups concurrently in one fabric
// and checks cross-group isolation: every group completes its own
// rounds regardless of its shard neighbours.
func TestGroupsAreIndependent(t *testing.T) {
	f := New(Config{Shards: 4}) // force shard sharing
	defer f.Close()
	const groups, p, rounds = 32, 3, 50
	ctx := context.Background()
	var wg sync.WaitGroup
	var fail atomic.Value
	for gi := 0; gi < groups; gi++ {
		g, err := f.Group(fmt.Sprintf("g%d", gi), GroupConfig{Participants: p})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if o := <-g.Arrive(ctx); o.Err != nil {
						fail.Store(fmt.Errorf("group %s: %v", g.Name(), o.Err))
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if err := fail.Load(); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(true)
	if snap.Groups != groups {
		t.Fatalf("snapshot groups = %d, want %d", snap.Groups, groups)
	}
	for _, gs := range snap.PerGroup {
		if gs.Rounds != rounds {
			t.Fatalf("group %s: rounds = %d, want %d", gs.Name, gs.Rounds, rounds)
		}
	}
	if snap.TotalRounds != groups*rounds {
		t.Fatalf("total rounds = %d, want %d", snap.TotalRounds, groups*rounds)
	}
}

// TestJoinHonoursContext checks Join gives up the wait (not the
// arrival) when its context dies first.
func TestJoinHonoursContext(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	g, err := f.Group("g", GroupConfig{Participants: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.Join(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lone Join err = %v, want deadline exceeded", err)
	}
	// The abandoned arrival still counts: one more arrival completes the
	// round.
	o := recvOutcome(t, g.Arrive(context.Background()))
	if o.Err != nil || o.Round != 0 {
		t.Fatalf("second arrival got %+v, want round 0", o)
	}
	// A context dead at entry short-circuits without arriving.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if o := recvOutcome(t, g.Arrive(dead)); !errors.Is(o.Err, context.Canceled) {
		t.Fatalf("dead-ctx arrival got %+v, want canceled", o)
	}
	if got := g.inflight(); got != 0 {
		t.Fatalf("inflight after dead-ctx arrival = %d, want 0", got)
	}
}

// TestBigGroupBatchedWakeup exercises chains longer than WakeBatch so
// delivery spans multiple pool tasks (and the requeue path).
func TestBigGroupBatchedWakeup(t *testing.T) {
	f := New(Config{WakeBatch: 8, QueueDepth: 2, SampleEvery: 1})
	defer f.Close()
	const p = 100
	g, err := f.Group("big", GroupConfig{Participants: p})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := uint64(0); round < 3; round++ {
		chs := make([]<-chan Outcome, p)
		for i := range chs {
			chs[i] = g.Arrive(ctx)
		}
		for i, ch := range chs {
			o := recvOutcome(t, ch)
			if o.Err != nil || o.Round != round {
				t.Fatalf("round %d arrival %d: got %+v", round, i, o)
			}
		}
	}
	if snap := g.Snapshot(); snap.SampledRounds != 3 || snap.JoinP99Ns <= 0 {
		t.Fatalf("snapshot %+v: want 3 sampled rounds and a join quantile", snap)
	}
}

func recvOutcome(t *testing.T, ch <-chan Outcome) Outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for outcome")
		return Outcome{}
	}
}
