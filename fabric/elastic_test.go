package fabric

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestElasticGroupLateJoinerResizes: the elastic contract at the
// registry level — a later caller asking for a wider group resizes it
// instead of getting the shape-mismatch error.
func TestElasticGroupLateJoinerResizes(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	ctx := context.Background()

	g, err := f.Group("g", GroupConfig{Participants: 2, Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Arrive(ctx), g.Arrive(ctx)
	recvOutcome(t, a)
	recvOutcome(t, b)

	// The late joiner widens the rendezvous to 3.
	g2, err := f.Group("g", GroupConfig{Participants: 3, Elastic: true})
	if err != nil {
		t.Fatalf("late joiner rejected: %v", err)
	}
	if g2 != g {
		t.Fatal("late joiner got a different group instance")
	}
	if got := g.Participants(); got != 3 {
		t.Fatalf("Participants() = %d after late join, want 3", got)
	}
	chs := []<-chan Outcome{g.Arrive(ctx), g.Arrive(ctx)}
	select {
	case o := <-chs[0]:
		t.Fatalf("round of 3 completed with 2 arrivals: %+v", o)
	case <-time.After(20 * time.Millisecond):
	}
	chs = append(chs, g.Arrive(ctx))
	for i, ch := range chs {
		if o := recvOutcome(t, ch); o.Err != nil || o.Round != 1 {
			t.Fatalf("arrival %d: got %+v, want round 1", i, o)
		}
	}
}

// TestElasticGroupInFlightRoundKeepsLatchedSize: a resize changes only
// rounds that have not begun — the round in flight resolves at the
// size its first arrival latched.
func TestElasticGroupInFlightRoundKeepsLatchedSize(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	ctx := context.Background()

	g, err := f.Group("g", GroupConfig{Participants: 3, Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Arrive(ctx), g.Arrive(ctx) // round 0 latched at 3
	if err := g.Resize(2); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-a:
		t.Fatalf("latched round of 3 resolved by shrink to 2: %+v", o)
	case <-time.After(20 * time.Millisecond):
	}
	c := g.Arrive(ctx) // third arrival completes the latched round
	for i, ch := range []<-chan Outcome{a, b, c} {
		if o := recvOutcome(t, ch); o.Err != nil || o.Round != 0 {
			t.Fatalf("arrival %d: got %+v, want round 0", i, o)
		}
	}
	// The next round runs at the new size.
	d, e := g.Arrive(ctx), g.Arrive(ctx)
	for i, ch := range []<-chan Outcome{d, e} {
		if o := recvOutcome(t, ch); o.Err != nil || o.Round != 1 {
			t.Fatalf("shrunk round arrival %d: got %+v, want round 1", i, o)
		}
	}
}

func TestElasticGroupConfigErrors(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	if _, err := f.Group("t", GroupConfig{Participants: 2, Elastic: true, Track: true}); err == nil {
		t.Error("Elastic+Track accepted")
	}
	if _, err := f.Group("g", GroupConfig{Participants: 2, Elastic: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Group("g", GroupConfig{Participants: 2}); err == nil {
		t.Error("fixed caller reached an elastic group without error")
	}
	fixed, err := f.Group("f", GroupConfig{Participants: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fixed.Resize(3); err == nil {
		t.Error("Resize on a fixed group accepted")
	}
	if _, err := f.Group("f", GroupConfig{Participants: 3, Elastic: true}); err == nil {
		t.Error("elastic caller reached a fixed group without error")
	}
	g, _ := f.Lookup("g")
	if err := g.Resize(0); err == nil {
		t.Error("Resize(0) accepted")
	}
	if !g.Elastic() || fixed.Elastic() {
		t.Error("Elastic() flags wrong")
	}
}

// TestGroupReplacesClosedCorpse: a directly closed group must not trap
// its name — the next Group call gets a fresh, working instance.
func TestGroupReplacesClosedCorpse(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	ctx := context.Background()

	g, err := f.Group("g", GroupConfig{Participants: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g2, err := f.Group("g", GroupConfig{Participants: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g2 == g {
		t.Fatal("Group returned the closed corpse")
	}
	if o := recvOutcome(t, g2.Arrive(ctx)); o.Err != nil {
		t.Fatalf("replacement group arrival: %+v", o)
	}
}

// TestSweepArriveRace hammers Sweep against concurrent create/join
// loops. The atomic close (sentinel CAS under the shard write lock)
// guarantees every arrival on a swept group observes ErrClosed — no
// outcome may be lost, and the name must keep making progress through
// fresh instances. Run with -race; this is the regression test for the
// sweep/arrive lifecycle fix.
func TestSweepArriveRace(t *testing.T) {
	f := New(Config{Shards: 2})
	defer f.Close()
	ctx := context.Background()

	stop := make(chan struct{})
	var sweeps atomic.Int64
	var wg, sweeperWG sync.WaitGroup
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// Cutoff "now": everything not mid-round is idle.
				sweeps.Add(int64(f.Sweep(0)))
			}
		}
	}()

	// Pairs rendezvous on a 2-party group: both partners must agree —
	// the same completed round, or both ErrClosed. A swept group can
	// never split a pair because a non-empty arrival stack defeats the
	// idle-close CAS.
	const pairs = 4
	var rounds, closedOutcomes atomic.Int64
	deadline := time.Now().Add(500 * time.Millisecond)
	for w := 0; w < pairs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a", "b"}[w%2]
			for time.Now().Before(deadline) {
				g, err := f.Group(name, GroupConfig{Participants: 2})
				if err != nil {
					t.Errorf("Group: %v", err)
					return
				}
				a, b := g.Arrive(ctx), g.Arrive(ctx)
				oa, ob := recvOutcome(t, a), recvOutcome(t, b)
				for _, o := range []Outcome{oa, ob} {
					switch {
					case o.Err == nil:
						rounds.Add(1)
					case errors.Is(o.Err, ErrClosed):
						closedOutcomes.Add(1)
					default:
						t.Errorf("unexpected outcome: %+v", o)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweeperWG.Wait()

	if rounds.Load() == 0 {
		t.Error("no rounds completed under sweep pressure")
	}
	t.Logf("rounds=%d closed=%d sweeps=%d", rounds.Load(), closedOutcomes.Load(), sweeps.Load())
}

// TestSweepNeverStrandsInFlightRound: a group with a round in flight
// must survive any number of sweeps, even with cutoff "now".
func TestSweepNeverStrandsInFlightRound(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	ctx := context.Background()

	g, err := f.Group("g", GroupConfig{Participants: 2})
	if err != nil {
		t.Fatal(err)
	}
	pending := g.Arrive(ctx)
	for i := 0; i < 100; i++ {
		f.Sweep(0)
	}
	if _, ok := f.Lookup("g"); !ok {
		t.Fatal("mid-round group was swept")
	}
	done := g.Arrive(ctx)
	if o := recvOutcome(t, pending); o.Err != nil {
		t.Fatalf("pending arrival: %+v", o)
	}
	if o := recvOutcome(t, done); o.Err != nil {
		t.Fatalf("completing arrival: %+v", o)
	}
}
