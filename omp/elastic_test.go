package omp

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"armbarrier/barrier"
	"armbarrier/internal/liveness"
)

// sumTo checks a worksharing loop at the team's current size: every
// index visited exactly once, by a tid inside the current membership.
func sumTo(t *testing.T, team *Team, n int) {
	t.Helper()
	visits := make([]atomic.Int32, n)
	var badTid atomic.Int32
	badTid.Store(-1)
	team.For(n, func(i, tid int) {
		if tid < 0 || tid >= team.Size() {
			badTid.Store(int32(tid))
		}
		visits[i].Add(1)
	})
	if bt := badTid.Load(); bt != -1 {
		t.Fatalf("tid %d outside current team size %d", bt, team.Size())
	}
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times (team size %d)", i, got, team.Size())
		}
	}
}

func TestElasticTeamResizeGrowShrink(t *testing.T) {
	team, err := NewElasticTeam(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()

	sumTo(t, team, 100)
	for _, q := range []int{5, 8, 3, 1, 4} {
		if err := team.Resize(q); err != nil {
			t.Fatalf("Resize(%d): %v", q, err)
		}
		if got := team.Size(); got != q {
			t.Fatalf("Size() = %d after Resize(%d)", got, q)
		}
		if got := team.Barrier().(*barrier.Phaser).Registered(); got != q {
			t.Fatalf("phaser Registered() = %d after Resize(%d)", got, q)
		}
		sumTo(t, team, 100)
		// A reduction must see every element exactly once too.
		if got := team.ReduceInt64(64, 0, func(i int) int64 { return 1 }); got != 64 {
			t.Fatalf("ReduceInt64 = %d at size %d, want 64", got, q)
		}
	}
}

func TestElasticTeamResizeErrors(t *testing.T) {
	team, err := NewElasticTeam(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	if err := team.Resize(0); err == nil {
		t.Error("Resize(0) accepted")
	}
	if err := team.Resize(5); err == nil {
		t.Error("Resize beyond capacity accepted")
	}
	if err := team.Resize(2); err != nil {
		t.Errorf("no-op Resize: %v", err)
	}

	fixed := MustTeam(2, barrier.New(2))
	defer fixed.Close()
	if err := fixed.Resize(3); err == nil {
		t.Error("Resize on a fixed team accepted")
	}
}

func TestNewElasticTeamValidation(t *testing.T) {
	if _, err := NewElasticTeam(0, 4); err == nil {
		t.Error("NewElasticTeam(0, 4) accepted")
	}
	if _, err := NewElasticTeam(4, 2); err == nil {
		t.Error("NewElasticTeam with capacity < p accepted")
	}
}

// TestElasticTeamCloseAfterShrink: with a fixed barrier, closing a
// team whose workers already left would wedge (the fork still expects
// them); the phaser's membership makes the close see only the live
// workers.
func TestElasticTeamCloseAfterShrink(t *testing.T) {
	team, err := NewElasticTeam(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	team.Parallel(func(tid int) {})
	if err := team.Resize(2); err != nil {
		t.Fatal(err)
	}
	if err := team.CloseWithin(10 * time.Second); err != nil {
		t.Fatalf("CloseWithin after shrink: %v", err)
	}
}

// TestElasticCloseWithinNamesOnlyMembers builds the wedge state
// directly (the TestCloseWithinWedgedTeam idiom): a shrunken elastic
// team whose surviving worker 1 never joined. The timeout must name
// [1] alone — the deregistered slots 2 and 3 lag the region count too,
// but they are not members and must not be reported.
func TestElasticCloseWithinNamesOnlyMembers(t *testing.T) {
	ph := barrier.NewPhaser(4)
	for i := 0; i < 2; i++ {
		if _, err := ph.Register(); err != nil {
			t.Fatal(err)
		}
	}
	wedged := &Team{b: ph, ph: ph, p: 2, regions: 1}
	wedged.parties = make([]*barrier.Party, 4)
	wedged.progress = make(liveness.Gens, 4)
	wedged.fusedDone = make([]fusedFlag, 4)
	err := wedged.CloseWithin(50 * time.Millisecond)
	if err == nil {
		t.Fatal("CloseWithin returned nil on a wedged elastic team")
	}
	if !strings.Contains(err.Error(), "participants [1]:") {
		t.Errorf("error %q must name exactly [1] — deregistered slots reported as stuck", err)
	}
}

// TestElasticTeamGrowDuringPreArrivedFork: after a region, workers
// loop straight back to the fork barrier, so a grow usually registers
// mid-round — the pre-claimed arrival must hand the newcomer its first
// work without disturbing the in-flight fork.
func TestElasticTeamGrowDuringPreArrivedFork(t *testing.T) {
	team, err := NewElasticTeam(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	for round := 0; round < 50; round++ {
		var ran [6]atomic.Bool
		team.Parallel(func(tid int) { ran[tid].Store(true) })
		for tid := 0; tid < team.Size(); tid++ {
			if !ran[tid].Load() {
				t.Fatalf("round %d: tid %d (size %d) did not run", round, tid, team.Size())
			}
		}
		q := 2 + round%5 // walk sizes 2..6
		if err := team.Resize(q); err != nil {
			t.Fatal(err)
		}
	}
}
