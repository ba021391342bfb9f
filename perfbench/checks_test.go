package main

import (
	"math"
	"testing"

	"armbarrier/barrier"
	"armbarrier/fabric"
	"armbarrier/omp"
	"armbarrier/topology"
)

// Each test feeds one of the benchmark's output checks a wrong output
// and confirms that the check fails, and feeds it the right output and
// confirms that it passes.

// noopBarrier lets every participant through at once: a team over it
// has no fork or join at all.
type noopBarrier struct{ p int }

func (b noopBarrier) Wait(int)          {}
func (b noopBarrier) Participants() int { return b.p }
func (b noopBarrier) Name() string      { return "noop" }

func TestStencilChecksCatchANoOpBarrier(t *testing.T) {
	const p, steps = 4, 2000
	init := newField(7, bspCells)
	team, err := omp.NewTeam(p, noopBarrier{p})
	if err != nil {
		t.Fatal(err)
	}
	s := newStencil(team, init)
	want := fieldTotal(init)
	var stepErr error
	for i := 0; i < steps && stepErr == nil; i++ {
		stepErr = s.stepChecked(nil, nil, 0, want)
	}
	team.Close()
	if stepErr == nil {
		if err := checkStencil(init, s.cur, s.steps); err == nil {
			t.Fatalf("%d steps without fork or join passed both the per-step heat check and the serial comparison", steps)
		}
	}
}

func TestStencilChecksPassOnARealTeam(t *testing.T) {
	const p, steps = 4, 300
	init := newField(7, bspCells)
	team := omp.MustTeam(p, barrier.New(p))
	defer team.Close()
	s := newStencil(team, init)
	want := fieldTotal(init)
	for i := 0; i < steps; i++ {
		if err := s.stepChecked(nil, nil, 0, want); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkStencil(init, s.cur, s.steps); err != nil {
		t.Fatal(err)
	}
}

func TestHeatCheck(t *testing.T) {
	if checkHeat(3, 100, 100) != nil {
		t.Fatal("the conserved total was rejected")
	}
	if checkHeat(3, 101, 100) == nil {
		t.Fatal("a total off by one passed")
	}
}

func testGroup(t *testing.T) *fabric.Group {
	t.Helper()
	f := fabric.New(fabric.Config{})
	t.Cleanup(f.Close)
	g, err := f.Group("g", fabric.GroupConfig{Participants: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRoundLedgerCatchesASkippedRound(t *testing.T) {
	l := &ledger{g: testGroup(t), p: 2}
	for _, r := range []uint64{0, 1} {
		if err := l.complete(fabric.Outcome{Round: r}); err != nil {
			t.Fatal(err)
		}
	}
	if l.complete(fabric.Outcome{Round: 3}) == nil {
		t.Fatal("round 3 after round 1 passed")
	}
}

func TestRoundLedgerCatchesARepeatedRound(t *testing.T) {
	l := &ledger{g: testGroup(t), p: 2}
	for _, r := range []uint64{0, 1} {
		if err := l.complete(fabric.Outcome{Round: r}); err != nil {
			t.Fatal(err)
		}
	}
	if l.complete(fabric.Outcome{Round: 1}) == nil {
		t.Fatal("round 1 twice passed")
	}
	if l.complete(fabric.Outcome{Round: 2, Err: fabric.ErrClosed}) == nil {
		t.Fatal("a completing arrival with an error passed")
	}
}

func TestOutcomeCheck(t *testing.T) {
	if err := checkOutcome("g", 5, fabric.Outcome{Round: 5}); err != nil {
		t.Fatal(err)
	}
	if checkOutcome("g", 5, fabric.Outcome{Round: 4}) == nil {
		t.Fatal("an outcome of another round passed")
	}
	if checkOutcome("g", 5, fabric.Outcome{Round: 5, Err: fabric.ErrClosed}) == nil {
		t.Fatal("an outcome with an error passed")
	}
}

func TestRerunCheckCatchesADifferentPoint(t *testing.T) {
	pt := simPoint{m: topology.Kunpeng920(), alg: "optimized", p: 16}
	first, _, err := measurePoint(pt, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := measurePoint(pt, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRerun(pt.key(), first, again); err != nil {
		t.Fatal(err)
	}
	slower := again
	slower.ns = math.Nextafter(slower.ns, math.Inf(1))
	if checkRerun(pt.key(), first, slower) == nil {
		t.Fatal("a re-run one ulp slower passed")
	}
	moreLoads := again
	moreLoads.stats.Loads++
	if checkRerun(pt.key(), first, moreLoads) == nil {
		t.Fatal("a re-run with one more load passed")
	}
}

func TestAtomicsCheckCatchesAnOffByOneCount(t *testing.T) {
	for _, alg := range []string{"gcc", "sense"} {
		pt := simPoint{m: topology.Phytium2000(), alg: alg, p: 8, scatter: true}
		out, _, err := measurePoint(pt, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := out.stats.Atomics
		if err := checkAtomics(pt.key(), pt.p, simEpisodes, got); err != nil {
			t.Fatal(err)
		}
		for _, wrong := range []uint64{got - 1, got + 1} {
			if checkAtomics(pt.key(), pt.p, simEpisodes, wrong) == nil {
				t.Fatalf("%s: %d atomics passed, the simulation made %d", alg, wrong, got)
			}
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantileNs(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q=%v: got %.0f, want %.0f within 2%%", q, got, want)
		}
	}
}
