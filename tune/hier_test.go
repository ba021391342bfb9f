package tune

import (
	"fmt"
	"runtime"
	"testing"

	"armbarrier/barrier"
)

func TestSearchHierGroupSizes(t *testing.T) {
	out := SearchHierGroupSizes(256, 0, 100, 0.3, 2, nil)
	if len(out) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(out); i++ {
		if out[i].CostNs < out[i-1].CostNs {
			t.Fatalf("candidates not sorted: %v", out)
		}
	}
	for _, c := range out {
		if c.Measured {
			t.Fatalf("model-priced candidate marked measured: %+v", c)
		}
		if c.FanIn != 4 {
			t.Fatalf("default fan-in not applied: %+v", c)
		}
	}
	if got := (HierCandidate{GroupSize: 8, FanIn: 4}).Name(); got != "hier-g8" {
		t.Fatalf("Name = %q", got)
	}
	if got := (HierCandidate{GroupSize: 8, FanIn: 2, Wait: barrier.SpinParkWait()}).Name(); got != "hier-g8-f2-spinpark" {
		t.Fatalf("Name = %q", got)
	}
	if got := (HierCandidate{GroupSize: 8, FanIn: 4, Wait: barrier.SpinYieldWait()}).Name(); got != "hier-g8-spinyield" {
		t.Fatalf("Name with explicit spin-yield = %q", got)
	}
}

// TestMeasureHierGroupSizesExplicitSpinYield: an oversubscribed measured
// search asked for spin-yield keeps that policy in its candidates and
// their names, where the regime default would be spin-park.
func TestMeasureHierGroupSizesExplicitSpinYield(t *testing.T) {
	p := runtime.GOMAXPROCS(0) + 1
	out, err := MeasureHierGroupSizes(p, HierMeasureOptions{
		Episodes: 20, Repeats: 1, Candidates: []int{p}, Wait: barrier.SpinYieldWait(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := out[0]; c.Wait != barrier.SpinYieldWait() || c.Name() != fmt.Sprintf("hier-g%d-spinyield", p) {
		t.Fatalf("candidate %+v named %q", c, c.Name())
	}
}

func TestMeasureHierGroupSizes(t *testing.T) {
	out, err := MeasureHierGroupSizes(8, HierMeasureOptions{
		Episodes: 50, Repeats: 1, Candidates: []int{2, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d candidates, want 3", len(out))
	}
	for i, c := range out {
		if !c.Measured || c.CostNs <= 0 {
			t.Fatalf("candidate %d not measured: %+v", i, c)
		}
		if i > 0 && c.CostNs < out[i-1].CostNs {
			t.Fatalf("not sorted: %v", out)
		}
	}
	best, err := BestHierGroupSize(8, HierMeasureOptions{Episodes: 50, Repeats: 1, Candidates: []int{2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if best.GroupSize != 2 && best.GroupSize != 8 {
		t.Fatalf("best group %d not a candidate", best.GroupSize)
	}
}
