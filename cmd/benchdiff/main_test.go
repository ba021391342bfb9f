package main

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"armbarrier/epcc"
)

// writeFixture marshals a minimal barrierbench report by hand so the
// test documents the exact JSON shape benchdiff consumes.
func writeFixture(t *testing.T, name string, results []epcc.Result) string {
	return writeFixtureProcs(t, name, 0, "", results)
}

// writeFixtureProcs additionally records gomaxprocs and wait_policy,
// the fields the per-regime geomean summary keys off.
func writeFixtureProcs(t *testing.T, name string, gomaxprocs int, wait string, results []epcc.Result) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`{"timestamp":"2026-08-05T00:00:00Z","mode":"barrier","gomaxprocs":` +
		strconv.Itoa(gomaxprocs) + `,"wait_policy":"` + wait + `","results":[`)
	for i, r := range results {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"Name":"` + r.Name + `","Threads":` + strconv.Itoa(r.Threads) +
			`,"OverheadNs":` + strconv.FormatFloat(r.OverheadNs, 'f', 1, 64) + `,"Episodes":1000}`)
	}
	sb.WriteString(`]}`)
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustContain(t *testing.T, out, want string) {
	t.Helper()
	if !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
}

func TestDiffFlagsInjectedRegression(t *testing.T) {
	oldPath := writeFixture(t, "old.json", []epcc.Result{
		{Name: "central", Threads: 8, OverheadNs: 1000, Episodes: 1000},
		{Name: "optimized", Threads: 8, OverheadNs: 200, Episodes: 1000},
	})
	// optimized regresses by 50%, central improves.
	newPath := writeFixture(t, "new.json", []epcc.Result{
		{Name: "central", Threads: 8, OverheadNs: 900, Episodes: 1000},
		{Name: "optimized", Threads: 8, OverheadNs: 300, Episodes: 1000},
	})
	var sb strings.Builder
	err := run([]string{oldPath, newPath}, &sb)
	if !errors.Is(err, errRegression) {
		t.Fatalf("want errRegression, got %v", err)
	}
	out := sb.String()
	mustContain(t, out, "REGRESSION")
	mustContain(t, out, "1 regression(s) beyond 10% threshold")
	if strings.Count(out, "REGRESSION") != 1 {
		t.Errorf("want exactly one flagged row:\n%s", out)
	}
	// The improving combination must not be flagged.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "central") && strings.Contains(line, "REGRESSION") {
			t.Errorf("improvement flagged as regression: %s", line)
		}
	}
}

func TestDiffWithinNoiseThresholdPasses(t *testing.T) {
	oldPath := writeFixture(t, "old.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	newPath := writeFixture(t, "new.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1080, Episodes: 1000}, // +8% < 10%
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatalf("8%% growth under default threshold should pass: %v", err)
	}
	mustContain(t, sb.String(), "no regressions")
}

func TestDiffCustomThreshold(t *testing.T) {
	oldPath := writeFixture(t, "old.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	newPath := writeFixture(t, "new.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1080, Episodes: 1000},
	})
	var sb strings.Builder
	err := run([]string{"-threshold", "0.05", oldPath, newPath}, &sb)
	if !errors.Is(err, errRegression) {
		t.Fatalf("8%% growth over 5%% threshold should fail, got %v", err)
	}
}

func TestDiffDisjointCombos(t *testing.T) {
	oldPath := writeFixture(t, "old.json", []epcc.Result{
		{Name: "central", Threads: 2, OverheadNs: 500, Episodes: 1000},
	})
	newPath := writeFixture(t, "new.json", []epcc.Result{
		{Name: "tournament", Threads: 2, OverheadNs: 400, Episodes: 1000},
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatalf("disjoint combos must not fail the run: %v", err)
	}
	mustContain(t, sb.String(), "gone")
	mustContain(t, sb.String(), "new")
}

func TestDiffGeomeanPerRegime(t *testing.T) {
	// GOMAXPROCS 4: the 4T rows are dedicated, the 8T rows
	// oversubscribed. Dedicated doubles (+100%), oversubscribed halves
	// (-50%); the summary must keep the regimes apart.
	oldPath := writeFixtureProcs(t, "old.json", 4, "spinpark", []epcc.Result{
		{Name: "central", Threads: 4, OverheadNs: 1000, Episodes: 1000},
		{Name: "central", Threads: 8, OverheadNs: 4000, Episodes: 1000},
	})
	newPath := writeFixtureProcs(t, "new.json", 4, "spinpark", []epcc.Result{
		{Name: "central", Threads: 4, OverheadNs: 2000, Episodes: 1000},
		{Name: "central", Threads: 8, OverheadNs: 2000, Episodes: 1000},
	})
	var sb strings.Builder
	err := run([]string{oldPath, newPath}, &sb)
	if !errors.Is(err, errRegression) {
		t.Fatalf("doubled dedicated overhead should regress, got %v", err)
	}
	mustContain(t, sb.String(), "geomean dedicated: +100.0% over 1 combination(s)")
	mustContain(t, sb.String(), "geomean oversubscribed: -50.0% over 1 combination(s)")
}

func TestDiffPerThreadGeomeanMultiP(t *testing.T) {
	// A -plist style sweep: two algorithms at three participant counts.
	// 64T doubles for both, 256T halves, 1024T is flat — the per-P lines
	// must keep the scaling points apart.
	oldPath := writeFixtureProcs(t, "old.json", 4, "spinpark", []epcc.Result{
		{Name: "dtour", Threads: 64, OverheadNs: 1000, Episodes: 1000},
		{Name: "hier", Threads: 64, OverheadNs: 1000, Episodes: 1000},
		{Name: "dtour", Threads: 256, OverheadNs: 4000, Episodes: 1000},
		{Name: "hier", Threads: 256, OverheadNs: 4000, Episodes: 1000},
		{Name: "dtour", Threads: 1024, OverheadNs: 9000, Episodes: 1000},
	})
	newPath := writeFixtureProcs(t, "new.json", 4, "spinpark", []epcc.Result{
		{Name: "dtour", Threads: 64, OverheadNs: 2000, Episodes: 1000},
		{Name: "hier", Threads: 64, OverheadNs: 2000, Episodes: 1000},
		{Name: "dtour", Threads: 256, OverheadNs: 2000, Episodes: 1000},
		{Name: "hier", Threads: 256, OverheadNs: 2000, Episodes: 1000},
		{Name: "dtour", Threads: 1024, OverheadNs: 9000, Episodes: 1000},
	})
	var sb strings.Builder
	err := run([]string{oldPath, newPath}, &sb)
	if !errors.Is(err, errRegression) {
		t.Fatalf("doubled 64T overhead should regress, got %v", err)
	}
	mustContain(t, sb.String(), "geomean 64T: +100.0% over 2 combination(s)")
	mustContain(t, sb.String(), "geomean 256T: -50.0% over 2 combination(s)")
	mustContain(t, sb.String(), "geomean 1024T: +0.0% over 1 combination(s)")
}

func TestDiffPerThreadGeomeanSingleP(t *testing.T) {
	// Old single-P reports get no per-P breakdown — it would duplicate
	// the regime summary.
	oldPath := writeFixture(t, "old.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
		{Name: "central", Threads: 4, OverheadNs: 2000, Episodes: 1000},
	})
	newPath := writeFixture(t, "new.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
		{Name: "central", Threads: 4, OverheadNs: 2000, Episodes: 1000},
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "geomean 4T:") {
		t.Fatalf("per-P breakdown printed for a single-P report:\n%s", sb.String())
	}
}

func TestDiffWaitPolicyMismatchNoted(t *testing.T) {
	oldPath := writeFixtureProcs(t, "old.json", 4, "spinyield", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	newPath := writeFixtureProcs(t, "new.json", 4, "spinpark", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatal(err)
	}
	mustContain(t, sb.String(), `comparing different wait policies ("spinyield" vs "spinpark")`)
}

func TestDiffFusedSpeedupSummary(t *testing.T) {
	// The new report carries collective pairs for two combinations:
	// optimized/4T is 2x faster fused, optimized/8T is 8x; the geomean
	// is 4x. The stray fused result without a 2ep partner is ignored.
	results := []epcc.Result{
		{Name: "optimized" + epcc.FusedSuffix, Threads: 4, OverheadNs: 500, Episodes: 1000},
		{Name: "optimized" + epcc.UnfusedSuffix, Threads: 4, OverheadNs: 1000, Episodes: 1000},
		{Name: "optimized" + epcc.FusedSuffix, Threads: 8, OverheadNs: 500, Episodes: 1000},
		{Name: "optimized" + epcc.UnfusedSuffix, Threads: 8, OverheadNs: 4000, Episodes: 1000},
		{Name: "combining" + epcc.FusedSuffix, Threads: 4, OverheadNs: 700, Episodes: 1000},
	}
	oldPath := writeFixture(t, "old.json", results)
	newPath := writeFixture(t, "new.json", results)
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatal(err)
	}
	mustContain(t, sb.String(), "geomean fused allreduce speedup (new report): 4.00x over 2 pair(s)")
}

func TestDiffNoFusedSummaryWithoutPairs(t *testing.T) {
	oldPath := writeFixture(t, "old.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	newPath := writeFixture(t, "new.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "fused allreduce speedup") {
		t.Fatalf("fused summary printed for a report without collective results:\n%s", sb.String())
	}
}

func TestDiffBadInputs(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"only-one.json"}, &sb); err == nil {
		t.Fatal("accepted a single argument")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty, empty}, &sb); err == nil {
		t.Fatal("accepted a report with no results")
	}
	if err := run([]string{"/nonexistent.json", empty}, &sb); err == nil {
		t.Fatal("accepted a missing file")
	}
	// Reports of the retired -fabric and -elastic modes hold only
	// fabric or elastic rows; diffing them must fail loudly, on either
	// side, rather than print an empty "no regressions" diff.
	current := writeFixture(t, "current.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	for _, retired := range []string{"../../BENCH_pr9.json", "../../BENCH_pr10.json"} {
		for _, args := range [][]string{{retired, current}, {current, retired}, {retired, retired}} {
			var sb strings.Builder
			err := run(args, &sb)
			if err == nil || errors.Is(err, errRegression) || !strings.Contains(err.Error(), "no results") {
				t.Errorf("run(%v) = %v, want a no-results error\n%s", args, err, sb.String())
			}
		}
	}
}

// TestDiffFabricRefusesParkedRows checks that a report carrying rows of
// the deleted parked engine is refused on either side of the diff, with
// an error naming the report's mode, instead of diffing to an empty
// "no regressions" result.
func TestDiffFabricRefusesParkedRows(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	doc := `{"timestamp":"2026-08-08T00:00:00Z","mode":"fabric","gomaxprocs":4,"fabric":[` +
		`{"mode":"async","groups":16,"participants":4,"episodes":50,"joins":1000,"elapsed_ns":1000000,"joins_per_sec":300000,"join_p50_ns":100,"join_p99_ns":500},` +
		`{"mode":"parked","groups":16,"participants":4,"episodes":50,"joins":1000,"elapsed_ns":1000000,"joins_per_sec":100000,"join_p50_ns":100,"join_p99_ns":500}]}`
	if err := os.WriteFile(legacy, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	current := writeFixture(t, "current.json", []epcc.Result{
		{Name: "mcs", Threads: 4, OverheadNs: 1000, Episodes: 1000},
	})
	for _, args := range [][]string{{legacy, current}, {current, legacy}} {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || errors.Is(err, errRegression) || !strings.Contains(err.Error(), `no results (mode "fabric")`) {
			t.Errorf("run(%v) = %v, want a no-results error naming mode fabric\n%s", args, err, sb.String())
		}
	}
}
