package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armbarrier/fabric"
)

// writeFabricFixture writes a mode-"fabric" report holding the given
// points as the real tool emits them (marshalling fabric.BenchPoint
// keeps the fixture honest about field names).
func writeFabricFixture(t *testing.T, name string, points []fabric.BenchPoint) string {
	t.Helper()
	for i := range points {
		points[i].Episodes, points[i].Joins, points[i].ElapsedNs = 50, 1000, 1000000
		points[i].JoinP50Ns, points[i].JoinP99Ns = 100, 500
	}
	rows, err := json.Marshal(points)
	if err != nil {
		t.Fatal(err)
	}
	return writeRawFabricFixture(t, name, string(rows))
}

// writeRawFabricFixture writes a mode-"fabric" report whose fabric
// array is the given JSON text.
func writeRawFabricFixture(t *testing.T, name, rows string) string {
	t.Helper()
	doc := `{"timestamp":"2026-08-08T00:00:00Z","mode":"fabric","gomaxprocs":4,"fabric":` + rows + `}`
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffFabricThroughputRegression(t *testing.T) {
	oldPath := writeFabricFixture(t, "old.json", []fabric.BenchPoint{
		{Groups: 1024, Participants: 4, JoinsPerSec: 1000000},
		{Groups: 16, Participants: 4, JoinsPerSec: 400000},
	})
	// The wide fleet loses 50% (regression); the small one gains 25%.
	newPath := writeFabricFixture(t, "new.json", []fabric.BenchPoint{
		{Groups: 1024, Participants: 4, JoinsPerSec: 500000},
		{Groups: 16, Participants: 4, JoinsPerSec: 500000},
	})
	var sb strings.Builder
	err := run([]string{oldPath, newPath}, &sb)
	if !errors.Is(err, errRegression) {
		t.Fatalf("want errRegression, got %v\n%s", err, sb.String())
	}
	out := sb.String()
	mustContain(t, out, "REGRESSION")
	if strings.Count(out, "REGRESSION") != 1 {
		t.Errorf("want exactly one flagged row:\n%s", out)
	}
	// sqrt(0.5 * 1.25) - 1 = -20.9%.
	mustContain(t, out, "geomean fabric joins/sec: -20.9% over 2 shape(s)")
}

// TestDiffFabricRefusesParkedRows checks that a report carrying rows of
// the deleted parked engine is refused with an error naming it, on
// either side of the diff, instead of pairing a parked row with a
// current row of the same shape.
func TestDiffFabricRefusesParkedRows(t *testing.T) {
	legacy := writeRawFabricFixture(t, "legacy.json", `[`+
		`{"mode":"async","groups":16,"participants":4,"episodes":50,"joins":1000,"elapsed_ns":1000000,"joins_per_sec":300000,"join_p50_ns":100,"join_p99_ns":500},`+
		`{"mode":"parked","groups":16,"participants":4,"episodes":50,"joins":1000,"elapsed_ns":1000000,"joins_per_sec":100000,"join_p50_ns":100,"join_p99_ns":500}]`)
	current := writeFabricFixture(t, "current.json", []fabric.BenchPoint{
		{Groups: 16, Participants: 4, JoinsPerSec: 300000},
	})
	for _, args := range [][]string{{legacy, current}, {current, legacy}} {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || errors.Is(err, errRegression) || !strings.Contains(err.Error(), "parked engine") {
			t.Errorf("run(%v) = %v, want an error naming the deleted parked engine\n%s", args, err, sb.String())
		}
	}
}

func TestDiffFabricThroughputGainPasses(t *testing.T) {
	oldPath := writeFabricFixture(t, "old.json", []fabric.BenchPoint{
		{Groups: 16, Participants: 4, JoinsPerSec: 100000},
	})
	newPath := writeFabricFixture(t, "new.json", []fabric.BenchPoint{
		{Groups: 16, Participants: 4, JoinsPerSec: 300000},
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatalf("throughput gain must pass: %v\n%s", err, sb.String())
	}
	mustContain(t, sb.String(), "no regressions")
}

func TestDiffFabricOnlyReportLoads(t *testing.T) {
	// A fabric-only report has no barrier results; load must accept it
	// and the barrier table must not print.
	oldPath := writeFabricFixture(t, "old.json", []fabric.BenchPoint{
		{Groups: 16, Participants: 4, JoinsPerSec: 100000},
	})
	newPath := writeFabricFixture(t, "new.json", []fabric.BenchPoint{
		{Groups: 16, Participants: 4, JoinsPerSec: 100000},
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "algorithm") {
		t.Errorf("barrier table printed for a fabric-only report:\n%s", sb.String())
	}
}

func TestDiffFabricDisjointShapes(t *testing.T) {
	oldPath := writeFabricFixture(t, "old.json", []fabric.BenchPoint{
		{Groups: 16, Participants: 4, JoinsPerSec: 100000},
	})
	newPath := writeFabricFixture(t, "new.json", []fabric.BenchPoint{
		{Groups: 256, Participants: 4, JoinsPerSec: 100000},
	})
	var sb strings.Builder
	if err := run([]string{oldPath, newPath}, &sb); err != nil {
		t.Fatalf("disjoint fabric shapes must not fail: %v", err)
	}
	mustContain(t, sb.String(), "gone")
	mustContain(t, sb.String(), "new")
}
