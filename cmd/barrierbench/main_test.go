package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunSmallSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-threads", "1,2", "-algos", "central,optimized", "-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"central", "optimized", "1T", "2T"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-threads", "2", "-algos", "mcs", "-episodes", "50", "-repeats", "1", "-csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "algorithm,2T") {
		t.Fatalf("CSV header missing:\n%s", sb.String())
	}
}

func TestRegionsMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-regions", "-threads", "2", "-algos", "central", "-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "parallel-region overhead") {
		t.Fatalf("regions title missing:\n%s", sb.String())
	}
}

func TestMetricsTable(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-metrics", "-threads", "1,2", "-algos", "optimized,central",
		"-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Barrier telemetry", "rounds", "wait p50ns", "skew maxns"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var sb strings.Builder
	err := run([]string{"-jsonout", path, "-threads", "2", "-algos", "optimized",
		"-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Mode != "barrier" || rep.GOMAXPROCS < 1 || rep.Timestamp == "" {
		t.Fatalf("report metadata wrong: %+v", rep)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "optimized" || rep.Results[0].Threads != 2 {
		t.Fatalf("report results wrong: %+v", rep.Results)
	}
	if len(rep.Telemetry) != 0 {
		t.Fatalf("telemetry present without -metrics: %+v", rep.Telemetry)
	}
}

func TestJSONOutDirWithMetrics(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{"-jsonout", dir, "-metrics", "-threads", "2", "-algos", "mcs",
		"-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one BENCH_*.json in %s, got %v (%v)", dir, matches, err)
	}
	buf, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Telemetry) != 1 {
		t.Fatalf("want 1 telemetry snapshot, got %d", len(rep.Telemetry))
	}
	snap := rep.Telemetry[0]
	if snap.Barrier != "mcs" || snap.Participants != 2 || snap.TotalRounds() == 0 {
		t.Fatalf("telemetry snapshot wrong: %+v", snap)
	}
	if !strings.Contains(sb.String(), "wrote ") {
		t.Fatalf("output does not mention the written file:\n%s", sb.String())
	}
}

func TestTraceMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-trace", "-traceskew", "1", "-tracetop", "2", "-tracegroup", "2",
		"-threads", "4", "-algos", "optimized", "-episodes", "200", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Captured episodes", "== optimized/4T:", "skew", "max wait",
		"p00 |", "p03 |", "straggler attribution", "by group of 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceOutChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	err := run([]string{"-traceout", path, "-traceskew", "1",
		"-threads", "2", "-algos", "central,mcs", "-episodes", "200", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	names := map[string]bool{}
	var sawWait bool
	for _, e := range doc.TraceEvents {
		if e.Name == "process_name" {
			names[e.Args["name"].(string)] = true
		}
		if e.Name == "wait" && e.Ph == "X" {
			sawWait = true
		}
	}
	if !names["central/2T"] || !names["mcs/2T"] {
		t.Fatalf("process rows missing: %v", names)
	}
	if !sawWait {
		t.Fatal("no wait slices in trace")
	}
	// -traceout alone must not print the episode report.
	if strings.Contains(sb.String(), "Captured episodes") {
		t.Fatalf("episode report printed without -trace:\n%s", sb.String())
	}
}

func TestCollectiveMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-collective", "allreduce", "-threads", "2,4",
		"-algos", "central,optimized", "-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Fused allreduce vs two-episode reduction",
		"fused/barrier", "speedup", "central", "optimized",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("collective output missing %q:\n%s", want, out)
		}
	}
	// central has no fused path; its rows must show the '-' placeholder.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "central") && !strings.Contains(line, "-") {
			t.Errorf("central row missing placeholder: %s", line)
		}
	}
}

func TestCollectiveJSONOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var sb strings.Builder
	err := run([]string{"-collective", "allreduce", "-jsonout", path, "-threads", "2",
		"-algos", "optimized", "-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Mode != "allreduce" {
		t.Fatalf("mode = %q, want allreduce", rep.Mode)
	}
	names := map[string]bool{}
	for _, r := range rep.Results {
		names[r.Name] = true
	}
	for _, want := range []string{"optimized", "optimized+ar-fused", "optimized+ar-2ep"} {
		if !names[want] {
			t.Errorf("results missing %q: %v", want, names)
		}
	}
}

func TestCollectiveUnknownMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-collective", "gather"}, &sb); err == nil {
		t.Fatal("accepted unknown collective mode")
	}
}

func TestWaitPolicyFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var sb strings.Builder
	err := run([]string{"-wait", "spinpark", "-jsonout", path, "-threads", "2,4",
		"-algos", "central,optimized", "-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wait=spinpark") {
		t.Fatalf("table title does not name the wait policy:\n%s", sb.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.WaitPolicy != "spinpark" {
		t.Fatalf("wait_policy = %q, want spinpark", rep.WaitPolicy)
	}
}

// TestWaitPolicyResolvedPerRegime: the title and wait_policy report the
// policy the barriers resolved to, so an explicit spin-yield stays
// spin-yield past GOMAXPROCS and the default names both regimes.
func TestWaitPolicyResolvedPerRegime(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ wait, want string }{
		{"spinyield", "spinyield"},
		{"", "spinyield+spinpark"},
	} {
		path := filepath.Join(t.TempDir(), "out.json")
		var sb strings.Builder
		err := run([]string{"-wait", tc.wait, "-jsonout", path, "-threads", fmt.Sprintf("%d,%d", procs, procs+1),
			"-algos", "optimized", "-episodes", "50", "-repeats", "1"}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "wait="+tc.want+")") {
			t.Errorf("-wait %q: title does not name wait=%s:\n%s", tc.wait, tc.want, sb.String())
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep benchReport
		if err := json.Unmarshal(buf, &rep); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if rep.WaitPolicy != tc.want {
			t.Errorf("-wait %q: wait_policy = %q, want %q", tc.wait, rep.WaitPolicy, tc.want)
		}
	}
}

func TestWaitPolicyUnknown(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-wait", "nap"}, &sb); err == nil {
		t.Fatal("accepted unknown wait policy")
	}
}

func TestOversubSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-oversub", "-wait", "spinpark", "-algos", "optimized",
		"-episodes", "50", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	out := sb.String()
	for _, p := range []int{procs, 2 * procs, 4 * procs} {
		if !strings.Contains(out, fmt.Sprintf("%dT", p)) {
			t.Errorf("oversubscription sweep missing %dT column:\n%s", p, out)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-algos", "nope"}, &sb); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestBadThreads(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-threads", "0"}, &sb); err == nil {
		t.Fatal("accepted thread count 0")
	}
	if err := run([]string{"-threads", "x"}, &sb); err == nil {
		t.Fatal("accepted non-numeric thread count")
	}
}

func TestParseThreadsDefault(t *testing.T) {
	ts, err := parseThreads("")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 || ts[0] != 1 {
		t.Fatalf("default sweep = %v", ts)
	}
	if ts[len(ts)-1] != runtime.GOMAXPROCS(0) {
		t.Fatalf("default sweep %v does not end at GOMAXPROCS", ts)
	}
}

func TestAlgosRegistryComplete(t *testing.T) {
	if len(order) != len(algos) {
		t.Fatalf("order has %d entries, algos map has %d", len(order), len(algos))
	}
	for _, n := range order {
		if _, ok := algos[n]; !ok {
			t.Errorf("ordered algorithm %q missing from map", n)
		}
	}
}
