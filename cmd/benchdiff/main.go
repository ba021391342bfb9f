// Benchdiff compares two BENCH_*.json reports written by
// `barrierbench -jsonout` and flags overhead regressions beyond a
// noise threshold. It is the review-time companion to the sweep: run
// the bench on the baseline commit, run it on the candidate, then
//
//	benchdiff old.json new.json
//	benchdiff -threshold 0.05 old.json new.json
//
// Results are matched on (algorithm, thread count). A combination
// whose overhead grew by more than the threshold (default 10%) is
// flagged as a REGRESSION and the exit status is nonzero, so the tool
// slots directly into CI or a pre-merge script. Improvements and
// combinations present in only one report are listed but never fail
// the run.
//
// Collective results from `barrierbench -collective allreduce` carry
// the "+ar-fused" and "+ar-2ep" name suffixes; they diff like any
// other name, and when the new report holds both halves of a pair the
// tool additionally prints the geomean fused-over-unfused speedup.
//
// Reports from the retired -fabric and -elastic modes (BENCH_pr9.json,
// BENCH_pr10.json) carry no per-algorithm results and are refused.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"armbarrier/epcc"
	"armbarrier/obs"
)

// errRegression is the sentinel run returns when at least one
// combination regressed; main turns it into exit status 1.
var errRegression = errors.New("benchdiff: regression detected")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errRegression) {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
		}
		os.Exit(1)
	}
}

// report is the subset of barrierbench's -jsonout document benchdiff
// needs; unknown fields are ignored so the formats can evolve
// independently.
type report struct {
	Timestamp  string        `json:"timestamp"`
	Mode       string        `json:"mode"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	WaitPolicy string        `json:"wait_policy"`
	Results    []epcc.Result `json:"results"`
	// Telemetry is present when the sweep ran with -metrics or
	// -phases; the phase series inside it feeds the per-phase geomean
	// deltas. Reports without it diff fine — the phase summary is
	// simply omitted.
	Telemetry []obs.Snapshot `json:"telemetry,omitempty"`
}

// key identifies one measured combination across the two reports.
type key struct {
	name    string
	threads int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	threshold := fs.Float64("threshold", 0.10,
		"relative overhead growth that counts as a regression (0.10 = 10%)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [-threshold f] old.json new.json")
	}
	oldRep, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	if oldRep.Mode != newRep.Mode {
		fmt.Fprintf(out, "note: comparing different modes (%q vs %q)\n", oldRep.Mode, newRep.Mode)
	}
	if oldRep.WaitPolicy != newRep.WaitPolicy {
		fmt.Fprintf(out, "note: comparing different wait policies (%q vs %q)\n", oldRep.WaitPolicy, newRep.WaitPolicy)
	}
	if oldRep.GOMAXPROCS != 0 && newRep.GOMAXPROCS != 0 && oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Fprintf(out, "note: comparing different GOMAXPROCS (%d vs %d); regimes use the new report's\n",
			oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
	}

	if regressions := diffBarrier(out, oldRep, newRep, *threshold); regressions > 0 {
		fmt.Fprintf(out, "\n%d regression(s) beyond %.0f%% threshold\n", regressions, *threshold*100)
		return errRegression
	}
	fmt.Fprintf(out, "\nno regressions beyond %.0f%% threshold\n", *threshold*100)
	return nil
}

// diffBarrier diffs the per-episode overhead results (lower is better)
// and returns how many combinations regressed.
func diffBarrier(out io.Writer, oldRep, newRep report, threshold float64) int {
	oldBy := index(oldRep.Results)
	newBy := index(newRep.Results)
	keys := make([]key, 0, len(oldBy))
	for k := range oldBy {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].threads < keys[j].threads
	})

	fmt.Fprintf(out, "%-16s %8s %12s %12s %8s\n", "algorithm", "threads", "old ns", "new ns", "delta")
	regressions := 0
	// Per-regime log-ratio accumulators for the geomean summary.
	regimeLogSum := map[string]float64{}
	regimeCount := map[string]int{}
	// Per-P accumulators for multi-P sweep reports (-plist runs).
	plogSum := map[int]float64{}
	pcount := map[int]int{}
	for _, k := range keys {
		o := oldBy[k]
		n, ok := newBy[k]
		if !ok {
			fmt.Fprintf(out, "%-16s %8d %12.1f %12s %8s\n", k.name, k.threads, o.OverheadNs, "-", "gone")
			continue
		}
		delete(newBy, k)
		delta := (n.OverheadNs - o.OverheadNs) / o.OverheadNs
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		if o.OverheadNs > 0 && n.OverheadNs > 0 {
			regime := epcc.Regime(k.threads, newRep.GOMAXPROCS)
			regimeLogSum[regime] += math.Log(n.OverheadNs / o.OverheadNs)
			regimeCount[regime]++
			plogSum[k.threads] += math.Log(n.OverheadNs / o.OverheadNs)
			pcount[k.threads]++
		}
		fmt.Fprintf(out, "%-16s %8d %12.1f %12.1f %+7.1f%%%s\n",
			k.name, k.threads, o.OverheadNs, n.OverheadNs, delta*100, mark)
	}
	for k, n := range newBy {
		fmt.Fprintf(out, "%-16s %8d %12s %12.1f %8s\n", k.name, k.threads, "-", n.OverheadNs, "new")
	}
	for _, regime := range []string{"dedicated", "oversubscribed"} {
		if c := regimeCount[regime]; c > 0 {
			geomean := math.Exp(regimeLogSum[regime] / float64(c))
			fmt.Fprintf(out, "geomean %s: %+.1f%% over %d combination(s)\n", regime, (geomean-1)*100, c)
		}
	}
	printPerThreadDeltas(out, plogSum, pcount)
	printPhaseDeltas(out, oldRep.Telemetry, newRep.Telemetry)
	printFusedSpeedup(out, newRep.Results)
	return regressions
}

func load(path string) (report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return report{}, fmt.Errorf("%s: no results (mode %q)", path, rep.Mode)
	}
	return rep, nil
}

// printPerThreadDeltas breaks the geomean down per participant count —
// the scaling view a multi-P sweep (barrierbench -plist) calls for,
// where a single pooled number would hide a large-P regression behind
// small-P wins. Old single-P reports pool to one thread count, where
// the breakdown adds nothing beyond the regime summary, so it is
// skipped — the graceful-fallback path.
func printPerThreadDeltas(out io.Writer, logSum map[int]float64, count map[int]int) {
	if len(count) < 2 {
		return
	}
	ps := make([]int, 0, len(count))
	for p := range count {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		g := math.Exp(logSum[p] / float64(count[p]))
		fmt.Fprintf(out, "geomean %dT: %+.1f%% over %d combination(s)\n", p, (g-1)*100, count[p])
	}
}

// phaseKey identifies one phase's median series across the reports.
type phaseKey struct {
	name    string
	threads int
	phase   string
}

// phaseMedians extracts each instrumented combination's per-phase
// median-sum cost (the measured analogue of the model's per-phase
// totals) from a report's telemetry, skipping snapshots without phase
// data.
func phaseMedians(snaps []obs.Snapshot) map[phaseKey]float64 {
	m := map[phaseKey]float64{}
	for _, s := range snaps {
		if s.Phases == nil {
			continue
		}
		for _, ph := range []string{"arrival", "wakeup"} {
			if v := s.Phases.PhaseMedianSumNs(ph); !math.IsNaN(v) && v > 0 {
				m[phaseKey{s.Barrier, s.Participants, ph}] = v
			}
		}
	}
	return m
}

// printPhaseDeltas reports the geomean change of the per-phase median
// costs between the two reports, one line per phase. Either report
// lacking phase telemetry (old sweeps, runs without -phases) prints
// nothing — the diff degrades gracefully.
func printPhaseDeltas(out io.Writer, oldSnaps, newSnaps []obs.Snapshot) {
	oldM, newM := phaseMedians(oldSnaps), phaseMedians(newSnaps)
	logSum := map[string]float64{}
	count := map[string]int{}
	for k, o := range oldM {
		if n, ok := newM[k]; ok {
			logSum[k.phase] += math.Log(n / o)
			count[k.phase]++
		}
	}
	for _, ph := range []string{"arrival", "wakeup"} {
		if c := count[ph]; c > 0 {
			g := math.Exp(logSum[ph] / float64(c))
			fmt.Fprintf(out, "geomean %s-phase median delta: %+.1f%% over %d combination(s)\n",
				ph, (g-1)*100, c)
		}
	}
}

// printFusedSpeedup pairs the collective results written by
// `barrierbench -collective allreduce` — "<algo>+ar-fused" against
// "<algo>+ar-2ep" at the same thread count — and reports the geomean
// speedup of the fused path in the new report. Reports without
// collective results print nothing.
func printFusedSpeedup(out io.Writer, rs []epcc.Result) {
	fused := map[key]float64{}
	unfused := map[key]float64{}
	for _, r := range rs {
		if base, ok := strings.CutSuffix(r.Name, epcc.FusedSuffix); ok {
			fused[key{base, r.Threads}] = r.OverheadNs
		} else if base, ok := strings.CutSuffix(r.Name, epcc.UnfusedSuffix); ok {
			unfused[key{base, r.Threads}] = r.OverheadNs
		}
	}
	var logSum float64
	n := 0
	for k, f := range fused {
		if u, ok := unfused[k]; ok && f > 0 && u > 0 {
			logSum += math.Log(u / f)
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(out, "geomean fused allreduce speedup (new report): %.2fx over %d pair(s)\n",
			math.Exp(logSum/float64(n)), n)
	}
}

func index(rs []epcc.Result) map[key]epcc.Result {
	m := make(map[key]epcc.Result, len(rs))
	for _, r := range rs {
		m[key{r.Name, r.Threads}] = r
	}
	return m
}
