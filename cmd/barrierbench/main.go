// Command barrierbench measures the wall-clock overhead of the real
// goroutine barriers (package barrier) on the host machine with the
// EPCC methodology, the real-substrate counterpart of cmd/barriersim.
//
// Usage:
//
//	barrierbench                        # all algorithms, default sweep
//	barrierbench -threads 2,4,8         # custom sweep
//	barrierbench -algos central,optimized -episodes 5000
//	barrierbench -metrics               # live telemetry table per algo x P
//	barrierbench -phases                # per-(phase,level) cost tables + model-drift scoreboard
//	barrierbench -stream                # windowed telemetry timeline per measurement
//	barrierbench -collective allreduce  # fused allreduce vs two-episode reduction
//	barrierbench -jsonout results/      # machine-readable BENCH_<ts>.json
//	barrierbench -trace -tracetop 3     # flight recorder: worst episodes as Gantt
//	barrierbench -traceout trace.json   # episodes as Chrome/Perfetto trace JSON
//	barrierbench -fault 2@5:stall -episodes 20
//	                                    # robustness harness: inject faults,
//	                                    # watch the watchdog attribute them
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"armbarrier/barrier"
	"armbarrier/epcc"
	"armbarrier/fabric"
	"armbarrier/internal/faultinject"
	"armbarrier/internal/table"
	"armbarrier/obs"
)

// algos maps command-line names to real barrier constructors. Every
// constructor forwards the options so -wait applies across the board;
// channel has no spin sites, so it ignores them.
var algos = map[string]func(p int, opts ...barrier.Option) barrier.Barrier{
	"central":       func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewCentral(p, o...) },
	"dissemination": func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewDissemination(p, o...) },
	"combining":     func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewCombining(p, 2, o...) },
	"mcs":           func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewMCS(p, o...) },
	"tournament":    func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewTournament(p, o...) },
	"stour":         func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewStaticFWay(p, o...) },
	"dtour":         func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewDynamicFWay(p, o...) },
	"hyper":         func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewHyper(p, o...) },
	"optimized":     func(p int, o ...barrier.Option) barrier.Barrier { return barrier.New(p, o...) },
	"channel":       func(p int, _ ...barrier.Option) barrier.Barrier { return barrier.NewChannel(p) },
	"ring":          func(p int, o ...barrier.Option) barrier.Barrier { return barrier.NewRing(p, o...) },
	"hybrid": func(p int, o ...barrier.Option) barrier.Barrier {
		return barrier.NewHybrid(p, barrier.HybridConfig{}, o...)
	},
	"ndis2": func(p int, o ...barrier.Option) barrier.Barrier {
		return barrier.NewNWayDissemination(p, 2, o...)
	},
	// hier auto-derives its group size from the cached host-latency
	// probe; use -hiergroup to pin it instead.
	"hier": func(p int, o ...barrier.Option) barrier.Barrier {
		return barrier.NewHierarchical(p, barrier.HierarchicalConfig{GroupSize: hierGroupSize}, o...)
	},
}

// hierGroupSize is the -hiergroup flag value picked up by the "hier"
// constructor; 0 keeps the probe-based auto-derivation.
var hierGroupSize int

// order fixes the display order.
var order = []string{
	"central", "dissemination", "combining", "mcs",
	"tournament", "stour", "dtour", "hyper", "optimized",
	"channel", "ring", "hybrid", "ndis2", "hier",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "barrierbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("barrierbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		threadsFlag = fs.String("threads", "", "comma-separated participant counts (default 1,2,4,...,GOMAXPROCS)")
		plistFlag   = fs.String("plist", "", "large-P scaling sweep: comma-separated participant counts run in one invocation into a single report (overrides -threads and -oversub; e.g. 64,256,1024,4096)")
		hierGroup   = fs.Int("hiergroup", 0, "group size for the hier algorithm (0 = probe-based auto-derivation)")
		algosFlag   = fs.String("algos", "", "comma-separated algorithm names (default all)")
		waitFlag    = fs.String("wait", "", "wait policy: spin, spinyield (default), spinpark, adaptive")
		oversub     = fs.Bool("oversub", false, "oversubscription sweep: participants at 1x, 2x and 4x GOMAXPROCS (overrides -threads)")
		collective  = fs.String("collective", "", "collective mode: 'allreduce' benchmarks fused vs barrier-separated reduction per algorithm")
		episodes    = fs.Int("episodes", 2000, "timed barrier episodes per measurement")
		repeats     = fs.Int("repeats", 3, "measurement repeats; the minimum is kept")
		csv         = fs.Bool("csv", false, "emit CSV")
		regions     = fs.Bool("regions", false, "measure omp parallel-region overhead instead of bare barriers")
		metrics     = fs.Bool("metrics", false, "instrument the measured barriers and print a telemetry table")
		phasesFlag  = fs.Bool("phases", false, "arm phase/level probes and print per-(phase,level) cost tables plus the model-drift scoreboard")
		streamFlag  = fs.Bool("stream", false, "attach the windowed telemetry stream and print each measurement's timeline (sparklines, regime, alerts)")
		streamWin   = fs.Duration("streamwindow", 100*time.Millisecond, "stream rotation window for -stream")
		jsonout     = fs.String("jsonout", "", "write results as JSON to this file (or BENCH_<timestamp>.json inside this directory)")
		traceFlag   = fs.Bool("trace", false, "attach a flight recorder and print the worst captured episodes per measurement")
		traceout    = fs.String("traceout", "", "write captured episodes as Chrome trace-event JSON to this file (implies -trace)")
		tracetop    = fs.Int("tracetop", 3, "worst episodes to print per measurement with -trace")
		traceskew   = fs.Int64("traceskew", 0, "absolute arrival-skew capture threshold in ns (0 = trailing p90 quantile trigger)")
		tracegroup  = fs.Int("tracegroup", 0, "participants per topology group in the straggler report (0 = ungrouped)")
		faultFlag   = fs.String("fault", "", "fault-injection specs id@round:kind[:duration], comma-separated (kinds: delay, stall, drop, panic); runs the robustness harness instead of the benchmark")
		faultDL     = fs.Duration("faultdeadline", 50*time.Millisecond, "watchdog stall deadline for -fault runs")
		fabricFlag  = fs.Bool("fabric", false, "benchmark the multi-group barrier fabric (joins/sec) instead of bare barriers")
		fabricG     = fs.String("fabricgroups", "16,256,1024", "comma-separated live group counts for -fabric")
		fabricP     = fs.String("fabricp", "4", "comma-separated participants per group for -fabric")
		fabricEp    = fs.Int("fabricepisodes", 50, "joins per generator per -fabric point")
		elasticFlag = fs.Bool("elastic", false, "benchmark the elastic-membership phaser (churn sweep vs fixed-P central) instead of bare barriers")
		churnFlag   = fs.String("churn", "0,100,1000,10000", "comma-separated membership churn targets (register/deregister cycles per second) for -elastic; 0 = steady state")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fabricFlag {
		groupsList, err := parseThreads(*fabricG)
		if err != nil {
			return err
		}
		pList, err := parseThreads(*fabricP)
		if err != nil {
			return err
		}
		if *fabricEp < 1 {
			return fmt.Errorf("-fabricepisodes must be >= 1, got %d", *fabricEp)
		}
		return runFabric(out, groupsList, pList, *fabricEp, *csv, *jsonout)
	}
	if *elasticFlag {
		wait, err := barrier.ParseWaitPolicy(*waitFlag)
		if err != nil {
			return err
		}
		var wopts []barrier.Option
		if wait != barrier.SpinYieldWait() {
			wopts = append(wopts, barrier.WithWaitPolicy(wait))
		}
		pList, err := parseThreads(*threadsFlag)
		if err != nil {
			return err
		}
		churnList, err := parseChurn(*churnFlag)
		if err != nil {
			return err
		}
		if *episodes < 1 {
			return fmt.Errorf("-episodes must be >= 1, got %d", *episodes)
		}
		return runElastic(out, pList, churnList, *episodes, wopts, *csv, *jsonout)
	}

	tracing := *traceFlag || *traceout != ""
	if *streamFlag && *streamWin <= 0 {
		return fmt.Errorf("-streamwindow must be positive, got %v", *streamWin)
	}

	wait, err := barrier.ParseWaitPolicy(*waitFlag)
	if err != nil {
		return err
	}
	var wopts []barrier.Option
	if wait != barrier.SpinYieldWait() {
		wopts = append(wopts, barrier.WithWaitPolicy(wait))
	}

	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	if *oversub {
		procs := runtime.GOMAXPROCS(0)
		threads = []int{procs, 2 * procs, 4 * procs}
	}
	if *plistFlag != "" {
		if threads, err = parseThreads(*plistFlag); err != nil {
			return err
		}
	}
	if *hierGroup < 0 {
		return fmt.Errorf("-hiergroup must be >= 0, got %d", *hierGroup)
	}
	hierGroupSize = *hierGroup
	names := order
	if *algosFlag != "" {
		names = nil
		for _, n := range strings.Split(*algosFlag, ",") {
			n = strings.TrimSpace(n)
			if _, ok := algos[n]; !ok {
				return fmt.Errorf("unknown algorithm %q (have %s)", n, strings.Join(order, ", "))
			}
			names = append(names, n)
		}
	}

	switch *collective {
	case "":
	case "allreduce":
		return runCollective(out, names, threads, wopts, wait.String(), *episodes, *repeats, *csv, *jsonout)
	default:
		return fmt.Errorf("unknown -collective mode %q (have allreduce)", *collective)
	}

	if *faultFlag != "" {
		faults, err := faultinject.ParseFaults(*faultFlag)
		if err != nil {
			return err
		}
		if *faultDL <= 0 {
			return fmt.Errorf("-faultdeadline must be positive, got %v", *faultDL)
		}
		return runFault(out, names, threads, wopts, wait.String(), *episodes, faults, *faultDL, *csv)
	}

	cols := []string{"algorithm"}
	for _, p := range threads {
		cols = append(cols, fmt.Sprintf("%dT", p))
	}
	title := fmt.Sprintf("Real goroutine barrier overhead (ns/barrier, GOMAXPROCS=%d, wait=%s)",
		runtime.GOMAXPROCS(0), wait)
	measure := epcc.MeasureReal
	if *regions {
		title = fmt.Sprintf("omp parallel-region overhead (ns/region, GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
		measure = epcc.MeasureParallelRegion
	}
	tb := table.New(title, cols...)
	var (
		results  []epcc.Result
		snaps    []obs.Snapshot
		traced   []tracedMeasurement
		streamed []streamedMeasurement
		phased   []phasedMeasurement
		drifts   []obs.DriftSnapshot
	)
	for _, name := range names {
		cells := []string{name}
		for _, p := range threads {
			ropts := epcc.RealOptions{Episodes: *episodes, Repeats: *repeats}
			var in *obs.Instrumented
			var tr *obs.Tracer
			var st *obs.Stream
			// attachStream rides whatever Instrumented the active mode
			// built, so -stream composes with -trace and -metrics.
			attachStream := func(i *obs.Instrumented) {
				if !*streamFlag {
					return
				}
				st = obs.NewStream(i, obs.StreamOptions{Window: *streamWin})
				st.Start()
			}
			switch {
			case tracing:
				// The tracer rides the instrumentation's sampled clock
				// reads; SampleEvery 1 captures every round of the sweep.
				ropts.Wrap = func(b barrier.Barrier) barrier.Barrier {
					topts := obs.TraceOptions{
						Options:         obs.Options{Name: name, SampleEvery: 1, Phases: *phasesFlag},
						SkewThresholdNs: *traceskew,
					}
					if *traceskew == 0 {
						topts.SkewQuantile = 0.9
					}
					tr = obs.Trace(b, topts)
					in = tr.Instrumented
					attachStream(in)
					return tr
				}
			case *metrics || *streamFlag || *phasesFlag:
				// SampleEvery 1: the sweep is short, so exact per-round
				// capture beats the default sampling here.
				ropts.Wrap = func(b barrier.Barrier) barrier.Barrier {
					in = obs.Instrument(b, obs.Options{Name: name, SampleEvery: 1, Phases: *phasesFlag})
					attachStream(in)
					return in
				}
			}
			mk := func(p int) barrier.Barrier { return algos[name](p, wopts...) }
			r, err := measure(mk, p, ropts)
			if err != nil {
				return err
			}
			results = append(results, r)
			if in != nil && (*metrics || *phasesFlag) {
				snaps = append(snaps, in.Snapshot())
			}
			if in != nil && *phasesFlag {
				pm := phasedMeasurement{label: fmt.Sprintf("%s/%dT", name, p)}
				// The drift board's first Observe window is the whole
				// measurement — exactly what a batch sweep wants.
				if board, err := obs.NewDriftBoard(in, obs.DriftConfig{}); err == nil {
					board.Observe()
					sb := board.Scoreboard()
					pm.drift = &sb
					drifts = append(drifts, sb)
				}
				pm.phases = in.Snapshot().Phases
				phased = append(phased, pm)
			}
			if tr != nil {
				tr.Flush()
				traced = append(traced, tracedMeasurement{
					label:     fmt.Sprintf("%s/%dT", name, p),
					episodes:  tr.Episodes(),
					triggered: tr.Triggered(),
				})
			}
			if st != nil {
				st.Stop() // flushes the partial window
				streamed = append(streamed, streamedMeasurement{
					label:    fmt.Sprintf("%s/%dT", name, p),
					timeline: st.Timeline(),
				})
			}
			cells = append(cells, table.Cell(r.OverheadNs))
		}
		tb.AddRow(cells...)
	}
	tb.AddNote("EPCC methodology: minimum of %d repeats of %d episodes, reference loop subtracted", *repeats, *episodes)
	tb.AddNote("goroutines are not pinned; treat trends, not absolute values, as meaningful")
	if *csv {
		fmt.Fprint(out, tb.CSV())
	} else {
		fmt.Fprint(out, tb.Render())
	}
	if *metrics {
		mt := telemetryTable(snaps)
		if *csv {
			fmt.Fprint(out, mt.CSV())
		} else {
			fmt.Fprintln(out)
			fmt.Fprint(out, mt.Render())
		}
	}
	if *phasesFlag {
		printPhases(out, phased)
	}
	if *streamFlag {
		printTimelines(out, streamed)
	}
	if *traceFlag {
		printEpisodes(out, traced, *tracetop, *tracegroup)
	}
	if *traceout != "" {
		if err := writeChrome(*traceout, traced); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *traceout)
	}
	if *jsonout != "" {
		mode := "barrier"
		if *regions {
			mode = "parallel-region"
		}
		path, err := writeJSON(*jsonout, mode, *episodes, *repeats, wait.String(), results, snaps, drifts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return nil
}

// phasedMeasurement is one algorithm x thread-count's phase-resolved
// capture; phases is nil when the algorithm exposes no PhaseProber.
type phasedMeasurement struct {
	label  string
	phases *obs.PhaseSnapshot
	drift  *obs.DriftSnapshot
}

// printPhases renders each measurement's per-(phase, level) cost table
// and its model-drift scoreboard.
func printPhases(out io.Writer, phased []phasedMeasurement) {
	fmt.Fprintf(out, "\nPhase-resolved telemetry (per-level step cost; sampled rounds)\n")
	for _, pm := range phased {
		fmt.Fprintf(out, "\n== %s\n", pm.label)
		if pm.phases == nil {
			fmt.Fprintf(out, "  (no phase probes: algorithm does not implement barrier.PhaseProber)\n")
			continue
		}
		fmt.Fprint(out, obs.FormatPhases(pm.phases))
		if pm.drift != nil {
			fmt.Fprint(out, pm.drift.Format())
		}
	}
}

// tracedMeasurement is one algorithm x thread-count's flight-recorder
// capture.
type tracedMeasurement struct {
	label     string
	episodes  []obs.Episode // worst first
	triggered uint64
}

// printEpisodes renders each measurement's worst episodes as Gantt
// lanes plus a straggler-attribution report.
func printEpisodes(out io.Writer, traced []tracedMeasurement, top, groupSize int) {
	fmt.Fprintf(out, "\nCaptured episodes (worst first; w = waiting in barrier, W = last arriver)\n")
	for _, tm := range traced {
		show := min(top, len(tm.episodes))
		fmt.Fprintf(out, "\n== %s: %d triggers, %d kept, showing %d\n",
			tm.label, tm.triggered, len(tm.episodes), show)
		for _, ep := range tm.episodes[:show] {
			fmt.Fprintf(out, "round %d: skew %d ns, max wait %d ns, last arriver p%d\n%s",
				ep.Round, ep.SkewNs, ep.MaxWaitNs, ep.LastArriver(), ep.Gantt(72))
		}
		if len(tm.episodes) > 0 {
			fmt.Fprint(out, obs.Stragglers(tm.episodes).Format(groupSize))
		}
	}
}

// writeChrome writes all measurements' episodes as one Chrome
// trace-event JSON file, one process row per measurement.
func writeChrome(path string, traced []tracedMeasurement) error {
	groups := make([]obs.ChromeGroup, 0, len(traced))
	for _, tm := range traced {
		groups = append(groups, obs.ChromeGroup{Name: tm.label, Episodes: tm.episodes})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, groups...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// telemetryTable renders one row per measured algorithm x thread-count
// from the instrumented snapshots taken after each measurement.
func telemetryTable(snaps []obs.Snapshot) *table.Table {
	mt := table.New("Barrier telemetry (obs.Instrument, exact per-round capture)",
		"algorithm", "T", "rounds", "spins", "yields", "parks", "wakes",
		"wait p50ns", "wait p99ns", "wait maxns", "skew meanns", "skew maxns")
	for _, s := range snaps {
		var spins, yields, parks, wakes uint64
		var waitMax int64
		for _, ps := range s.PerParti {
			spins += ps.Spins
			yields += ps.Yields
			parks += ps.Parks
			wakes += ps.Wakes
			if ps.WaitMaxNs > waitMax {
				waitMax = ps.WaitMaxNs
			}
		}
		mt.AddRow(s.Barrier, strconv.Itoa(s.Participants),
			strconv.FormatUint(s.TotalRounds(), 10),
			strconv.FormatUint(spins, 10),
			strconv.FormatUint(yields, 10),
			strconv.FormatUint(parks, 10),
			strconv.FormatUint(wakes, 10),
			table.Cell(s.WaitQuantileNs(0.5)),
			table.Cell(s.WaitQuantileNs(0.99)),
			strconv.FormatInt(waitMax, 10),
			table.Cell(s.Skew.MeanNs()),
			strconv.FormatInt(s.Skew.MaxNs, 10))
	}
	mt.AddNote("spins/yields/parks/wakes totalled across participants; wait quantiles over the merged histogram")
	return mt
}

// benchReport is the -jsonout document.
type benchReport struct {
	Timestamp  string         `json:"timestamp"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Mode       string         `json:"mode"`
	WaitPolicy string         `json:"wait_policy"`
	Episodes   int            `json:"episodes"`
	Repeats    int            `json:"repeats"`
	Results    []epcc.Result  `json:"results"`
	Telemetry  []obs.Snapshot `json:"telemetry,omitempty"`
	// Drift holds one model-vs-measured scoreboard per phased
	// measurement (-phases only).
	Drift []obs.DriftSnapshot `json:"drift,omitempty"`
	// Fabric holds the -fabric sweep's throughput points (mode
	// "fabric" reports only).
	Fabric []fabric.BenchPoint `json:"fabric,omitempty"`
	// Elastic holds the -elastic churn sweep's points (mode "elastic"
	// reports only).
	Elastic []epcc.ElasticPoint `json:"elastic,omitempty"`
}

// resolveJSONDest turns a -jsonout value into a concrete file path: an
// existing directory gets a BENCH_<UTC timestamp>.json inside it.
func resolveJSONDest(dest string) string {
	if fi, err := os.Stat(dest); err == nil && fi.IsDir() {
		return filepath.Join(dest, time.Now().UTC().Format("BENCH_20060102T150405Z.json"))
	}
	return dest
}

// writeJSON writes the report to dest (see resolveJSONDest). Returns
// the path actually written.
func writeJSON(dest string, mode string, episodes, repeats int, wait string, results []epcc.Result, snaps []obs.Snapshot, drifts []obs.DriftSnapshot) (string, error) {
	dest = resolveJSONDest(dest)
	rep := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Mode:       mode,
		WaitPolicy: wait,
		Episodes:   episodes,
		Repeats:    repeats,
		Results:    results,
		Telemetry:  snaps,
		Drift:      drifts,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return dest, os.WriteFile(dest, append(buf, '\n'), 0o644)
}

func parseThreads(s string) ([]int, error) {
	if s == "" {
		max := runtime.GOMAXPROCS(0)
		var out []int
		for p := 1; p <= max; p *= 2 {
			out = append(out, p)
		}
		if out[len(out)-1] != max {
			out = append(out, max)
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, p)
	}
	return out, nil
}
