// Command perfbench is the repository's end-to-end benchmark. It drives
// the program in-process through its public packages on one of four
// workloads and prints one JSON result line:
//
//	sim-repro      the simulator, the paper's algorithms and the tuner
//	bsp-dedicated  an omp.Team stencil at P = GOMAXPROCS over barrier.New
//	bsp-oversub    the same stencil at P = 4 x GOMAXPROCS
//	fabric-open    open-loop joins on about a thousand fabric groups
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer self times from a traced run. Every
// run checks the program's outputs; only a failed check makes it exit
// non-zero. See README.md for the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// procStart approximates the process start: package variables are
// initialized before main runs, after only the Go runtime's own start.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one run shares across its workload code: the
// seed, the tracer (nil when untraced), the operation counts and the
// failed checks.
type bench struct {
	seed      int64
	tr        *tracer
	attempted int64
	failed    int64
	errMu     sync.Mutex // fail runs on the fabric receiver too
	errs      []string
	metrics   map[string]metric
	setupS    float64
}

// fail records a failed output check. The run continues so that every
// check reports, and exits non-zero at the end.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	}
	b.errs = append(b.errs, msg)
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// markSetup records setup_s: the time from process start to the first
// timed operation. Only the first call counts.
func (b *bench) markSetup() {
	if b.setupS == 0 {
		b.setupS = time.Since(procStart).Seconds()
	}
}

// endToEnd is what an untraced workload measures.
type endToEnd struct {
	opsPerS   float64
	p50us     float64
	tailus    float64
	cpuusPer  float64
	tailLabel string
	// peakRSSMiB, when set, replaces the process's peak resident set
	// read at the end of the run.
	peakRSSMiB float64
}

// workload runs one workload for d. Untraced, it returns the
// end-to-end figures; traced (b.tr != nil), it records per-layer
// metrics through b.set and its return value only feeds the
// tracing-overhead line on standard error.
type workload func(b *bench, d time.Duration) endToEnd

var workloads = map[string]workload{
	"sim-repro":     runSimRepro,
	"bsp-dedicated": func(b *bench, d time.Duration) endToEnd { return runBSP(b, d, 1) },
	"bsp-oversub":   func(b *bench, d time.Duration) endToEnd { return runBSP(b, d, 4) },
	"fabric-open":   runFabricOpen,
}

// tracedCompanions lists, per workload, the other workloads whose
// layers a traced run also measures, so that every traced run reports
// every per-layer metric. A bsp workload brings the barrier probes at
// its own P; the others borrow bsp-dedicated's.
var tracedCompanions = map[string][]string{
	"sim-repro":     {"bsp-dedicated", "fabric-open"},
	"bsp-dedicated": {"sim-repro", "fabric-open"},
	"bsp-oversub":   {"sim-repro", "fabric-open"},
	"fabric-open":   {"sim-repro", "bsp-dedicated"},
}

func main() {
	name := flag.String("workload", "", "workload: sim-repro, bsp-dedicated, bsp-oversub or fabric-open")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", names)
		os.Exit(2)
	}
	b := &bench{seed: *seed, metrics: map[string]metric{}}
	d := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		e := w(b, d)
		b.set("ops_per_s", e.opsPerS, "ops/s")
		b.set("op_p50_us", e.p50us, "us")
		b.set("op_tail_us", e.tailus, "us")
		b.set("cpu_us_per_op", e.cpuusPer, "us")
		rss := e.peakRSSMiB
		if rss == 0 {
			rss = peakRSSMiB()
		}
		b.set("peak_rss_mib", rss, "MiB")
		b.set("setup_s", b.setupS, "s")
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d ops/s=%.1f p50=%.2fus %s=%.2fus cpu/op=%.2fus\n",
			*name, *seed, e.opsPerS, e.p50us, e.tailLabel, e.tailus, e.cpuusPer)
	} else {
		b.tr = newTracer()
		// The named workload gets most of the time; its companions run
		// long enough to give their layers' numbers.
		e := w(b, d*3/5)
		fmt.Fprintf(os.Stderr, "perfbench: traced %s seed=%d ops/s=%.1f p50=%.2fus %s=%.2fus\n",
			*name, *seed, e.opsPerS, e.p50us, e.tailLabel, e.tailus)
		// attempted and failed count the named workload's operations
		// only. The companions' checks still run, and a failed one
		// still fails the run.
		attempted, failed := b.attempted, b.failed
		for _, c := range tracedCompanions[*name] {
			workloads[c](b, d/5)
		}
		b.attempted, b.failed = attempted, failed
		if path, err := b.tr.write(*name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}
	b.errMu.Lock()
	res := result{
		Correct:   len(b.errs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	b.errMu.Unlock()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
