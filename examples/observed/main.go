// Observed: a long-running barrier workload exporting live telemetry
// and a flight recorder of its worst rounds. Four workers cross a
// traced optimized barrier in a loop with deliberately unbalanced
// phase work, while an HTTP server exposes the state four ways:
//
//	/metrics                     Prometheus text exposition (histograms, gauges)
//	/metrics?format=json         the same snapshot as indented JSON
//	/debug/vars                  standard expvar, telemetry published as "barrier"
//	/debug/episodes              captured episodes as JSON (worst first)
//	/debug/episodes?format=gantt text Gantt lanes + straggler attribution
//	/debug/episodes?format=chrome Chrome trace JSON — load in Perfetto
//	/debug/watchdog              stall detector state (armbarrier_watchdog_* families)
//	/debug/timeline              windowed time-series rollups as JSON (with alerts)
//	/debug/timeline?format=text  the same series as ASCII sparklines
//	/debug/timeline?format=prom  current-window gauges (armbarrier_stream_* families)
//	/debug/phases                per-(phase,level) costs + model-drift scoreboard (JSON)
//	/debug/phases?format=prom    the same as armbarrier_phase_*/armbarrier_drift_* families
//	/debug/phases?format=text    the drift scoreboard as an aligned table
//
// Run and scrape:
//
//	go run ./examples/observed &
//	curl -s localhost:8377/metrics | grep armbarrier_wait_latency
//	curl -s 'localhost:8377/debug/episodes?format=gantt'
//
// Worker goroutines carry pprof labels (barrier=phase-loop,
// participant=N), so CPU profiles split per participant; under
// `go test -trace` / runtime/trace the barrier rounds appear as
// regions. Ctrl-C (or SIGTERM) drains the workers through the barrier
// — all leave on the same round — and shuts the server down cleanly.
//
// Pass -once to run a short burst and print the exposition plus any
// captured episodes to stdout instead of serving (used by the repo's
// tests).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"armbarrier/barrier"
	"armbarrier/obs"
)

func main() {
	var (
		addr = flag.String("addr", "localhost:8377", "metrics listen address")
		once = flag.Bool("once", false, "run a short burst and print the exposition instead of serving")
	)
	flag.Parse()

	const workers = 4
	// SampleEvery 1 keeps every round in the histograms and the flight
	// recorder; the workload's phase work dwarfs the two clock reads, so
	// exactness is free here. The trailing-quantile trigger captures the
	// occasional round whose skew escapes the stable id-microsecond
	// spread — scheduler preemptions, mostly.
	tr := obs.Trace(barrier.New(workers), obs.TraceOptions{
		Options: obs.Options{
			Name:        "phase-loop",
			SampleEvery: 1,
			Phases:      true,
		},
		RuntimeTrace: true,
	})
	defer tr.Close()

	// The drift board compares the per-phase measurements against the
	// model's per-level predictions; it rides the stream's rotation, so
	// a sustained divergence lands in the same alert log as stalls.
	drift, err := obs.NewDriftBoard(tr.Instrumented, obs.DriftConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// The watchdog wraps the tracer, so a worker that stops arriving —
	// a deadlock in phase work, a lost wakeup — is detected and named
	// within a second instead of wedging the loop silently. One second
	// dwarfs the microsecond phase work, so it cannot false-positive.
	wd := barrier.NewWatchdog(tr, barrier.WatchdogConfig{
		Deadline: time.Second,
		OnStall:  func(s barrier.Stall) { log.Printf("watchdog: %s", s) },
	})

	// The stream turns the live counters into a windowed time-series:
	// per-second rollups (yield and park rates among them),
	// change-point and straggler alerts. Alerts go to the log the same
	// way stalls do.
	st := obs.NewStream(tr.Instrumented, obs.StreamOptions{
		Window:   time.Second,
		Watchdog: wd,
		Drift:    drift,
		OnAlert:  func(a obs.Alert) { log.Printf("%s", a) },
	})

	if *once {
		runBurst(tr, wd, 200)
		st.Stop() // flush the burst into a window
		if err := obs.WritePrometheus(os.Stdout, tr.Snapshot()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s", obs.RenderTimeline(st.Timeline(), 72))
		fmt.Printf("\n%s", drift.Scoreboard().Format())
		if eps := tr.Episodes(); len(eps) > 0 {
			fmt.Printf("\ncaptured %d episode(s), worst:\n%s", len(eps), eps[0].Gantt(72))
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// exitRound coordinates shutdown through the barrier itself: when
	// the signal arrives, worker 0 publishes the round index everyone
	// should leave after, before its own arrival in that round. A bare
	// "leave" flag would deadlock — a worker still spinning in round R
	// can observe a flag worker 0 set for round R+1 and exit early,
	// stranding worker 0 at the next barrier. Comparing the local round
	// counter against the published index makes late readers keep the
	// group company until the agreed round.
	var exitRound atomic.Int64
	exitRound.Store(-1)
	var workersDone sync.WaitGroup
	workersDone.Add(1)
	wd.Start()
	st.Start()
	go func() {
		defer workersDone.Done()
		barrier.Run(wd, func(id int) {
			tr.Do(id, func() { // pprof label: participant=id
				for r := int64(0); ; r++ {
					// Unbalanced phases: worker id spins id extra
					// microseconds, so the arrival-skew gauges show a
					// stable spread.
					busy(time.Duration(id) * time.Microsecond)
					if id == 0 && ctx.Err() != nil && exitRound.Load() < 0 {
						exitRound.Store(r)
					}
					wd.Wait(id)
					if er := exitRound.Load(); er >= 0 && r >= er {
						return
					}
				}
			})
		})
		tr.Flush() // promote the final pending round, if interesting
	}()

	tr.Publish("barrier") // expvar: /debug/vars
	mux := http.NewServeMux()
	mux.Handle("/metrics", tr.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/episodes", tr.EpisodesHandler())
	mux.Handle("/debug/watchdog", obs.WatchdogHandler(wd))
	mux.Handle("/debug/timeline", st.TimelineHandler())
	mux.Handle("/debug/phases", obs.PhasesHandler(tr.Instrumented, drift))
	srv := &http.Server{Addr: *addr, Handler: mux}
	fmt.Printf("serving barrier telemetry on http://%s/metrics (episodes at /debug/episodes, timeline at /debug/timeline)\n", *addr)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	<-ctx.Done()
	fmt.Println("\nshutting down: draining workers through the barrier")
	workersDone.Wait()
	st.Stop()
	wd.Stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("server shutdown: %v", err)
	}
	fmt.Printf("done: %d rounds, %d episodes captured\n",
		tr.Snapshot().TotalRounds(), len(tr.Episodes()))
}

// runBurst drives a fixed number of rounds with the same unbalanced
// phase shape the serving mode uses, through the same watchdog-wrapped
// barrier b.
func runBurst(tr *obs.Tracer, b barrier.Barrier, rounds int) {
	barrier.Run(b, func(id int) {
		tr.Do(id, func() {
			for r := 0; r < rounds; r++ {
				busy(time.Duration(id) * time.Microsecond)
				b.Wait(id)
			}
		})
	})
	tr.Flush()
}

// busy spins for roughly d without sleeping, so the wait-time the
// barrier observes comes from arrival skew, not the scheduler.
func busy(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}
