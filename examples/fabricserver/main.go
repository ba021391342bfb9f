// Fabricserver: the barrier fabric behind an HTTP API — the service
// shape the fabric package exists for. Every request is one fork-join
// against a named group: POST /join?group=G&p=N arrives at group G
// (created on first use with N participants) and responds when the
// round completes, so N concurrent requests rendezvous in the server
// the way N goroutines rendezvous at a barrier. The request handler
// never parks a goroutine per waiter beyond its own: the arrival is
// one CAS, the response unblocks on the fabric's batched wake-up.
//
//	go run ./examples/fabricserver
//	curl -X POST 'localhost:8390/join?group=build&p=3'   (×3, concurrently)
//
// GET /debug/fabric returns the registry snapshot (per-group rounds,
// sampled join quantiles, arrival skew); a background watchdog logs
// groups whose round is stuck, naming the group rather than wedging
// anything else. Pass -once to run a self-contained burst in-process
// and print the snapshot instead of serving.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"armbarrier/fabric"
)

func main() {
	var (
		addr  = flag.String("addr", "localhost:8390", "listen address")
		once  = flag.Bool("once", false, "run a local burst and print the snapshot instead of serving")
		sweep = flag.Duration("sweep", time.Minute, "collect groups idle for this long (0 disables)")
	)
	flag.Parse()

	f := fabric.New(fabric.Config{
		StallDeadline: 2 * time.Second,
		OnStall:       func(s fabric.Stall) { log.Printf("stall: %s", s) },
	})
	defer f.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("group")
		if name == "" {
			http.Error(w, "missing ?group=", http.StatusBadRequest)
			return
		}
		p, err := strconv.Atoi(r.URL.Query().Get("p"))
		if err != nil || p < 1 {
			http.Error(w, "missing or bad ?p= (participants)", http.StatusBadRequest)
			return
		}
		// &elastic=1 makes the group's size follow the requests: a later
		// caller asking for a different p resizes the group instead of
		// getting a 409, so late joiners can widen the rendezvous.
		elastic := r.URL.Query().Get("elastic") == "1"
		g, err := f.Group(name, fabric.GroupConfig{Participants: p, Elastic: elastic})
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		round, err := g.Join(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
			return
		}
		fmt.Fprintf(w, "group %s round %d complete (%d participants)\n", name, round, p)
	})
	mux.HandleFunc("GET /debug/fabric", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(f.Snapshot(true))
	})

	// The sweeper stops with the process: a ticker tied to the shutdown
	// context (time.Tick would leak the ticker and pin this goroutine —
	// and the Fabric it closes over — past any graceful shutdown).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var sweeper sync.WaitGroup
	if *sweep > 0 {
		sweeper.Add(1)
		go func() {
			defer sweeper.Done()
			t := time.NewTicker(*sweep)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n := f.Sweep(*sweep); n > 0 {
						log.Printf("swept %d idle groups", n)
					}
				}
			}
		}()
	}

	if *once {
		runBurst(f)
		snap := f.Snapshot(true)
		out, _ := json.MarshalIndent(snap, "", "  ")
		os.Stdout.Write(append(out, '\n'))
		stop()
		sweeper.Wait()
		return
	}

	srv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	log.Printf("fabricserver on http://%s  (POST /join?group=G&p=N, GET /debug/fabric)", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	sweeper.Wait()
}

// runBurst drives the fabric the way concurrent requests would: a few
// named groups, each joined by its full complement for many rounds.
func runBurst(f *fabric.Fabric) {
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, shape := range []struct {
		name string
		p    int
	}{{"build", 3}, {"deploy", 5}, {"canary", 2}} {
		g, err := f.Group(shape.name, fabric.GroupConfig{Participants: shape.p})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < shape.p; i++ {
			wg.Add(1)
			go func(g *fabric.Group) {
				defer wg.Done()
				for r := 0; r < 100; r++ {
					if _, err := g.Join(ctx); err != nil {
						log.Printf("join %s: %v", g.Name(), err)
						return
					}
				}
			}(g)
		}
	}
	wg.Wait()
}
