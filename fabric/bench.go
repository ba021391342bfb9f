package fabric

// The fabric benchmark: the joins/sec closed-loop load the acceptance
// numbers come from, as a library so `barrierbench -fabric` and tests
// share one implementation.
//
// Shape: G groups × P generator goroutines per group; every generator
// performs exactly Episodes joins. The fixed per-generator episode
// count is what makes teardown trivial — all P generators of a group
// run the same count, so every round assembles completely and no group
// is left holding a partial round. Throughput is total joins over wall
// time; join latency (Arrive to outcome receipt) is sampled
// 1-in-SampleEvery per generator into per-generator local histograms,
// merged after the run — the measurement itself adds no shared state
// to the hot path.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"armbarrier/obs"
)

// BenchConfig shapes one benchmark point.
type BenchConfig struct {
	// Groups and Participants give the fleet shape: Groups independent
	// groups of Participants each.
	Groups, Participants int
	// Episodes is how many joins each generator performs.
	Episodes int
	// SampleEvery is the client-side latency sampling period; 0 means 8.
	SampleEvery int
	// Fabric overrides the fabric configuration (zero value = defaults).
	Fabric Config
}

// BenchPoint is one benchmark result row.
type BenchPoint struct {
	Groups       int     `json:"groups"`
	Participants int     `json:"participants"`
	Episodes     int     `json:"episodes"`
	Joins        uint64  `json:"joins"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	JoinsPerSec  float64 `json:"joins_per_sec"`
	JoinP50Ns    float64 `json:"join_p50_ns"`
	JoinP99Ns    float64 `json:"join_p99_ns"`
}

// RunBench runs one benchmark point to completion and reports it.
func RunBench(cfg BenchConfig) (BenchPoint, error) {
	if cfg.Groups < 1 || cfg.Participants < 1 || cfg.Episodes < 1 {
		return BenchPoint{}, fmt.Errorf("fabric: bench needs groups, participants, episodes >= 1 (got %d, %d, %d)",
			cfg.Groups, cfg.Participants, cfg.Episodes)
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 8
	}
	f := New(cfg.Fabric)
	defer f.Close()

	groups := make([]*Group, cfg.Groups)
	for i := range groups {
		g, err := f.Group(fmt.Sprintf("bench-%05d", i), GroupConfig{Participants: cfg.Participants})
		if err != nil {
			return BenchPoint{}, err
		}
		groups[i] = g
	}

	type genResult struct {
		hist [obs.NumBuckets]uint64
		err  error
	}
	gens := cfg.Groups * cfg.Participants
	results := make([]genResult, gens)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(gens)
	start := time.Now()
	for gi := range groups {
		for pi := 0; pi < cfg.Participants; pi++ {
			go func(g *Group, res *genResult) {
				defer wg.Done()
				for e := 0; e < cfg.Episodes; e++ {
					sampled := e%cfg.SampleEvery == 0
					var t0 time.Time
					if sampled {
						t0 = time.Now()
					}
					o := <-g.Arrive(ctx)
					if o.Err != nil {
						res.err = o.Err
						return
					}
					if sampled {
						res.hist[obs.BucketOf(int64(time.Since(t0)))]++
					}
				}
			}(groups[gi], &results[gi*cfg.Participants+pi])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := make([]uint64, obs.NumBuckets)
	for i := range results {
		if err := results[i].err; err != nil {
			return BenchPoint{}, fmt.Errorf("fabric: bench generator %d: %w", i, err)
		}
		for b, c := range results[i].hist {
			merged[b] += c
		}
	}
	joins := uint64(gens) * uint64(cfg.Episodes)
	pt := BenchPoint{
		Groups:       cfg.Groups,
		Participants: cfg.Participants,
		Episodes:     cfg.Episodes,
		Joins:        joins,
		ElapsedNs:    elapsed.Nanoseconds(),
		JoinsPerSec:  float64(joins) / elapsed.Seconds(),
		JoinP50Ns:    obs.HistQuantileNs(merged, 0.50),
		JoinP99Ns:    obs.HistQuantileNs(merged, 0.99),
	}
	return pt, nil
}
