package fabric

// The fabric's flavour of the repository's observability bargain: the
// per-group rollups (round sampling, join-wait and skew histograms)
// must cost under 10% of join throughput even with a thousand live
// groups — the scale where per-group telemetry usually gets turned
// off. The 1-in-K sampling is what makes the budget hold: an unsampled
// round's arrivals pay one padded-flag load each and nothing else.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
)

// joinLoop drives b.N rounds on each of the fabric's groups with P
// closed-loop generators per group.
func joinLoop(b *testing.B, f *Fabric, groups []*Group, p int) {
	ctx := context.Background()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, g := range groups {
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func(g *Group) {
				defer wg.Done()
				for r := 0; r < b.N; r++ {
					if o := <-g.Arrive(ctx); o.Err != nil {
						b.Error(o.Err)
						return
					}
				}
			}(g)
		}
	}
	wg.Wait()
}

// benchFabric builds a fabric holding `groups` live async groups of P.
func benchFabric(b *testing.B, sampleEvery, groups, p int) (*Fabric, []*Group) {
	f := New(Config{SampleEvery: sampleEvery})
	gs := make([]*Group, groups)
	for i := range gs {
		g, err := f.Group(fmt.Sprintf("g%04d", i), GroupConfig{Participants: p})
		if err != nil {
			b.Fatal(err)
		}
		gs[i] = g
	}
	return f, gs
}

// TestRollupOverheadGuard enforces the <10% sampling budget at 1024
// live groups: joins with rollups on (default 1-in-16 sampling) vs
// rollups off entirely. Best of several attempts, like the obs guard —
// single-run throughput on a shared host is a lottery.
func TestRollupOverheadGuard(t *testing.T) {
	if os.Getenv("ARMBARRIER_SKIP_OVERHEAD_GUARD") != "" {
		t.Skip("ARMBARRIER_SKIP_OVERHEAD_GUARD set")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race detector distorts the overhead ratio")
	}
	const (
		groups   = 1024
		p        = 2
		budget   = 1.10
		attempts = 4
	)
	best := 0.0
	for a := 0; a < attempts; a++ {
		bare := testing.Benchmark(func(b *testing.B) {
			f, gs := benchFabric(b, -1, groups, p) // rollups disabled
			defer f.Close()
			joinLoop(b, f, gs, p)
		})
		sampled := testing.Benchmark(func(b *testing.B) {
			f, gs := benchFabric(b, 0, groups, p) // default 1-in-16 sampling
			defer f.Close()
			joinLoop(b, f, gs, p)
		})
		ratio := float64(sampled.NsPerOp()) / float64(bare.NsPerOp())
		t.Logf("attempt %d: bare %d ns/round-wave, sampled %d ns/round-wave, ratio %.3f",
			a, bare.NsPerOp(), sampled.NsPerOp(), ratio)
		if a == 0 || ratio < best {
			best = ratio
		}
		if best < budget {
			return
		}
	}
	t.Errorf("per-group rollup overhead %.1f%% exceeds the %.0f%% budget at %d live groups (best of %d attempts)",
		(best-1)*100, (budget-1)*100, groups, attempts)
}
