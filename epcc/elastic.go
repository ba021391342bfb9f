package epcc

// Elastic (dynamic-membership) measurement: the churn sweep (how round
// time grows with the membership change rate, INSIGHTS §17) and the
// phaser's steady-state acceptance bound (within 1.3x of the fixed-P
// central barrier at equal P).
//
// The harness deliberately does NOT subtract an EPCC reference loop:
// the comparison of interest is phaser-vs-fixed-barrier under one
// identical raw harness, so both sides keep their fork/loop cost and
// the ratio isolates the synchronization primitive. BaselineNs is the
// fixed-P barrier.NewCentral round time measured by the same code path.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"armbarrier/barrier"
)

// elasticSpareSlots is the registration headroom MeasureElastic gives
// the phaser beyond its steady parties, bounding how many concurrent
// churners a sweep configuration can run (one here, with room for the
// next PR's multi-churner shapes).
const elasticSpareSlots = 8

// ElasticPoint is one (participants x churn target) measurement of the
// elastic barrier.
type ElasticPoint struct {
	// Participants is the steady membership P; the churner is extra.
	Participants int `json:"participants"`
	// ChurnTarget is the requested register/deregister cycles per
	// second (0 = no churner); ChurnPerSec is the rate achieved during
	// the timed window.
	ChurnTarget int     `json:"churn_target"`
	ChurnPerSec float64 `json:"churn_per_sec"`
	// NsPerRound is the phaser's mean wall-clock round time under the
	// configured churn; RoundsPerSec the reciprocal throughput.
	NsPerRound   float64 `json:"ns_per_round"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// BaselineNs is the fixed-P central barrier's ns/round measured by
	// the identical harness — the acceptance denominator.
	BaselineNs float64 `json:"baseline_ns"`
	// Episodes is the number of timed rounds per side.
	Episodes int `json:"episodes"`
}

// Ratio is NsPerRound over BaselineNs — the price of elasticity.
func (pt ElasticPoint) Ratio() float64 {
	if pt.BaselineNs <= 0 {
		return 0
	}
	return pt.NsPerRound / pt.BaselineNs
}

func (pt ElasticPoint) String() string {
	return fmt.Sprintf("phaser/%d churn=%d/s: %.1f ns/round (%.2fx central)",
		pt.Participants, pt.ChurnTarget, pt.NsPerRound, pt.Ratio())
}

// MeasureElastic measures a phaser's round time at steady membership p
// under a paced churner that cycles Register -> Wait -> Deregister at
// churnTarget cycles/sec (0 disables it), against the fixed-P central
// barrier on the identical harness. Episodes defaults to 1000.
func MeasureElastic(p, episodes, churnTarget int, opts ...barrier.Option) (ElasticPoint, error) {
	if p < 1 {
		return ElasticPoint{}, fmt.Errorf("epcc: %d participants", p)
	}
	if episodes == 0 {
		episodes = 1000
	}
	if episodes < 1 || churnTarget < 0 {
		return ElasticPoint{}, fmt.Errorf("epcc: bad elastic options p=%d episodes=%d churn=%d",
			p, episodes, churnTarget)
	}

	b := barrier.NewPhaser(p+elasticSpareSlots, opts...)
	parties := make([]*barrier.Party, p)
	for i := range parties {
		pt, err := b.Register()
		if err != nil {
			return ElasticPoint{}, err
		}
		parties[i] = pt
	}

	var stop atomic.Bool
	var churnOps atomic.Int64
	var churnErr atomic.Pointer[error]
	var churnWG sync.WaitGroup
	if churnTarget > 0 {
		interval := time.Second / time.Duration(churnTarget)
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			next := time.Now()
			for !stop.Load() {
				pt, err := b.Register()
				if err != nil {
					churnErr.Store(&err)
					return
				}
				pt.Wait()
				pt.Deregister()
				churnOps.Add(1)
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				} else {
					next = time.Now() // pacing lost; don't burst to catch up
				}
			}
		}()
	}

	runPhaser := func(eps int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for _, pt := range parties {
			wg.Add(1)
			go func(pt *barrier.Party) {
				defer wg.Done()
				for e := 0; e < eps; e++ {
					pt.Wait()
				}
			}(pt)
		}
		wg.Wait()
		return time.Since(start)
	}

	runPhaser(episodes/10 + 1) // warmup: page in flags, settle the churner
	churnOps.Store(0)
	elapsed := runPhaser(episodes)
	achieved := float64(churnOps.Load()) / elapsed.Seconds()

	// Hand the remaining rounds to the churner: with the steady parties
	// deregistered its solo arrivals resolve immediately, so its
	// in-flight cycle finishes instead of wedging (the lifecycle bug a
	// fixed-membership barrier cannot avoid).
	stop.Store(true)
	for _, pt := range parties {
		pt.Deregister()
	}
	churnWG.Wait()
	if ep := churnErr.Load(); ep != nil {
		return ElasticPoint{}, fmt.Errorf("epcc: churner: %w", *ep)
	}

	// Baseline: the fixed-P central barrier through the same harness
	// shape (goroutine per participant, eps back-to-back waits).
	base := barrier.NewCentral(p, opts...)
	runFixed := func(eps int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for id := 0; id < p; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for e := 0; e < eps; e++ {
					base.Wait(id)
				}
			}(id)
		}
		wg.Wait()
		return time.Since(start)
	}
	runFixed(episodes/10 + 1)
	baseElapsed := runFixed(episodes)

	return ElasticPoint{
		Participants: p,
		ChurnTarget:  churnTarget,
		ChurnPerSec:  achieved,
		NsPerRound:   float64(elapsed.Nanoseconds()) / float64(episodes),
		RoundsPerSec: float64(episodes) / elapsed.Seconds(),
		BaselineNs:   float64(baseElapsed.Nanoseconds()) / float64(episodes),
		Episodes:     episodes,
	}, nil
}
