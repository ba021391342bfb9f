package fabric

// Per-group telemetry rollups under 1-in-K round sampling. Ten
// thousand live groups cannot each afford per-arrival clock reads; the
// fabric instead samples whole rounds: the first arrival of every
// SampleEvery-th round arms the group's sampling flag, arrivals of an
// armed round stamp their arrival time into their waiter node, and the
// delivery path folds (delivery - arrival) into a log2 histogram the
// obs package's quantile machinery understands. Unsampled rounds pay
// one flag load per arrival and nothing else — the same 1-in-K
// discipline that keeps the obs instrument inside the <10% overhead
// budget, applied per group (see fabric/overhead_test.go for the
// guard).
//
// The arming is deliberately advisory: arrivals racing the first
// arriver may read the previous round's flag and stamp (or skip) a
// node, which widens or narrows a sample by a few arrivals but never
// corrupts a round — histograms don't care which round a wait belonged
// to, only that sampled waits are representative.

import (
	"sync/atomic"

	"armbarrier/internal/pad"
	"armbarrier/obs"
)

// groupStats is one group's rollup state. The sampling flag sits alone
// on a line (read by every arrival); the histograms are updated only on
// sampled rounds, so they tolerate sharing.
type groupStats struct {
	every    uint64
	sampFlag pad.Padded[atomic.Uint32]

	sampledRounds atomic.Uint64
	joinHist      [obs.NumBuckets]atomic.Uint64
	skewHist      [obs.NumBuckets]atomic.Uint64
	skewMaxNs     atomic.Int64
}

func newGroupStats(every uint64) *groupStats {
	if every < 1 {
		every = 1
	}
	return &groupStats{every: every}
}

// arm sets the sampling flag for the round whose index the first
// arriver observed.
func (s *groupStats) arm(round uint64) {
	if round%s.every == 0 {
		s.sampFlag.V.Store(1)
	} else {
		s.sampFlag.V.Store(0)
	}
}

// sampling reports whether the in-flight round is sampled.
func (s *groupStats) sampling() bool { return s.sampFlag.V.Load() == 1 }

// roundSampled folds a completed sampled round's arrival skew (first
// arrival to publication) into the rollup.
func (s *groupStats) roundSampled(skewNs int64) {
	s.sampledRounds.Add(1)
	s.skewHist[obs.BucketOf(skewNs)].Add(1)
	for {
		cur := s.skewMaxNs.Load()
		if skewNs <= cur || s.skewMaxNs.CompareAndSwap(cur, skewNs) {
			return
		}
	}
}

// join folds one sampled waiter's join wait (arrival to wake delivery)
// into the rollup.
func (s *groupStats) join(waitNs int64) {
	s.joinHist[obs.BucketOf(waitNs)].Add(1)
}

// GroupSnapshot is one group's observable state at a point in time.
type GroupSnapshot struct {
	Name         string  `json:"name"`
	Participants int     `json:"participants"`
	Elastic      bool    `json:"elastic,omitempty"`
	Closed       bool    `json:"closed"`
	Rounds       uint64  `json:"rounds"`
	InFlight     int     `json:"in_flight"`
	RatePerSec   float64 `json:"rounds_per_sec"` // over the fabric's lifetime

	// Sampled rollups; zero when sampling is disabled or nothing was
	// sampled yet.
	SampledRounds uint64  `json:"sampled_rounds"`
	JoinP50Ns     float64 `json:"join_p50_ns"`
	JoinP99Ns     float64 `json:"join_p99_ns"`
	SkewP50Ns     float64 `json:"skew_p50_ns"`
	SkewP99Ns     float64 `json:"skew_p99_ns"`
	SkewMaxNs     int64   `json:"skew_max_ns"`
}

// Snapshot captures the group's counters and sampled quantiles.
func (g *Group) Snapshot() GroupSnapshot {
	snap := GroupSnapshot{
		Name:         g.name,
		Participants: g.Participants(),
		Elastic:      g.elastic,
		Closed:       g.closed.Load(),
		Rounds:       g.meta.V.rounds.Load(),
		InFlight:     g.inflight(),
	}
	if up := g.fab.monons(); up > 0 {
		snap.RatePerSec = float64(snap.Rounds) / (float64(up) / 1e9)
	}
	if g.st != nil {
		snap.SampledRounds = g.st.sampledRounds.Load()
		join := loadHist(&g.st.joinHist)
		skew := loadHist(&g.st.skewHist)
		snap.JoinP50Ns = obs.HistQuantileNs(join, 0.50)
		snap.JoinP99Ns = obs.HistQuantileNs(join, 0.99)
		snap.SkewP50Ns = obs.HistQuantileNs(skew, 0.50)
		snap.SkewP99Ns = obs.HistQuantileNs(skew, 0.99)
		snap.SkewMaxNs = g.st.skewMaxNs.Load()
	}
	return snap
}

// FabricSnapshot aggregates the fabric's registry.
type FabricSnapshot struct {
	Groups      int             `json:"groups"`
	TotalRounds uint64          `json:"total_rounds"`
	UptimeNs    int64           `json:"uptime_ns"`
	PerGroup    []GroupSnapshot `json:"per_group,omitempty"`
}

// Snapshot captures every registered group. Pass detail=false to skip
// the per-group list (cheap aggregate for dashboards with thousands of
// groups).
func (f *Fabric) Snapshot(detail bool) FabricSnapshot {
	snap := FabricSnapshot{UptimeNs: f.monons()}
	f.eachGroup(func(g *Group) {
		snap.Groups++
		gs := g.Snapshot()
		snap.TotalRounds += gs.Rounds
		if detail {
			snap.PerGroup = append(snap.PerGroup, gs)
		}
	})
	return snap
}

func loadHist(h *[obs.NumBuckets]atomic.Uint64) []uint64 {
	out := make([]uint64, obs.NumBuckets)
	for i := range h {
		out[i] = h[i].Load()
	}
	return out
}
