package tune

import (
	"fmt"
	"sort"
	"time"

	"armbarrier/barrier"
	"armbarrier/model"
)

// Group-size search for the two-level barrier (barrier.Hierarchical):
// the knob the flat-barrier search does not have. Two searches are
// provided — a model-priced one (instant, the same pricing the
// constructor's auto-derivation uses) and a measured hand search that
// times real barriers, the ground truth the auto-derivation is
// validated against. The measured search lives here rather than in
// epcc because epcc imports tune for the regime vocabulary.

// HierCandidate is one group size of the two-level design space.
type HierCandidate struct {
	// GroupSize is the per-group-line participant count.
	GroupSize int
	// FanIn is the representative-tree fan-in.
	FanIn int
	// Wait is the wait policy a measured candidate was constructed
	// with; zero means the constructor's regime default.
	Wait barrier.WaitPolicy
	// CostNs is the modelled or measured overhead per episode.
	CostNs float64
	// Measured is true when CostNs came from timing a real barrier.
	Measured bool
}

// Name renders the candidate like the experiment tables do.
func (c HierCandidate) Name() string {
	n := fmt.Sprintf("hier-g%d", c.GroupSize)
	if c.FanIn != 0 && c.FanIn != 4 {
		n += fmt.Sprintf("-f%d", c.FanIn)
	}
	if c.Wait != (barrier.WaitPolicy{}) {
		n += "-" + c.Wait.String()
	}
	return n
}

// SearchHierGroupSizes prices every candidate group size with the
// model's two-level cost (PredictHierarchicalNsRaw) and returns them
// sorted cheapest first. A nil cands searches the power-of-two
// candidates. This is the pricing barrier.AutoGroupSize applies with
// the host's probed latencies.
func SearchHierGroupSizes(P, fanIn int, L, alpha, c float64, cands []int) []HierCandidate {
	if fanIn == 0 {
		fanIn = 4
	}
	if cands == nil {
		cands = model.HierGroupCandidates(P)
	}
	out := make([]HierCandidate, 0, len(cands))
	for _, g := range cands {
		if g < 1 || g > P {
			continue
		}
		out = append(out, HierCandidate{
			GroupSize: g,
			FanIn:     fanIn,
			CostNs:    model.PredictHierarchicalNsRaw(P, g, fanIn, L, alpha, c),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CostNs < out[j].CostNs })
	return out
}

// HierMeasureOptions bounds the measured group-size hand search.
type HierMeasureOptions struct {
	// FanIn is the representative-tree fan-in (default 4).
	FanIn int
	// Episodes per repeat (default 200).
	Episodes int
	// Repeats; the minimum over repeats is kept, the EPCC discipline
	// (default 3).
	Repeats int
	// Wait is the wait policy to construct candidates with; the zero
	// value is the constructor's regime default (spin-park once P >
	// GOMAXPROCS, spin-yield otherwise).
	Wait barrier.WaitPolicy
	// Candidates overrides the power-of-two group sizes.
	Candidates []int
}

// MeasureHierGroupSizes times a real barrier.Hierarchical per
// candidate group size and returns the candidates sorted cheapest
// first — the hand search the paper ran per machine, and the ground
// truth the constructor's probe-based auto-derivation is checked
// against (they should agree within one candidate).
func MeasureHierGroupSizes(P int, opts HierMeasureOptions) ([]HierCandidate, error) {
	if P < 1 {
		return nil, fmt.Errorf("tune: MeasureHierGroupSizes P = %d", P)
	}
	fanIn := opts.FanIn
	if fanIn == 0 {
		fanIn = 4
	}
	episodes := opts.Episodes
	if episodes <= 0 {
		episodes = 200
	}
	repeats := opts.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	cands := opts.Candidates
	if cands == nil {
		cands = model.HierGroupCandidates(P)
	}
	var out []HierCandidate
	for _, g := range cands {
		if g < 1 || g > P {
			continue
		}
		b := barrier.NewHierarchical(P, barrier.HierarchicalConfig{GroupSize: g, FanIn: fanIn},
			barrier.WithWaitPolicy(opts.Wait))
		best := 0.0
		for rep := 0; rep < repeats; rep++ {
			start := time.Now()
			barrier.Run(b, func(id int) {
				for e := 0; e < episodes; e++ {
					b.Wait(id)
				}
			})
			perEpisode := float64(time.Since(start).Nanoseconds()) / float64(episodes)
			if rep == 0 || perEpisode < best {
				best = perEpisode
			}
		}
		out = append(out, HierCandidate{
			GroupSize: g,
			FanIn:     fanIn,
			Wait:      opts.Wait,
			CostNs:    best,
			Measured:  true,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tune: no valid group-size candidates for P=%d", P)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CostNs < out[j].CostNs })
	return out, nil
}

// BestHierGroupSize runs the measured hand search and returns the
// winning candidate.
func BestHierGroupSize(P int, opts HierMeasureOptions) (HierCandidate, error) {
	all, err := MeasureHierGroupSizes(P, opts)
	if err != nil {
		return HierCandidate{}, err
	}
	return all[0], nil
}
