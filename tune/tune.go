// Package tune searches the barrier design space the paper explores —
// fan-in schedule, flag padding, wake-up strategy, cluster-aware
// grouping — for the cheapest configuration on a given machine and
// thread count, using the cache simulator as the oracle. It automates
// the workflow of Sections V and VI for new topologies:
//
//	best, _ := tune.Search(machine, 64, tune.Options{})
//	b := barrier.NewFWay(64, best.RealConfig(machine, placement))
package tune

import (
	"fmt"
	"sort"

	"armbarrier/barrier"
	"armbarrier/model"
	"armbarrier/sim"
	"armbarrier/sim/algo"
	"armbarrier/topology"
)

// Candidate is one point of the design space with its measured cost.
type Candidate struct {
	// FanIn is the fixed fan-in of the arrival tree (0 = the original
	// balanced schedule).
	FanIn bool
	// Fan is the fixed fan-in value when FanIn is true.
	Fan int
	// Padded pads each arrival flag to a cacheline.
	Padded bool
	// Wakeup is the Notification-Phase strategy.
	Wakeup algo.WakeupKind
	// ClusterMajor groups arrival rounds cluster-by-cluster.
	ClusterMajor bool
	// Wait is the wait policy for the real barrier. The simulator cannot
	// price it (it models cache traffic, not the scheduler), so Search
	// leaves it zero: the constructor's regime default (spin-yield
	// dedicated, spin-park oversubscribed). Set it to pin a policy.
	Wait barrier.WaitPolicy
	// Collective marks a candidate priced for fused allreduce episodes
	// (SearchCollective): CostNs then includes the model's payload
	// piggyback terms on top of the simulated barrier cost.
	Collective bool
	// CostNs is the simulated overhead per barrier (plus the modelled
	// payload extras when Collective is set).
	CostNs float64
}

// Name renders the candidate like the experiment tables do.
func (c Candidate) Name() string {
	n := "fway"
	if c.FanIn {
		n = fmt.Sprintf("%s-f%d", n, c.Fan)
	} else {
		n += "-balanced"
	}
	if c.Padded {
		n += "-pad"
	}
	n += "-" + c.Wakeup.String()
	if c.ClusterMajor {
		n += "-cm"
	}
	if c.Wait != (barrier.WaitPolicy{}) {
		n += "-" + c.Wait.String()
	}
	if c.Collective {
		n += "-fused"
	}
	return n
}

// RealOptions returns the constructor options the candidate needs on a
// real barrier — currently just the wait policy when one is set (a
// zero Wait leaves the constructor's regime default). Pass them
// alongside RealConfig:
//
//	b := barrier.NewFWay(p, cfg, best.RealOptions()...)
func (c Candidate) RealOptions() []barrier.Option {
	if c.Wait == (barrier.WaitPolicy{}) {
		return nil
	}
	return []barrier.Option{barrier.WithWaitPolicy(c.Wait)}
}

// ChooseWaitPolicy names the policy a barrier constructor's regime
// default resolves to for threads participants on gomaxprocs
// schedulable cores: spin-yield while every participant can own a
// core, spin-then-park as soon as participants outnumber cores (a
// spinning waiter would burn the quantum of the very goroutine it
// waits for). Use it to pin that choice for a host other than this one.
func ChooseWaitPolicy(threads, gomaxprocs int) barrier.WaitPolicy {
	if ClassifyStatic(threads, gomaxprocs) == RegimeOversubscribed {
		return barrier.SpinParkWait()
	}
	return barrier.SpinYieldWait()
}

// simConfig builds the simulator-side configuration.
func (c Candidate) simConfig(p int) algo.FWayConfig {
	cfg := algo.FWayConfig{
		Padded:       c.Padded,
		Wakeup:       c.Wakeup,
		ClusterMajor: c.ClusterMajor,
		Name:         c.Name(),
	}
	if c.FanIn {
		cfg.Schedule = model.FixedFanInSchedule(p, c.Fan)
	}
	return cfg
}

// RealConfig builds the equivalent configuration for the real
// goroutine barrier (package barrier). Placement may be nil for
// compact pinning.
func (c Candidate) RealConfig(m *topology.Machine, p int, place topology.Placement) (barrier.FWayConfig, error) {
	cfg := barrier.FWayConfig{
		Padded:      c.Padded,
		ClusterSize: m.ClusterSize,
		Name:        c.Name(),
	}
	switch c.Wakeup {
	case algo.WakeGlobal:
		cfg.Wakeup = barrier.WakeGlobal
	case algo.WakeBinaryTree:
		cfg.Wakeup = barrier.WakeBinaryTree
	case algo.WakeNUMATree:
		cfg.Wakeup = barrier.WakeNUMATree
	default:
		return cfg, fmt.Errorf("tune: unknown wakeup %v", c.Wakeup)
	}
	if c.FanIn {
		cfg.Schedule = model.FixedFanInSchedule(p, c.Fan)
	}
	if c.ClusterMajor {
		if place == nil {
			compact, err := topology.Compact(m, p)
			if err != nil {
				return cfg, err
			}
			place = compact
		}
		ranks, err := barrier.ClusterMajorRanks(m, place)
		if err != nil {
			return cfg, err
		}
		cfg.Ranks = ranks
	}
	return cfg, nil
}

// Options bounds the search.
type Options struct {
	// FanIns to try as fixed fan-ins (default {2, 4, 8}); the balanced
	// schedule is always tried too.
	FanIns []int
	// Episodes per measurement (default 10).
	Episodes int
}

// Search measures every candidate on the machine at the given thread
// count and returns them sorted by cost (cheapest first).
func Search(m *topology.Machine, threads int, opts Options) ([]Candidate, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if threads < 1 || threads > m.Cores {
		return nil, fmt.Errorf("tune: %d threads on %d cores", threads, m.Cores)
	}
	fanIns := opts.FanIns
	if fanIns == nil {
		fanIns = []int{2, 4, 8}
	}
	type arrival struct {
		fixed bool
		fan   int
	}
	arrivals := []arrival{{fixed: false}}
	for _, f := range fanIns {
		if f < 2 {
			return nil, fmt.Errorf("tune: fan-in %d < 2", f)
		}
		arrivals = append(arrivals, arrival{fixed: true, fan: f})
	}
	var out []Candidate
	for _, a := range arrivals {
		for _, padded := range []bool{false, true} {
			for _, wake := range []algo.WakeupKind{algo.WakeGlobal, algo.WakeBinaryTree, algo.WakeNUMATree} {
				for _, cm := range []bool{false, true} {
					c := Candidate{FanIn: a.fixed, Fan: a.fan, Padded: padded, Wakeup: wake, ClusterMajor: cm}
					cost, err := algo.Measure(m, threads, func(k *sim.Kernel, p int) algo.Barrier {
						return algo.NewFWay(k, p, c.simConfig(p))
					}, algo.MeasureOptions{Episodes: opts.Episodes})
					if err != nil {
						return nil, err
					}
					c.CostNs = cost
					out = append(out, c)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CostNs < out[j].CostNs })
	return out, nil
}

// Best returns the cheapest candidate.
func Best(m *topology.Machine, threads int, opts Options) (Candidate, error) {
	all, err := Search(m, threads, opts)
	if err != nil {
		return Candidate{}, err
	}
	return all[0], nil
}

// fusedExtraNs prices the payload piggyback of a fused allreduce on
// this candidate's tree, using the model's cost terms: one extra
// remote payload read per child per arrival level on the way up, and
// either a second globally-polled result line (global wake-up) or one
// extra W_R per tree level on the way down. The simulator cannot
// measure this (it replays barrier episodes, not payloads), so the
// extras come from the closed-form model — the same hybrid the paper
// uses when a term is analytically clean.
func (c Candidate) fusedExtraNs(m *topology.Machine, threads int) float64 {
	if threads <= 1 {
		return 0
	}
	ly := topology.Layer(len(m.Latency) - 1)
	L := m.LayerLatency(ly)
	var sched []int
	if c.FanIn {
		sched = model.FixedFanInSchedule(threads, c.Fan)
	} else {
		sched = model.FanInSchedule(threads, 8)
	}
	var up float64
	for _, f := range sched {
		up += float64(f-1) * L
	}
	if c.Wakeup == algo.WakeGlobal {
		return up + model.FusedGlobalWakeupExtraNs(threads, L, m.Alpha, m.ReadContention)
	}
	return up + model.FusedTreeWakeupExtraNs(threads, L, m.Alpha)
}

// SearchCollective searches the same design space as Search but prices
// each candidate for fused allreduce episodes: simulated barrier cost
// plus the modelled payload extras. The ranking can differ from the
// bare-barrier ranking — the global wake-up pays a second hot line
// that every thread refills, so tree wake-ups win collectives at
// thread counts where the global wake-up still wins bare barriers.
func SearchCollective(m *topology.Machine, threads int, opts Options) ([]Candidate, error) {
	out, err := Search(m, threads, opts)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Collective = true
		out[i].CostNs += out[i].fusedExtraNs(m, threads)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CostNs < out[j].CostNs })
	return out, nil
}

// BestCollective returns the cheapest fused-collective candidate.
func BestCollective(m *topology.Machine, threads int, opts Options) (Candidate, error) {
	all, err := SearchCollective(m, threads, opts)
	if err != nil {
		return Candidate{}, err
	}
	return all[0], nil
}
