package main

import (
	"fmt"
	"math/rand"
	"time"

	"armbarrier/model"
	"armbarrier/sim"
	"armbarrier/sim/algo"
	"armbarrier/topology"
	"armbarrier/tune"
)

// sim-repro: one operation is one simulated measurement point (one
// kernel run of an algorithm on a machine at P threads under a
// placement) or one tune.Search. A round is the whole grid plus one
// search per machine, in an order drawn from the seed; every run does
// whole rounds, so every run has the same mix of operations.

// simAlgos are the paper's seven algorithms plus the two runtime
// baselines and the paper's optimized barrier.
var simAlgos = append(append([]string{}, algo.PaperAlgorithms...), "gcc", "llvm", "optimized")

var simThreads = []int{2, 4, 8, 16, 32, 64}

// simMinRounds keeps op_tail_us (p99.5) backed by at least ten samples
// beyond it: six rounds are 6 x 363 operations.
const simMinRounds = 6

// simTailQ is the percentile op_tail_us reports on sim-repro.
const simTailQ = 0.995

type simPoint struct {
	m       *topology.Machine
	alg     string
	p       int
	scatter bool
}

func (pt simPoint) key() string {
	pl := "compact"
	if pt.scatter {
		pl = "scatter"
	}
	return fmt.Sprintf("%s/%s/P%d/%s", pt.m.Name, pt.alg, pt.p, pl)
}

func (pt simPoint) placement() (topology.Placement, error) {
	if pt.scatter {
		return topology.Scatter(pt.m, pt.p)
	}
	return topology.Compact(pt.m, pt.p)
}

// simOp is one operation of a round: a point, or a search of the
// machine when search is set (pt is then unused).
type simOp struct {
	pt     simPoint
	search *topology.Machine
}

func simRoundOps() []simOp {
	var ops []simOp
	for _, m := range topology.ARMMachines() {
		for _, p := range simThreads {
			for _, scatter := range []bool{false, true} {
				for _, a := range simAlgos {
					ops = append(ops, simOp{pt: simPoint{m: m, alg: a, p: p, scatter: scatter}})
				}
			}
		}
		ops = append(ops, simOp{search: m})
	}
	return ops
}

// simOutcome is what a point produced; two runs of one point must agree
// exactly, the simulator being deterministic.
type simOutcome struct {
	ns    float64
	stats sim.Stats
}

// measurePoint simulates one point and returns its outcome and the
// host time spent inside algo.MeasureDetailed. A panic of the simulator
// (its deadlock report, say) comes back as the error.
func measurePoint(pt simPoint, parent *span, tr *tracer, op int64) (out simOutcome, kernel time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", pt.key(), r)
		}
	}()
	f, err := algo.ByName(pt.alg)
	if err != nil {
		return simOutcome{}, 0, err
	}
	place, err := pt.placement()
	if err != nil {
		return simOutcome{}, 0, err
	}
	ks := tr.begin("sim.kernel", parent, op)
	k0 := time.Now()
	d, err := algo.MeasureDetailed(pt.m, pt.p, f, algo.MeasureOptions{Placement: place})
	kernel = time.Since(k0)
	ks.end()
	if err != nil {
		return simOutcome{}, 0, fmt.Errorf("%s: %w", pt.key(), err)
	}
	return simOutcome{ns: d.NsPerBarrier, stats: d.Stats}, kernel, nil
}

// checkRerun compares a point's re-simulation with its first run.
func checkRerun(key string, first, again simOutcome) error {
	if first != again {
		return fmt.Errorf("%s: re-simulation gave %.6g ns %+v, first run %.6g ns %+v",
			key, again.ns, again.stats, first.ns, first.stats)
	}
	return nil
}

// checkAtomics checks the centralized barrier's operation count: one
// fetch-and-add per participant per episode, warm-up included.
func checkAtomics(key string, p, episodes int, got uint64) error {
	if want := uint64(p * episodes); got != want {
		return fmt.Errorf("%s: %d simulated atomics, want P x episodes = %d", key, got, want)
	}
	return nil
}

// simEpisodes is algo.MeasureOptions' default warm-up plus timed
// episodes (3 + 10), which every point uses.
const simEpisodes = 3 + 10

// candidateFactory rebuilds a tuner candidate as a simulated barrier
// from its public fields, independently of the tuner's own code.
func candidateFactory(c tune.Candidate) algo.Factory {
	return func(k *sim.Kernel, p int) algo.Barrier {
		cfg := algo.FWayConfig{Padded: c.Padded, Wakeup: c.Wakeup, ClusterMajor: c.ClusterMajor, Name: c.Name()}
		if c.FanIn {
			cfg.Schedule = model.FixedFanInSchedule(p, c.Fan)
		}
		return algo.NewFWay(k, p, cfg)
	}
}

func runSimRepro(b *bench, d time.Duration) endToEnd {
	tr := b.tr
	ops := simRoundOps()
	rng := rand.New(rand.NewSource(b.seed))
	first := map[string]simOutcome{}
	searches := map[string][]tune.Candidate{}

	// Warm-up: every algorithm once at full size on every machine, so
	// the first timed operation does not pay for first-use faults of
	// the simulator's code and heap.
	for _, m := range topology.ARMMachines() {
		for _, a := range simAlgos {
			warm := simPoint{m: m, alg: a, p: m.Cores}
			if _, _, err := measurePoint(warm, nil, nil, 0); err != nil {
				b.fail("sim warm-up: %v", err)
				return endToEnd{}
			}
		}
	}

	var all []float64 // every operation's latency in us
	var w windowed
	var kernelS, memOps, wakeups []float64
	var searchS []float64
	var opID int64
	start := time.Now()
	b.markSetup()
	minRounds := simMinRounds
	if tr != nil {
		// Traced runs report no tail; two rounds still re-simulate
		// every point once.
		minRounds = 2
	}
	rounds := 0
	for rounds < minRounds || time.Since(start) < d {
		order := rng.Perm(len(ops))
		var h hist
		var rk time.Duration
		var rmem, rwake uint64
		r0, c0 := time.Now(), cpuTime()
		for _, i := range order {
			op := ops[i]
			opID++
			t0 := time.Now()
			if op.search != nil {
				ss := tr.begin("tune.search", nil, opID)
				cands, err := tune.Search(op.search, op.search.Cores, tune.Options{})
				searchS = append(searchS, float64(ss.end())/1e9)
				if err != nil {
					b.fail("tune.Search %s: %v", op.search.Name, err)
					continue
				}
				if prev, ok := searches[op.search.Name]; ok {
					if !sameCandidates(prev, cands) {
						b.fail("tune.Search %s: a repeated search ranked differently", op.search.Name)
					}
				} else {
					searches[op.search.Name] = cands
				}
			} else {
				ps := tr.begin("sim.point", nil, opID)
				out, kernel, err := measurePoint(op.pt, &ps, tr, opID)
				rk += kernel
				ps.end()
				if err != nil {
					b.fail("%v", err)
					continue
				}
				rmem += out.stats.Loads + out.stats.Stores + out.stats.Atomics
				rwake += out.stats.Wakeups
				key := op.pt.key()
				if f, ok := first[key]; ok {
					if err := checkRerun(key, f, out); err != nil {
						b.fail("%v", err)
					}
				} else {
					first[key] = out
				}
			}
			lat := time.Since(t0)
			h.add(int64(lat))
			all = append(all, float64(lat)/1e3)
		}
		w.add(int64(len(ops)), time.Since(r0), cpuTime()-c0, &h, simTailQ)
		kernelS = append(kernelS, rk.Seconds())
		memOps = append(memOps, float64(rmem))
		wakeups = append(wakeups, float64(rwake))
		rounds++
	}
	b.attempted += int64(rounds * len(ops))
	b.failed += int64(rounds) * simChecks(b, first, searches)

	e := w.result("p99.5")
	// The tail is pooled over the whole run: one round holds too few
	// operations for a p99.5.
	e.tailus = quantile(all, simTailQ)
	if tr != nil {
		ks := median(kernelS)
		b.set("sim.kernel_s", ks, "s")
		b.set("sim.mem_ops", median(memOps), "count")
		b.set("sim.wakeups", median(wakeups), "count")
		b.set("sim.mem_ops_per_s", median(memOps)/ks, "1/s")
		b.set("tune.search_s", median(searchS), "s")
	}
	return e
}

func sameCandidates(a, b []tune.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// simChecks runs the checks that need the whole grid and returns how
// many operations of one round failed. The only operations that can
// fail are optimized points whose wake-up, chosen by
// model.PredictWakeup, is not the cheaper family in simulation: the
// barrier then is not the optimized one it claims to be. Every other
// discrepancy is a wrong output and fails the run.
func simChecks(b *bench, first map[string]simOutcome, searches map[string][]tune.Candidate) int64 {
	tr := b.tr
	// Every simulated algorithm synchronizes on every machine.
	vs := tr.begin("algo.verify", nil, 0)
	for _, m := range topology.ARMMachines() {
		for _, a := range simAlgos {
			f, err := algo.ByName(a)
			if err != nil {
				b.fail("%v", err)
				continue
			}
			for _, p := range []int{5, m.Cores} {
				if err := algo.VerifyRounds(m, p, 8, f, nil); err != nil {
					b.fail("VerifyRounds %s %s P=%d: %v", m.Name, a, p, err)
				}
			}
		}
	}
	if tr != nil {
		b.set("algo.verify_s", float64(vs.end())/1e9, "s")
	}

	var failedPerRound int64
	for _, m := range topology.ARMMachines() {
		for _, p := range simThreads {
			for _, scatter := range []bool{false, true} {
				pt := func(a string) simPoint { return simPoint{m: m, alg: a, p: p, scatter: scatter} }
				for _, a := range []string{"gcc", "sense"} {
					if err := checkAtomics(pt(a).key(), p, simEpisodes, first[pt(a).key()].stats.Atomics); err != nil {
						b.fail("%v", err)
					}
				}
				opt := first[pt("optimized").key()].ns
				if p == m.Cores {
					for _, base := range []string{"gcc", "llvm"} {
						if v := first[pt(base).key()].ns; !(opt < v) {
							b.fail("%s: optimized %.1f ns is not faster than %s %.1f ns", pt("optimized").key(), opt, base, v)
						}
					}
				}
				ok, err := wakeupPickIsCheaper(pt("optimized"))
				if err != nil {
					b.fail("%v", err)
				} else if !ok {
					failedPerRound++
				}
			}
		}
		cands, ok := searches[m.Name]
		if !ok {
			continue
		}
		best := cands[0] // tune.Best's winner
		place, err := topology.Compact(m, m.Cores)
		if err != nil {
			b.fail("%v", err)
			continue
		}
		again, err := algo.Measure(m, m.Cores, candidateFactory(best), algo.MeasureOptions{Placement: place})
		if err != nil {
			b.fail("re-simulating %s on %s: %v", best.Name(), m.Name, err)
			continue
		}
		if again != best.CostNs {
			b.fail("%s: tuner winner %s re-simulates to %.6g ns, search reported %.6g ns", m.Name, best.Name(), again, best.CostNs)
		}
		optKey := simPoint{m: m, alg: "optimized", p: m.Cores}.key()
		if opt := first[optKey].ns; best.CostNs > opt {
			b.fail("%s: tuner winner %s costs %.1f ns, more than optimized's %.1f ns", m.Name, best.Name(), best.CostNs, opt)
		}
	}
	return failedPerRound
}

// wakeupPickIsCheaper reports whether the wake-up family that
// model.PredictWakeup picks for the point (global or tree) simulates
// no slower than the other family on the optimized barrier's arrival
// tree. The tree family's cost is the cheaper of the NUMA-aware and
// the binary tree.
func wakeupPickIsCheaper(pt simPoint) (bool, error) {
	place, err := pt.placement()
	if err != nil {
		return false, err
	}
	cost := func(w algo.WakeupKind) (float64, error) {
		return algo.Measure(pt.m, pt.p, algo.OptimizedWith(w), algo.MeasureOptions{Placement: place})
	}
	global, err := cost(algo.WakeGlobal)
	if err != nil {
		return false, err
	}
	numa, err := cost(algo.WakeNUMATree)
	if err != nil {
		return false, err
	}
	binary, err := cost(algo.WakeBinaryTree)
	if err != nil {
		return false, err
	}
	tree := min(numa, binary)
	if model.PredictWakeup(pt.m, pt.p) == "global" {
		return global <= tree, nil
	}
	return tree <= global, nil
}
