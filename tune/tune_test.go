package tune

import (
	"runtime"
	"strings"
	"testing"

	"armbarrier/barrier"
	"armbarrier/sim/algo"
	"armbarrier/topology"
)

func TestSearchFindsPaperDesign(t *testing.T) {
	// The tuner, given the paper's design space, should land on the
	// paper's answer for the clustered machines: padded flags,
	// cluster-aware grouping, and a tree wake-up at 64 threads.
	for _, m := range []*topology.Machine{topology.Phytium2000(), topology.ThunderX2()} {
		best, err := Best(m, 64, Options{Episodes: 6})
		if err != nil {
			t.Fatal(err)
		}
		if !best.Padded {
			t.Errorf("%s: best candidate %s is unpadded", m.Name, best.Name())
		}
		if best.Wakeup == algo.WakeGlobal {
			t.Errorf("%s: best candidate %s uses the global wake-up", m.Name, best.Name())
		}
	}
	// And the global wake-up on Kunpeng920.
	kp, err := Best(topology.Kunpeng920(), 64, Options{Episodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	if kp.Wakeup != algo.WakeGlobal {
		t.Errorf("kunpeng920: best candidate %s does not use the global wake-up", kp.Name())
	}
}

func TestSearchSortedAndComplete(t *testing.T) {
	m := topology.Kunpeng920()
	all, err := Search(m, 32, Options{Episodes: 5, FanIns: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 arrivals (balanced + f4) x 2 padded x 3 wakeups x 2 grouping.
	if len(all) != 24 {
		t.Fatalf("search returned %d candidates, want 24", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].CostNs < all[i-1].CostNs {
			t.Fatalf("candidates not sorted at %d", i)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	m := topology.ThunderX2()
	if _, err := Search(m, 0, Options{}); err == nil {
		t.Error("accepted 0 threads")
	}
	if _, err := Search(m, 200, Options{}); err == nil {
		t.Error("accepted too many threads")
	}
	if _, err := Search(m, 8, Options{FanIns: []int{1}}); err == nil {
		t.Error("accepted fan-in 1")
	}
}

func TestCandidateNames(t *testing.T) {
	c := Candidate{FanIn: true, Fan: 4, Padded: true, Wakeup: algo.WakeNUMATree, ClusterMajor: true}
	if got := c.Name(); got != "fway-f4-pad-numatree-cm" {
		t.Fatalf("Name = %q", got)
	}
	c2 := Candidate{Wakeup: algo.WakeGlobal}
	if got := c2.Name(); !strings.Contains(got, "balanced") {
		t.Fatalf("Name = %q", got)
	}
	// The wait policy suffixes the name only when it departs from the
	// default, so existing table labels stay stable.
	c.Wait = barrier.SpinParkWait()
	if got := c.Name(); got != "fway-f4-pad-numatree-cm-spinpark" {
		t.Fatalf("Name with wait policy = %q", got)
	}
	// An explicit spin-yield is not the default: it is named too.
	c.Wait = barrier.SpinYieldWait()
	if got := c.Name(); got != "fway-f4-pad-numatree-cm-spinyield" {
		t.Fatalf("Name with explicit spin-yield = %q", got)
	}
}

func TestChooseWaitPolicy(t *testing.T) {
	if got := ChooseWaitPolicy(8, 8); got != barrier.SpinYieldWait() {
		t.Errorf("dedicated: %v", got)
	}
	if got := ChooseWaitPolicy(4, 8); got != barrier.SpinYieldWait() {
		t.Errorf("undersubscribed: %v", got)
	}
	if got := ChooseWaitPolicy(9, 8); got != barrier.SpinParkWait() {
		t.Errorf("oversubscribed: %v", got)
	}
}

func TestRealOptionsApplyWaitPolicy(t *testing.T) {
	c := Candidate{Wakeup: algo.WakeGlobal}
	if opts := c.RealOptions(); len(opts) != 0 {
		t.Fatalf("default candidate produced %d options", len(opts))
	}
	c.Wait = barrier.SpinParkWait()
	b := barrier.NewCentral(4, c.RealOptions()...)
	if b.WaitPolicy() != barrier.SpinParkWait() {
		t.Fatalf("constructed barrier policy = %v", b.WaitPolicy())
	}
	// An explicit spin-yield survives where the default would park.
	c.Wait = barrier.SpinYieldWait()
	p := runtime.GOMAXPROCS(0) + 1
	if got := barrier.NewCentral(p, c.RealOptions()...).WaitPolicy(); got != barrier.SpinYieldWait() {
		t.Fatalf("explicit spin-yield at P=%d constructed %v", p, got)
	}
}

func TestRealConfigRoundTrip(t *testing.T) {
	// The winning candidate must translate into a working real barrier.
	m := topology.Kunpeng920()
	best, err := Best(m, 16, Options{Episodes: 4, FanIns: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := best.RealConfig(m, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := barrier.NewFWay(16, cfg)
	if b.Participants() != 16 {
		t.Fatal("real barrier has wrong participant count")
	}
	// Smoke: it must synchronize.
	done := make(chan struct{})
	go func() {
		barrier.Run(b, func(id int) {
			for r := 0; r < 5; r++ {
				b.Wait(id)
			}
		})
		close(done)
	}()
	<-done
}

func TestRealConfigVariants(t *testing.T) {
	m := topology.ThunderX2()
	// Every wake-up kind must translate.
	for _, w := range []algo.WakeupKind{algo.WakeGlobal, algo.WakeBinaryTree, algo.WakeNUMATree} {
		c := Candidate{Wakeup: w, Padded: true}
		cfg, err := c.RealConfig(m, 8, nil)
		if err != nil {
			t.Fatalf("wakeup %v: %v", w, err)
		}
		if cfg.ClusterSize != m.ClusterSize {
			t.Fatalf("cluster size not propagated")
		}
	}
	// Unknown wake-up kind must error.
	bad := Candidate{Wakeup: algo.WakeupKind(99)}
	if _, err := bad.RealConfig(m, 8, nil); err == nil {
		t.Fatal("accepted unknown wakeup kind")
	}
	// Cluster-major with default compact placement computes ranks.
	cm := Candidate{Wakeup: algo.WakeGlobal, ClusterMajor: true, FanIn: true, Fan: 4}
	cfg, err := cm.RealConfig(m, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ranks == nil || len(cfg.Schedule) == 0 {
		t.Fatalf("cluster-major config incomplete: %+v", cfg)
	}
}

func TestBestErrorPropagation(t *testing.T) {
	if _, err := Best(topology.ThunderX2(), 0, Options{}); err == nil {
		t.Fatal("Best accepted 0 threads")
	}
}

func TestRealConfigWithScatterPlacement(t *testing.T) {
	m := topology.Phytium2000()
	place, err := topology.Scatter(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{FanIn: true, Fan: 4, Padded: true, Wakeup: algo.WakeNUMATree, ClusterMajor: true}
	cfg, err := c.RealConfig(m, 8, place)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ranks == nil {
		t.Fatal("cluster-major candidate produced no ranks")
	}
	b := barrier.NewFWay(8, cfg)
	barrier.Run(b, func(id int) {
		for r := 0; r < 5; r++ {
			b.Wait(id)
		}
	})
}
