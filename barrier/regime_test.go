package barrier

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// Regime-default tests: without WithWaitPolicy every constructor picks
// spin-yield while P <= GOMAXPROCS and spin-park above it. Participant
// counts are sized from GOMAXPROCS so the tests mean the same on any
// host.

// policyOf reads the resolved wait policy every option-taking barrier
// reports.
func policyOf(t *testing.T, b Barrier) WaitPolicy {
	t.Helper()
	w, ok := b.(interface{ WaitPolicy() WaitPolicy })
	if !ok {
		t.Fatalf("%s does not report its wait policy", b.Name())
	}
	return w.WaitPolicy()
}

// regimeFactories is optFactories plus the two constructors the
// matrix leaves out: the auto-sized hierarchical barrier and the
// phaser, whose P is its capacity.
func regimeFactories() map[string]func(p int, opts ...Option) Barrier {
	m := optFactories()
	m["hier-auto"] = func(p int, o ...Option) Barrier {
		return NewHierarchical(p, HierarchicalConfig{}, o...)
	}
	m["phaser"] = func(p int, o ...Option) Barrier { return NewPhaser(p, o...) }
	return m
}

func TestRegimeDefaultFollowsGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for name, mk := range regimeFactories() {
		if got := policyOf(t, mk(procs)); got != SpinYieldWait() {
			t.Errorf("%s at P=GOMAXPROCS=%d: default %v, want spinyield", name, procs, got)
		}
		if got := policyOf(t, mk(procs+1)); got != SpinParkWait() {
			t.Errorf("%s at P=%d > GOMAXPROCS: default %v, want spinpark", name, procs+1, got)
		}
		if got := policyOf(t, mk(procs+1, WithWaitPolicy(WaitPolicy{}))); got != SpinParkWait() {
			t.Errorf("%s: zero WithWaitPolicy resolved to %v, want the default spinpark", name, got)
		}
	}
}

func TestRegimeDefaultExplicitPolicyWins(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for name, mk := range regimeFactories() {
		for _, pol := range []WaitPolicy{SpinWait(), SpinYieldWait(), SpinParkWait()} {
			for _, p := range []int{procs, procs + 1} {
				if got := policyOf(t, mk(p, WithWaitPolicy(pol))); got != pol {
					t.Errorf("%s at P=%d with %v: reports %v", name, p, pol, got)
				}
			}
		}
	}
}

func TestRegimeDefaultSynchronizesOversubscribed(t *testing.T) {
	p := runtime.GOMAXPROCS(0) + 2
	for name, mk := range regimeFactories() {
		b := mk(p)
		if ph, ok := b.(*Phaser); ok {
			registerN(t, ph, p)
		}
		if got := policyOf(t, b); got != SpinParkWait() {
			t.Fatalf("%s at P=%d: default %v, want spinpark", name, p, got)
		}
		verifyBarrier(t, b, 20)
	}
}

// TestRegimeDefaultYieldsInsteadOfSpinning: an oversubscribed default
// barrier waits with the yield-first discipline, so its counters show
// yields or parks and never a spin.
func TestRegimeDefaultYieldsInsteadOfSpinning(t *testing.T) {
	const rounds = 50
	p := runtime.GOMAXPROCS(0) + 1
	for name, mk := range optFactories() {
		b := mk(p)
		sc, pc := b.(SpinCounter), b.(ParkCounter)
		sc.EnableSpinCounts()
		Run(b, func(id int) {
			for r := 0; r < rounds; r++ {
				b.Wait(id)
			}
		})
		var spins, yields, parks uint64
		for id := 0; id < p; id++ {
			s, y := sc.SpinCounts(id)
			k, _ := pc.ParkCounts(id)
			spins, yields, parks = spins+s, yields+y, parks+k
		}
		if spins != 0 {
			t.Errorf("%s at P=%d: %d spins under the oversubscribed default", name, p, spins)
		}
		if yields+parks == 0 {
			t.Errorf("%s at P=%d: no yields or parks across %d rounds", name, p, rounds)
		}
	}
}

// TestRegimeDefaultDeadlineTimesOut: a deadline-armed wait on an
// oversubscribed default barrier takes the bounded path, not the
// yield-first one, so it expires instead of parking for good.
func TestRegimeDefaultDeadlineTimesOut(t *testing.T) {
	const budget = 30 * time.Millisecond
	p := runtime.GOMAXPROCS(0) + 1
	for name, mk := range optFactories() {
		b := mk(p).(DeadlineWaiter)
		start := time.Now()
		err := b.WaitDeadline(0, budget) // nobody else arrives
		var te *TimeoutError
		if !errors.As(err, &te) || te.ID != 0 {
			t.Errorf("%s at P=%d: WaitDeadline = %v, want a *TimeoutError for participant 0", name, p, err)
		}
		if elapsed := time.Since(start); elapsed > 20*budget {
			t.Errorf("%s: timed out after %v, budget %v", name, elapsed, budget)
		}
	}
}
