package barrier

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// optFactories enumerates every option-accepting barrier constructor,
// the surface the wait-policy matrix sweeps.
func optFactories() map[string]func(p int, opts ...Option) Barrier {
	return map[string]func(p int, opts ...Option) Barrier{
		"central":       func(p int, o ...Option) Barrier { return NewCentral(p, o...) },
		"dissemination": func(p int, o ...Option) Barrier { return NewDissemination(p, o...) },
		"combining2":    func(p int, o ...Option) Barrier { return NewCombining(p, 2, o...) },
		"mcs":           func(p int, o ...Option) Barrier { return NewMCS(p, o...) },
		"tournament":    func(p int, o ...Option) Barrier { return NewTournament(p, o...) },
		"hyper":         func(p int, o ...Option) Barrier { return NewHyper(p, o...) },
		"hyper2":        func(p int, o ...Option) Barrier { return NewHyperBranch(p, 2, o...) },
		"stour":         func(p int, o ...Option) Barrier { return NewStaticFWay(p, o...) },
		"dtour":         func(p int, o ...Option) Barrier { return NewDynamicFWay(p, o...) },
		"stour-pad-bintree": func(p int, o ...Option) Barrier {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeBinaryTree}, o...)
		},
		"stour-pad-numatree": func(p int, o ...Option) Barrier {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeNUMATree, ClusterSize: 4}, o...)
		},
		"optimized": func(p int, o ...Option) Barrier { return New(p, o...) },
		"ring":      func(p int, o ...Option) Barrier { return NewRing(p, o...) },
		"hybrid":    func(p int, o ...Option) Barrier { return NewHybrid(p, HybridConfig{}, o...) },
		"ndis2":     func(p int, o ...Option) Barrier { return NewNWayDissemination(p, 2, o...) },
		"hier": func(p int, o ...Option) Barrier {
			return NewHierarchical(p, HierarchicalConfig{GroupSize: 2}, o...)
		},
	}
}

func TestWaitPolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range []WaitPolicy{{}, SpinWait(), SpinYieldWait(), SpinParkWait(), AdaptiveWait()} {
		got, err := ParseWaitPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip of %q: got %v, %v", p, got, err)
		}
	}
	if p, err := ParseWaitPolicy(""); err != nil || p != (WaitPolicy{}) {
		t.Errorf("empty string: got %v, %v; want the zero (regime default) policy", p, err)
	}
	if _, err := ParseWaitPolicy("nap"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestWaitPolicyZeroValueIsDefault(t *testing.T) {
	var zero WaitPolicy
	for _, p := range []WaitPolicy{SpinWait(), SpinYieldWait(), SpinParkWait(), AdaptiveWait()} {
		if zero == p {
			t.Fatalf("zero WaitPolicy equals the explicit %v", p)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	if b := NewCentral(procs); b.WaitPolicy() != SpinYieldWait() {
		t.Fatalf("option-free constructor policy at P=GOMAXPROCS = %v", b.WaitPolicy())
	}
	b := NewCentral(2, WithWaitPolicy(SpinParkWait()))
	if b.WaitPolicy() != SpinParkWait() {
		t.Fatalf("configured policy = %v", b.WaitPolicy())
	}
}

func TestParkSlotsCachelinePadded(t *testing.T) {
	if got := unsafe.Sizeof(parkSlot{}); got != cacheLine {
		t.Fatalf("parkSlot is %d bytes, want %d", got, cacheLine)
	}
	if got := unsafe.Sizeof(adaptSlot{}); got != cacheLine {
		t.Fatalf("adaptSlot is %d bytes, want %d", got, cacheLine)
	}
}

func TestParkCountsWithoutParkingPolicy(t *testing.T) {
	b := NewCentral(2, WithWaitPolicy(SpinYieldWait()))
	verifyBarrier(t, b, 3)
	for id := 0; id < 2; id++ {
		if p, w := b.ParkCounts(id); p != 0 || w != 0 {
			t.Fatalf("spin-yield barrier reports parks %d wakes %d", p, w)
		}
	}
}

func TestParkCountsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range participant")
		}
	}()
	NewCentral(2).ParkCounts(2)
}

// TestPolicyAlgorithmMatrix verifies every algorithm under every
// non-default policy — on this package's CI hosts participants usually
// outnumber cores, so the parking paths genuinely run.
func TestPolicyAlgorithmMatrix(t *testing.T) {
	policies := []WaitPolicy{SpinParkWait(), AdaptiveWait()}
	sizes := []int{1, 2, 3, 4, 5, 8, 9, 16, 17}
	for name, mk := range optFactories() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, pol := range policies {
				for _, p := range sizes {
					verifyBarrier(t, mk(p, WithWaitPolicy(pol)), 8)
				}
			}
			// Pure spin progresses only through async preemption when
			// oversubscribed, so keep it small and short.
			for _, p := range []int{1, 2, 4} {
				verifyBarrier(t, mk(p, WithWaitPolicy(SpinWait())), 3)
			}
		})
	}
}

func TestSpinParkManyRoundsReuse(t *testing.T) {
	// Park slots are reused across rounds and senses; a stale token or
	// parked bit would deadlock or corrupt an odd/even episode count.
	verifyBarrier(t, NewCentral(8, WithWaitPolicy(SpinParkWait())), 201)
	verifyBarrier(t, New(8, WithWaitPolicy(SpinParkWait())), 201)
	verifyBarrier(t, NewDissemination(8, WithWaitPolicy(AdaptiveWait())), 201)
}

func TestSpinParkOversubscribed(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	for _, mk := range []func(p int, opts ...Option) Barrier{
		func(p int, o ...Option) Barrier { return NewCentral(p, o...) },
		func(p int, o ...Option) Barrier { return New(p, o...) },
		func(p int, o ...Option) Barrier { return NewHybrid(p, HybridConfig{}, o...) },
		func(p int, o ...Option) Barrier { return NewHierarchical(p, HierarchicalConfig{GroupSize: 4}, o...) },
	} {
		verifyBarrier(t, mk(16, WithWaitPolicy(SpinParkWait())), 5)
		verifyBarrier(t, mk(16, WithWaitPolicy(AdaptiveWait())), 5)
	}
}

// TestParkWakeHandshake drives the park/unpark protocol directly: the
// waiter is provably parked (its park counter ticked) before the signal
// lands, so the wake token path, not the spin fast path, is exercised.
func TestParkWakeHandshake(t *testing.T) {
	var w waitState
	w.initWait(2, []Option{WithWaitPolicy(SpinParkWait())})
	var f atomic.Uint32
	done := make(chan struct{})
	go func() {
		w.park(0, &f, 1)
		close(done)
	}()
	for {
		if p, _ := w.ParkCounts(0); p > 0 {
			break
		}
		runtime.Gosched()
	}
	w.signal(&f, 1, 0)
	<-done
	parks, wakes := w.ParkCounts(0)
	if parks == 0 || wakes == 0 {
		t.Fatalf("parks %d wakes %d after a forced park/wake", parks, wakes)
	}
}

// TestParkSpuriousWake deposits a stale token before the waiter parks:
// the waiter must consume it, observe the flag unchanged, and park
// again rather than return early.
func TestParkSpuriousWake(t *testing.T) {
	var w waitState
	w.initWait(1, []Option{WithWaitPolicy(SpinParkWait())})
	var f atomic.Uint32
	w.parkSlots[0].ch <- struct{}{} // stale token from an imagined prior race
	done := make(chan struct{})
	go func() {
		w.park(0, &f, 1)
		close(done)
	}()
	for {
		if p, _ := w.ParkCounts(0); p >= 2 {
			break // parked, absorbed the stale token, parked again
		}
		runtime.Gosched()
	}
	select {
	case <-done:
		t.Fatal("waiter returned on a stale token")
	default:
	}
	w.signal(&f, 1, 0)
	<-done
}

// TestParkReleaseRace ping-pongs two participants through wait/signal
// as fast as possible; under -race this hunts the window between the
// parked-bit publish and the releaser's flag store.
func TestParkReleaseRace(t *testing.T) {
	var w waitState
	w.initWait(2, []Option{WithWaitPolicy(SpinParkWait())})
	var ping, pong atomic.Uint32
	const iters = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint32(1); i <= iters; i++ {
			w.wait(0, &ping, i)
			w.signal(&pong, i, 1)
		}
	}()
	for i := uint32(1); i <= iters; i++ {
		w.signal(&ping, i, 0)
		w.wait(1, &pong, i)
	}
	<-done
}

func TestUnparkWithoutParkedWaiterIsNoop(t *testing.T) {
	var w waitState
	w.initWait(1, []Option{WithWaitPolicy(SpinParkWait())})
	w.unpark(0)
	if _, wakes := w.ParkCounts(0); wakes != 0 {
		t.Fatalf("unpark of a non-parked slot recorded %d wakes", wakes)
	}
	select {
	case <-w.parkSlots[0].ch:
		t.Fatal("unpark of a non-parked slot deposited a token")
	default:
	}
}

func TestAdaptiveNoteSwitches(t *testing.T) {
	var a adaptSlot
	// A yield on every wait of the window switches the owner to parking.
	for i := 0; i < adaptWindow; i++ {
		a.note(1)
	}
	if !a.park {
		t.Fatal("one yield per wait did not enable parking")
	}
	// Yield-free waits switch it back.
	for i := 0; i < adaptWindow; i++ {
		a.note(0)
	}
	if a.park {
		t.Fatal("yield-free window did not disable parking")
	}
	// A mildly-yielding window (between the thresholds) keeps the
	// current discipline: hysteresis, not flapping.
	a.park = true
	for i := 0; i < adaptWindow; i++ {
		a.note(uint64(i % 2)) // half the waits yield once
	}
	if !a.park {
		t.Fatal("mid-band window flipped the discipline")
	}
}

func TestSpinNoYieldCounts(t *testing.T) {
	var f atomic.Uint32
	f.Store(7)
	var c spinCount
	spinNoYield(&f, 7, &c)
	if y := c.yields.Load(); y != 0 {
		t.Fatalf("pure spin recorded %d yields", y)
	}
}
