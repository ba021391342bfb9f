package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"armbarrier/topology"
)

func newTestKernel(t *testing.T, m *topology.Machine, threads int) *Kernel {
	t.Helper()
	p, err := topology.Compact(m, threads)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(Config{Machine: m, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted nil machine")
	}
	m := topology.ThunderX2()
	if _, err := New(Config{Machine: m, Placement: nil}); err == nil {
		t.Error("New accepted empty placement")
	}
	if _, err := New(Config{Machine: m, Placement: topology.Placement{0, 0}}); err == nil {
		t.Error("New accepted duplicate cores")
	}
}

func TestAllocPackedSharesLines(t *testing.T) {
	m := topology.ThunderX2() // 64B lines, 4B flags -> 16 per line
	k := newTestKernel(t, m, 1)
	addrs := k.Alloc(20)
	if got := k.LineOf(addrs[0]); got != k.LineOf(addrs[15]) {
		t.Errorf("flags 0 and 15 on lines %d and %d, want shared", got, k.LineOf(addrs[15]))
	}
	if k.LineOf(addrs[15]) == k.LineOf(addrs[16]) {
		t.Error("flags 15 and 16 share a line, want split")
	}
}

func TestAllocPaddedSeparatesLines(t *testing.T) {
	k := newTestKernel(t, topology.ThunderX2(), 1)
	addrs := k.AllocPadded(4)
	seen := map[int]bool{}
	for _, a := range addrs {
		ln := k.LineOf(a)
		if seen[ln] {
			t.Fatalf("padded vars share line %d", ln)
		}
		seen[ln] = true
	}
}

func TestAllocFreshLinePerCall(t *testing.T) {
	k := newTestKernel(t, topology.ThunderX2(), 1)
	a := k.Alloc(1)
	b := k.Alloc(1)
	if k.LineOf(a[0]) == k.LineOf(b[0]) {
		t.Error("separate Alloc calls shared a line")
	}
}

func TestAllocGroupedBounds(t *testing.T) {
	k := newTestKernel(t, topology.ThunderX2(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AllocGrouped accepted perLine 0")
		}
	}()
	k.AllocGrouped(4, 0)
}

func TestLocalLoadCostsEpsilon(t *testing.T) {
	m := topology.ThunderX2()
	k := newTestKernel(t, m, 1)
	a := k.Alloc(1)[0]
	k.Run(func(t *Thread) {
		t.Load(a) // first touch: warm local
		t.Load(a) // hit
	})
	if got := k.MaxTime(); got != 2*m.Epsilon {
		t.Fatalf("two local loads took %g ns, want %g", got, 2*m.Epsilon)
	}
	if s := k.Stats(); s.Loads != 2 || s.LocalLoads != 2 || s.RemoteLoads != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRemoteLoadCostsLayerLatency(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Custom(m, []int{0, 32}) // cross-socket pair
	k, err := New(Config{Machine: m, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	a := k.Alloc(1)[0]
	k.Run(func(t *Thread) {
		if t.ID() == 0 {
			t.Store(a, 7) // becomes owner on core 0
		} else {
			t.Compute(1000) // let the store land first
			if v := t.Load(a); v != 7 {
				panic("wrong value")
			}
		}
	})
	// Thread 1: 1000 compute + remote load across sockets (140.7).
	want := 1000 + 140.7
	if got := k.ThreadTimes()[1]; got != want {
		t.Fatalf("remote reader time = %g, want %g", got, want)
	}
}

func TestStoreInvalidationCost(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Custom(m, []int{0, 1, 2})
	k, err := New(Config{Machine: m, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	a := k.Alloc(1)[0]
	var ownerSecondStore float64
	k.Run(func(t *Thread) {
		switch t.ID() {
		case 0:
			t.Store(a, 1)  // eps: cold
			t.Compute(500) // wait for readers to cache the line
			start := t.Now()
			t.Store(a, 2) // must invalidate 2 sharers: 2*alpha*L0
			ownerSecondStore = t.Now() - start
		default:
			t.Compute(100)
			t.Load(a)
		}
	})
	want := 2 * m.Alpha * 24 // n=2 sharers at L0
	if diff := ownerSecondStore - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("owner invalidating store cost %g, want %g", ownerSecondStore, want)
	}
}

func TestRemoteStoreCost(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Custom(m, []int{0, 32})
	k, err := New(Config{Machine: m, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	a := k.Alloc(1)[0]
	var cost float64
	k.Run(func(t *Thread) {
		if t.ID() == 0 {
			t.Store(a, 1) // cold, eps
		} else {
			t.Compute(100)
			start := t.Now()
			t.Store(a, 2) // remote write: (1+alpha)*L1
			cost = t.Now() - start
		}
	})
	want := (1 + m.Alpha) * 140.7
	if diff := cost - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("remote store cost %g, want %g", cost, want)
	}
}

func TestSpinWakesOnStore(t *testing.T) {
	m := topology.Kunpeng920()
	k := newTestKernel(t, m, 2)
	a := k.Alloc(1)[0]
	var sawValue uint64
	k.Run(func(t *Thread) {
		if t.ID() == 0 {
			t.Compute(250)
			t.Store(a, 42)
		} else {
			sawValue = t.SpinUntil(a, func(v uint64) bool { return v == 42 })
		}
	})
	if sawValue != 42 {
		t.Fatalf("spinner saw %d", sawValue)
	}
	// The spinner cannot finish before the store committed.
	if k.ThreadTimes()[1] < 250 {
		t.Fatalf("spinner finished at %g, before the store at 250", k.ThreadTimes()[1])
	}
	if k.Stats().Wakeups == 0 {
		t.Fatal("no wakeups recorded")
	}
}

func TestSpinAlreadySatisfiedDoesNotBlock(t *testing.T) {
	m := topology.Kunpeng920()
	k := newTestKernel(t, m, 1)
	a := k.Alloc(1)[0]
	k.Run(func(t *Thread) {
		t.Store(a, 5)
		t.SpinUntilEqual(a, 5)
	})
	if k.Stats().Wakeups != 0 {
		t.Fatal("satisfied spin should not have blocked")
	}
}

func TestFetchAddSerializes(t *testing.T) {
	m := topology.ThunderX2()
	k := newTestKernel(t, m, 8)
	a := k.Alloc(1)[0]
	var last float64
	k.Run(func(t *Thread) {
		if old := t.FetchAdd(a, 1); old == 7 {
			last = t.Now() // completion of the final atomic
		}
	})
	// Final value must be 8 (read it back through the kernel's state by
	// re-checking with stats: 8 atomics happened).
	if k.Stats().Atomics != 8 {
		t.Fatalf("atomics = %d, want 8", k.Stats().Atomics)
	}
	// Serialization: the last atomic cannot complete before 8 minimal
	// atomic costs (each at least AtomicContention).
	if min := 8 * m.AtomicContention; last < min {
		t.Fatalf("last atomic at %g, want >= %g (serialized)", last, min)
	}
}

func TestFetchAddReturnsOldValues(t *testing.T) {
	m := topology.XeonGold()
	k := newTestKernel(t, m, 4)
	a := k.Alloc(1)[0]
	seen := make([]bool, 4)
	k.Run(func(t *Thread) {
		old := t.FetchAdd(a, 1)
		seen[old] = true // distinct by construction; data race impossible (sequential kernel)
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("no atomic returned old value %d: %v", i, seen)
		}
	}
}

func TestReaderContentionCharged(t *testing.T) {
	// Many readers pulling one freshly-written line: reader k pays
	// L + k*c, so the spread between first and last reader is (n-1)*c.
	m := topology.ThunderX2()
	readers := 8
	k := newTestKernel(t, m, readers+1)
	a := k.Alloc(1)[0]
	times := make([]float64, readers+1)
	k.Run(func(t *Thread) {
		if t.ID() == 0 {
			t.Compute(100)
			t.Store(a, 1)
		} else {
			t.SpinUntilEqual(a, 1)
			times[t.ID()] = t.Now()
		}
	})
	minT, maxT := times[1], times[1]
	for _, x := range times[1:] {
		if x < minT {
			minT = x
		}
		if x > maxT {
			maxT = x
		}
	}
	wantSpread := float64(readers-1) * m.ReadContention
	if got := maxT - minT; got < wantSpread-1e-9 {
		t.Fatalf("reader spread = %g, want >= %g", got, wantSpread)
	}
}

func TestFalseSharingCostsMoreThanPadded(t *testing.T) {
	// Two threads each hammering their own flag: on one line the writes
	// ping-pong ownership; padded they stay local.
	m := topology.Kunpeng920()
	run := func(padded bool) float64 {
		k := newTestKernel(t, m, 2)
		var flags []Addr
		if padded {
			flags = k.AllocPadded(2)
		} else {
			flags = k.Alloc(2)
		}
		k.Run(func(t *Thread) {
			a := flags[t.ID()]
			for i := 0; i < 50; i++ {
				t.Store(a, uint64(i))
			}
		})
		return k.MaxTime()
	}
	packed, padded := run(false), run(true)
	if packed <= padded {
		t.Fatalf("false sharing not penalized: packed %g <= padded %g", packed, padded)
	}
	if packed < 4*padded {
		t.Logf("note: packed/padded ratio only %.2f", packed/padded)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, Stats) {
		m := topology.Phytium2000()
		k := newTestKernel(t, m, 16)
		c := k.Alloc(1)[0]
		g := k.Alloc(1)[0]
		k.Run(func(t *Thread) {
			// A tiny sense barrier, enough to exercise every op kind.
			for round := uint64(1); round <= 3; round++ {
				if t.FetchAdd(c, 1) == 15 {
					t.Store(c, 0)
					t.Store(g, round)
				} else {
					t.SpinUntilEqual(g, round)
				}
			}
		})
		return k.MaxTime(), k.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("non-deterministic times: %g vs %g", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("non-deterministic stats: %+v vs %+v", s1, s2)
	}
}

func TestDeadlockPanics(t *testing.T) {
	m := topology.XeonGold()
	k := newTestKernel(t, m, 2)
	a := k.Alloc(1)[0]
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	k.Run(func(t *Thread) {
		if t.ID() == 1 {
			t.SpinUntilEqual(a, 99) // never written
		}
	})
}

func TestRunTwicePanics(t *testing.T) {
	k := newTestKernel(t, topology.XeonGold(), 1)
	k.Run(func(t *Thread) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	k.Run(func(t *Thread) {})
}

func TestAllocAfterRunPanics(t *testing.T) {
	k := newTestKernel(t, topology.XeonGold(), 1)
	k.Run(func(t *Thread) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc after Run did not panic")
		}
	}()
	k.Alloc(1)
}

func TestBadAddressPanics(t *testing.T) {
	k := newTestKernel(t, topology.XeonGold(), 1)
	k.Alloc(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad address")
		}
	}()
	k.Run(func(t *Thread) {
		t.Load(Addr(99))
	})
}

func TestTraceReceivesEvents(t *testing.T) {
	m := topology.XeonGold()
	p, _ := topology.Compact(m, 2)
	var events []Event
	k, err := New(Config{Machine: m, Placement: p, Trace: func(e Event) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	a := k.Alloc(1)[0]
	k.Run(func(t *Thread) {
		if t.ID() == 0 {
			t.Store(a, 1)
		} else {
			t.SpinUntilEqual(a, 1)
		}
	})
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind.String())
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"store", "load"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace %v missing %q", kinds, want)
		}
	}
	// Events must be in nondecreasing start-time order per thread.
	lastPerThread := map[int]float64{}
	for _, e := range events {
		if e.Time < lastPerThread[e.Thread] {
			t.Fatalf("out-of-order event for thread %d: %v", e.Thread, e)
		}
		lastPerThread[e.Thread] = e.Time
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	k := newTestKernel(t, topology.XeonGold(), 1)
	k.Run(func(t *Thread) {
		t.Compute(123.5)
		if t.Now() != 123.5 {
			panic("clock wrong")
		}
	})
	if k.MaxTime() != 123.5 {
		t.Fatalf("MaxTime = %g", k.MaxTime())
	}
}

func TestComputeNegativePanics(t *testing.T) {
	k := newTestKernel(t, topology.XeonGold(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Compute did not panic")
		}
	}()
	k.Run(func(t *Thread) { t.Compute(-1) })
}

func TestOpKindString(t *testing.T) {
	if OpLoad.String() != "load" || OpStore.String() != "store" ||
		OpAtomic.String() != "atomic" || OpWake.String() != "wake" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown OpKind empty")
	}
}

func TestThreadAccessors(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Custom(m, []int{5, 40})
	k, err := New(Config{Machine: m, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	if k.Threads() != 2 || k.Machine().Name != "thunderx2" {
		t.Fatal("kernel accessors wrong")
	}
	k.Run(func(t *Thread) {
		if t.ID() == 1 && t.Core() != 40 {
			panic("core mapping wrong")
		}
	})
}

// TestRunLeavesNoGoroutine runs 8-thread programs that complete, panic
// in one thread while the others spin, and deadlock, and checks that no
// simulated thread outlives Run in any of them. The program's panic
// value must still reach Run's caller.
func TestRunLeavesNoGoroutine(t *testing.T) {
	type boom struct{}
	cases := []struct {
		name string
		prog func(a Addr) func(*Thread)
		want func(r any) bool
	}{
		{"complete", func(a Addr) func(*Thread) {
			return func(t *Thread) {
				if t.ID() == 0 {
					t.Store(a, 1)
				}
				t.SpinUntilEqual(a, 1)
			}
		}, func(r any) bool { return r == nil }},
		{"panic", func(a Addr) func(*Thread) {
			return func(t *Thread) {
				t.Load(a)
				if t.ID() == 3 {
					panic(boom{})
				}
				t.SpinUntilEqual(a, 1)
			}
		}, func(r any) bool { return r == boom{} }},
		{"deadlock", func(a Addr) func(*Thread) {
			return func(t *Thread) { t.SpinUntilEqual(a, 1) }
		}, func(r any) bool {
			msg, ok := r.(string)
			return ok && strings.Contains(msg, "deadlock")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				k := newTestKernel(t, topology.XeonGold(), 8)
				a := k.Alloc(1)[0]
				r := func() (r any) {
					defer func() { r = recover() }()
					k.Run(c.prog(a))
					return nil
				}()
				if !c.want(r) {
					t.Fatalf("Run recovered %v", r)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("%d goroutines after Run, baseline %d:\n%s", runtime.NumGoroutine(), base, buf)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
