package barrier

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// spinBarriers enumerates every SpinCounter implementation for a given
// participant count and constructor options.
func spinBarriers(p int, opts ...Option) []Barrier {
	return []Barrier{
		NewCentral(p, opts...),
		NewDissemination(p, opts...),
		NewCombining(p, 2, opts...),
		NewMCS(p, opts...),
		NewTournament(p, opts...),
		NewStaticFWay(p, opts...),
		NewDynamicFWay(p, opts...),
		NewHyper(p, opts...),
		New(p, opts...),
		NewRing(p, opts...),
		NewHybrid(p, HybridConfig{}, opts...),
		NewNWayDissemination(p, 2, opts...),
	}
}

func TestSpinCountsDisabledByDefault(t *testing.T) {
	for _, b := range spinBarriers(4) {
		sc, ok := b.(SpinCounter)
		if !ok {
			t.Fatalf("%s does not implement SpinCounter", b.Name())
		}
		Run(b, func(id int) {
			for r := 0; r < 3; r++ {
				b.Wait(id)
			}
		})
		for id := 0; id < 4; id++ {
			if s, y := sc.SpinCounts(id); s != 0 || y != 0 {
				t.Fatalf("%s: counts %d/%d without EnableSpinCounts", b.Name(), s, y)
			}
		}
	}
}

func TestSpinCountsEnabled(t *testing.T) {
	const p, rounds = 4, 50
	// Spin-yield pinned: P=4 is oversubscribed on a host with fewer
	// processors, where the default waits yield first and never spin.
	for _, b := range spinBarriers(p, WithWaitPolicy(SpinYieldWait())) {
		sc := b.(SpinCounter)
		sc.EnableSpinCounts()
		Run(b, func(id int) {
			for r := 0; r < rounds; r++ {
				b.Wait(id)
			}
		})
		// On one or more cores, *some* participant must have polled at
		// least once per round: whoever arrives early spins on a flag.
		total := uint64(0)
		for id := 0; id < p; id++ {
			s, _ := sc.SpinCounts(id)
			total += s
		}
		if total == 0 {
			t.Errorf("%s: zero spins across %d rounds at P=%d", b.Name(), rounds, p)
		}
	}
}

func TestSpinCountsSingleParticipant(t *testing.T) {
	b := NewCentral(1)
	b.EnableSpinCounts()
	b.Wait(0)
	if s, y := b.SpinCounts(0); s != 0 || y != 0 {
		t.Fatalf("P=1 should never spin, got %d/%d", s, y)
	}
}

func TestSpinCountsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range participant")
		}
	}()
	NewCentral(2).SpinCounts(2)
}

func TestSpinCountPadding(t *testing.T) {
	if s := unsafe.Sizeof(spinCount{}); s != cacheLine {
		t.Fatalf("spinCount is %d bytes, want %d", s, cacheLine)
	}
}

// BenchmarkSpinUntilEqNil measures the uninstrumented poll loop on an
// already-set flag: the hot-path cost every barrier pays per flag wait.
func BenchmarkSpinUntilEqNil(b *testing.B) {
	var f atomic.Uint32
	f.Store(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spinUntilEq(&f, 1, nil)
	}
}

// BenchmarkSpinUntilEqCounted is the same loop with a counter attached,
// bounding what instrumentation adds per completed wait.
func BenchmarkSpinUntilEqCounted(b *testing.B) {
	var f atomic.Uint32
	f.Store(1)
	var c spinCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spinUntilEq(&f, 1, &c)
	}
}
