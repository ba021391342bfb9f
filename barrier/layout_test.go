package barrier

import (
	"testing"
	"unsafe"
)

// Layout tests: the padding optimization only works if the padded
// types really are cacheline-sized, and the packed MCS arrival node
// really shares one line — these sizes are load-bearing for the
// library's performance claims.

func TestPaddedUint32Size(t *testing.T) {
	if got := unsafe.Sizeof(paddedUint32{}); got != cacheLine {
		t.Fatalf("paddedUint32 is %d bytes, want %d", got, cacheLine)
	}
}

func TestPaddedFlagsDoNotShareLines(t *testing.T) {
	flags := make([]paddedUint32, 4)
	for i := 1; i < len(flags); i++ {
		a := uintptr(unsafe.Pointer(&flags[i-1].v))
		b := uintptr(unsafe.Pointer(&flags[i].v))
		if b-a < cacheLine {
			t.Fatalf("padded flags %d and %d are %d bytes apart, want >= %d", i-1, i, b-a, cacheLine)
		}
	}
}

func TestMCSArrivalNodePacked(t *testing.T) {
	var n mcsArrivalNode
	first := uintptr(unsafe.Pointer(&n.child[0]))
	last := uintptr(unsafe.Pointer(&n.child[3]))
	if last-first != 12 {
		t.Fatalf("child flags span %d bytes, want 12 (packed word)", last-first)
	}
	if got := unsafe.Sizeof(n); got != cacheLine {
		t.Fatalf("mcsArrivalNode is %d bytes, want one line (%d)", got, cacheLine)
	}
}

func TestFwayCounterPadded(t *testing.T) {
	if got := unsafe.Sizeof(fwayCounter{}); got != cacheLine {
		t.Fatalf("fwayCounter is %d bytes, want %d", got, cacheLine)
	}
}

func TestHierGroupLinePadded(t *testing.T) {
	// The whole point of the group line is exclusive ownership: counter,
	// sense and result must share exactly one padded line, and the
	// representative slots must not straddle into a neighbour's.
	if got := unsafe.Sizeof(hierGroup{}); got != cacheLine {
		t.Fatalf("hierGroup is %d bytes, want %d", got, cacheLine)
	}
	if got := unsafe.Sizeof(hierRep{}); got != cacheLine {
		t.Fatalf("hierRep is %d bytes, want %d", got, cacheLine)
	}
}

func TestSharedPadSlotsAreLineMultiples(t *testing.T) {
	// park, deadline and probe slots all use the internal/pad
	// trailing-pad formula; each must stay an exact line multiple so a
	// slice of them keeps the one-participant-one-line property.
	for name, size := range map[string]uintptr{
		"parkSlot":     unsafe.Sizeof(parkSlot{}),
		"deadlineSlot": unsafe.Sizeof(deadlineSlot{}),
		"probeSlot":    unsafe.Sizeof(probeSlot{}),
	} {
		if size%cacheLine != 0 {
			t.Errorf("%s is %d bytes, want a multiple of %d", name, size, cacheLine)
		}
	}
}

func TestDisseminationLocalPadded(t *testing.T) {
	if got := unsafe.Sizeof(disseminationLocal{}); got < cacheLine {
		t.Fatalf("disseminationLocal is %d bytes, want >= %d", got, cacheLine)
	}
}

func TestCombiningNodePadded(t *testing.T) {
	if got := unsafe.Sizeof(combiningNode{}); got < cacheLine {
		t.Fatalf("combiningNode is %d bytes, want >= %d", got, cacheLine)
	}
}

func TestPackedFWayFlagsAreDense(t *testing.T) {
	// The unpadded (original STOUR) flags must be 4 bytes apart to
	// reproduce the paper's 16-flags-per-line interference.
	f := NewFWay(64, FWayConfig{Wakeup: WakeGlobal})
	if f.padded {
		t.Fatal("default STOUR should be packed")
	}
	flags := f.flagsPacked[0]
	if len(flags) < 2 {
		t.Skip("not enough flags")
	}
	a := uintptr(unsafe.Pointer(&flags[0]))
	b := uintptr(unsafe.Pointer(&flags[1]))
	if b-a != 4 {
		t.Fatalf("packed flags are %d bytes apart, want 4", b-a)
	}
}
