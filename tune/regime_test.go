package tune

import (
	"runtime"
	"testing"

	"armbarrier/barrier"
)

func TestRegimeString(t *testing.T) {
	cases := map[Regime]string{
		RegimeDedicated:      "dedicated",
		RegimeOversubscribed: "oversubscribed",
		Regime(200):          "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Regime(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestClassifyStatic(t *testing.T) {
	if got := ClassifyStatic(8, 8); got != RegimeDedicated {
		t.Errorf("8 on 8 = %v, want dedicated", got)
	}
	if got := ClassifyStatic(16, 8); got != RegimeOversubscribed {
		t.Errorf("16 on 8 = %v, want oversubscribed", got)
	}
}

// TestRegimeWaitPolicy pins ChooseWaitPolicy to the rule the barrier
// constructors apply by default: for this host's GOMAXPROCS, each
// regime's choice is what an option-free barrier resolves to.
func TestRegimeWaitPolicy(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, p := range []int{procs, procs + 1} {
		got := ChooseWaitPolicy(p, procs)
		if want := barrier.NewOptimized(p, barrier.OptimizedConfig{}).WaitPolicy(); got != want {
			t.Errorf("%v at P=%d: ChooseWaitPolicy %v, barrier default %v",
				ClassifyStatic(p, procs), p, got, want)
		}
	}
}
