package tune

import (
	"encoding/json"
	"testing"

	"armbarrier/barrier"
)

func TestRegimeString(t *testing.T) {
	cases := map[Regime]string{
		RegimeUnknown:        "unknown",
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

func TestParseRegimeRoundTrip(t *testing.T) {
	for _, r := range []Regime{RegimeUnknown, RegimeDedicated, RegimeOversubscribed} {
		got, err := ParseRegime(r.String())
		if err != nil {
			t.Fatalf("ParseRegime(%q): %v", r, err)
		}
		if got != r {
			t.Errorf("ParseRegime(%q) = %v, want %v", r.String(), got, r)
		}
	}
	if _, err := ParseRegime("bare-metal"); err == nil {
		t.Error("ParseRegime accepted an unknown label")
	}
}

func TestRegimeJSON(t *testing.T) {
	buf, err := json.Marshal(RegimeOversubscribed)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != `"oversubscribed"` {
		t.Errorf("marshal = %s, want %q", buf, `"oversubscribed"`)
	}
	var back Regime
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back != RegimeOversubscribed {
		t.Errorf("round trip = %v", back)
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

func TestRegimeWaitPolicy(t *testing.T) {
	if got := RegimeDedicated.WaitPolicy(); got != barrier.SpinYieldWait() {
		t.Errorf("dedicated wait = %v", got)
	}
	if got := RegimeOversubscribed.WaitPolicy(); got != barrier.SpinParkWait() {
		t.Errorf("oversubscribed wait = %v", got)
	}
	if got := RegimeUnknown.WaitPolicy(); got != barrier.SpinYieldWait() {
		t.Errorf("unknown wait = %v", got)
	}
	// ChooseWaitPolicy is the classify-then-choose composition.
	if got := ChooseWaitPolicy(16, 8); got != barrier.SpinParkWait() {
		t.Errorf("ChooseWaitPolicy(16, 8) = %v", got)
	}
}
