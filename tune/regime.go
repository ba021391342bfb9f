package tune

import (
	"fmt"

	"armbarrier/barrier"
)

// Regime names the scheduling environment a barrier runs in. The paper's
// core finding is that the winning algorithm and wait policy flip with
// the regime: spinning policies that win while every participant owns a
// core collapse as soon as participants outnumber cores. Everything that
// talks about regimes — the static classifier below, epcc's result
// labels, and the obs/stream online detector — shares this vocabulary so
// a tuner can compare a live classification against a tuning decision.
type Regime uint8

const (
	// RegimeUnknown means no classification has been made (an idle
	// window, a barrier that has not run yet).
	RegimeUnknown Regime = iota
	// RegimeDedicated means every participant can own a schedulable
	// core: spinning is cheap, parking costs a wakeup.
	RegimeDedicated
	// RegimeOversubscribed means participants outnumber schedulable
	// cores: a spinning waiter burns the quantum of the very goroutine
	// it waits for, so parking wins.
	RegimeOversubscribed
)

// String implements fmt.Stringer with the labels epcc's tables use.
func (r Regime) String() string {
	switch r {
	case RegimeDedicated:
		return "dedicated"
	case RegimeOversubscribed:
		return "oversubscribed"
	}
	return "unknown"
}

// MarshalText implements encoding.TextMarshaler, so a Regime marshals
// into JSON as its string label.
func (r Regime) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (r *Regime) UnmarshalText(b []byte) error {
	p, err := ParseRegime(string(b))
	if err != nil {
		return err
	}
	*r = p
	return nil
}

// ParseRegime parses a regime label as printed by String.
func ParseRegime(s string) (Regime, error) {
	switch s {
	case "dedicated":
		return RegimeDedicated, nil
	case "oversubscribed":
		return RegimeOversubscribed, nil
	case "unknown":
		return RegimeUnknown, nil
	}
	return RegimeUnknown, fmt.Errorf("tune: unknown regime %q (have dedicated, oversubscribed, unknown)", s)
}

// ClassifyStatic classifies the regime from the static shape of a run:
// participants versus schedulable cores. It is the a-priori rule; the
// obs/stream detector classifies the same vocabulary online from
// observed park/yield pressure, which also catches oversubscription
// caused by *other* load on the machine.
func ClassifyStatic(participants, gomaxprocs int) Regime {
	if participants > gomaxprocs {
		return RegimeOversubscribed
	}
	return RegimeDedicated
}

// WaitPolicy returns the wait discipline the regime calls for:
// spin-yield while dedicated (and as the unknown-regime default),
// spin-then-park once oversubscribed. This is the decision rule the
// README documents — choose the wait policy before tuning the tree.
func (r Regime) WaitPolicy() barrier.WaitPolicy {
	if r == RegimeOversubscribed {
		return barrier.SpinParkWait()
	}
	return barrier.SpinYieldWait()
}
