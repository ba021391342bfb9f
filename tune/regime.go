package tune

// Regime names the scheduling environment a barrier runs in. The paper's
// core finding is that the winning algorithm and wait policy flip with
// the regime: spinning policies that win while every participant owns a
// core collapse as soon as participants outnumber cores. The regime is
// decided statically, from participants against schedulable cores:
// ClassifyStatic below, epcc's result labels and ChooseWaitPolicy share
// this vocabulary, and the barrier constructors apply the same rule when
// they pick their default wait policy.
type Regime uint8

const (
	// RegimeDedicated means every participant can own a schedulable
	// core: spinning is cheap, parking costs a wakeup.
	RegimeDedicated Regime = iota
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

// ClassifyStatic classifies the regime from the static shape of a run:
// participants versus schedulable cores.
func ClassifyStatic(participants, gomaxprocs int) Regime {
	if participants > gomaxprocs {
		return RegimeOversubscribed
	}
	return RegimeDedicated
}
