package obs_test

import (
	"testing"
	"time"

	"armbarrier/barrier"
	"armbarrier/internal/faultinject"
	"armbarrier/obs"
)

// TestStreamStragglerFaultInjection drives the straggler detector end
// to end: a deterministic faultinject.Delay on one participant makes
// it persistently late, the stream must name exactly that participant
// after the configured persistence window, and must clear the alert
// after the faults run out.
//
// The injector wraps OUTSIDE the instrumentation — participant →
// Injector → Instrumented → barrier — so the injected delay happens
// before the arrival stamp and shows up as that participant's arrival
// skew, exactly like a genuinely slow worker would.
//
// The delay is large next to wake-up latency: on a 2-CPU host running
// other race-enabled suites, the punctual participants' mean offsets
// reach up to 4.8 ms per window whether the delay is 5 or 20 ms, so
// at 5 ms their median could exceed a quarter of the culprit's offset.
func TestStreamStragglerFaultInjection(t *testing.T) {
	const (
		p            = 4
		culprit      = 2
		slowPhases   = 3
		cleanPhases  = 2
		phaseRounds  = 10
		injectedLate = 20 * time.Millisecond
	)

	var faults []faultinject.Fault
	for r := uint64(0); r < slowPhases*phaseRounds; r++ {
		faults = append(faults, faultinject.Fault{ID: culprit, Round: r, Kind: faultinject.Delay, Delay: injectedLate})
	}

	ins := obs.Instrument(barrier.New(p), obs.Options{Name: "straggler", SampleEvery: 1})
	inj := faultinject.Wrap(ins, faults...)
	st := obs.NewStream(ins, obs.StreamOptions{Detect: obs.DetectorOptions{
		StragglerWindows: slowPhases,
		// The floor sits well above scheduling noise and well below the
		// injected delay, so only the fault can name a culprit.
		StragglerMinNs:  float64(injectedLate) / 5,
		StragglerFactor: 4,
	}})

	phase := func() {
		barrier.Run(inj, func(id int) {
			for r := 0; r < phaseRounds; r++ {
				inj.Wait(id)
			}
		})
		st.Rotate()
	}

	for i := 0; i < slowPhases; i++ {
		phase()
	}
	if id, active := st.Straggler(); !active || id != culprit {
		t.Fatalf("after %d slow windows Straggler() = (%d, %v), want (%d, true)", slowPhases, id, active, culprit)
	}
	var stragglers []obs.Alert
	for _, a := range st.Alerts() {
		if a.Kind == obs.AlertStraggler {
			stragglers = append(stragglers, a)
		}
	}
	if len(stragglers) != 1 || stragglers[0].Participant != culprit {
		t.Fatalf("straggler alerts = %v, want exactly one naming participant %d", stragglers, culprit)
	}
	if w, ok := st.Last(); !ok || w.Straggler != culprit {
		t.Errorf("last slow window blames %d, want %d", w.Straggler, culprit)
	}
	if got := float64(injectedLate); stragglers[0].Value < got/2 {
		t.Errorf("alert offset = %.0f ns, want around the injected %.0f ns", stragglers[0].Value, got)
	}

	// Faults exhausted: the participant recovers and the alert clears.
	for i := 0; i < cleanPhases; i++ {
		phase()
	}
	if id, active := st.Straggler(); active {
		t.Fatalf("straggler alert still active after recovery: participant %d", id)
	}
	cleared := false
	for _, a := range st.Alerts() {
		if a.Kind == obs.AlertStragglerCleared && a.Participant == culprit {
			cleared = true
		}
	}
	if !cleared {
		t.Fatalf("no AlertStragglerCleared for participant %d in %v", culprit, st.Alerts())
	}
	if got := inj.Injected(); got != slowPhases*phaseRounds {
		t.Errorf("injector fired %d faults, want %d", got, slowPhases*phaseRounds)
	}
}
