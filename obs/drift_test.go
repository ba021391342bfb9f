package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"armbarrier/barrier"
	"armbarrier/internal/faultinject"
	"armbarrier/topology"
)

// toyMachine builds a synthetic machine whose predictions are wildly
// off in a chosen direction, so divergence tests don't depend on how
// the host compares to a real Kunpeng 920.
func toyMachine(latencyNs float64) *topology.Machine {
	return &topology.Machine{
		Name:           "toy",
		Cores:          8,
		ClusterSize:    4,
		Epsilon:        1,
		Latency:        []float64{latencyNs},
		Alpha:          0.5,
		ReadContention: 1,
	}
}

// phasedBarrier builds the standard drift-test subject: the optimized
// barrier, instrumented with exact sampling and probes armed.
func phasedBarrier(p int) *Instrumented {
	return Instrument(barrier.New(p), Options{SampleEvery: 1, Phases: true})
}

// TestDriftBoardRequiresPhases pins the constructor contract.
func TestDriftBoardRequiresPhases(t *testing.T) {
	if _, err := NewDriftBoard(Instrument(barrier.New(4), Options{}), DriftConfig{}); err == nil {
		t.Error("drift board built without Options.Phases")
	}
	if _, err := NewDriftBoard(Instrument(barrier.NewCentral(4), Options{Phases: true}), DriftConfig{}); err == nil {
		t.Error("drift board built over a barrier without probes")
	}
}

// TestDriftScoreboardShape checks one Observe fills every row, prices
// every cell, and fits a clamped α.
func TestDriftScoreboardShape(t *testing.T) {
	in := phasedBarrier(8)
	board, err := NewDriftBoard(in, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runRounds(in, 60)
	board.Observe()
	s := board.Scoreboard()
	arr, wake := in.Inner().(barrier.PhaseProber).PhaseShape()
	if len(s.Levels) != arr+wake {
		t.Fatalf("%d rows, want %d", len(s.Levels), arr+wake)
	}
	if s.Windows != 1 {
		t.Errorf("windows = %d, want 1", s.Windows)
	}
	for _, l := range s.Levels {
		if l.PredictedNs <= 0 {
			t.Errorf("%s L%d: predicted %g, want > 0", l.Phase, l.Level, l.PredictedNs)
		}
		if l.Phase == "arrival" && l.FanIn < 2 {
			t.Errorf("arrival L%d: fan-in %d, want >= 2", l.Level, l.FanIn)
		}
		if l.Samples >= DefaultDriftMinSamples && math.IsNaN(l.MeasuredNs) {
			t.Errorf("%s L%d: %d samples but NaN measurement", l.Phase, l.Level, l.Samples)
		}
	}
	if len(s.Phases) != barrier.NumPhases {
		t.Fatalf("%d phase verdicts, want %d", len(s.Phases), barrier.NumPhases)
	}
	if math.IsNaN(s.FittedAlpha) || s.FittedAlpha < 0 || s.FittedAlpha > 1 {
		t.Errorf("fitted alpha %g outside [0,1]", s.FittedAlpha)
	}
	if s.Format() == "" {
		t.Error("empty Format")
	}
}

// TestDriftSingleFireLatch drives a board whose toy machine guarantees
// divergence and checks the latch: the first Observe raises exactly
// one alert per watched phase, continued divergence raises none.
func TestDriftSingleFireLatch(t *testing.T) {
	in := phasedBarrier(4)
	// Predictions in the seconds: every real measurement is orders of
	// magnitude faster, so both phases diverge on the first window.
	board, err := NewDriftBoard(in, DriftConfig{Machine: toyMachine(1e9)})
	if err != nil {
		t.Fatal(err)
	}
	runRounds(in, 40)
	first := board.Observe()
	if len(first) != barrier.NumPhases {
		t.Fatalf("first Observe raised %d alerts, want %d (one per phase)", len(first), barrier.NumPhases)
	}
	for _, a := range first {
		if a.Kind != AlertModelDrift {
			t.Errorf("alert kind %s, want model_drift", a.Kind)
		}
		if a.Kind.String() != "model_drift" {
			t.Errorf("kind label %q, want model_drift", a.Kind.String())
		}
	}
	runRounds(in, 40)
	if again := board.Observe(); len(again) != 0 {
		t.Errorf("still-diverged second Observe raised %d new alerts, want 0 (latch)", len(again))
	}
	s := board.Scoreboard()
	if s.AlertsTotal != uint64(barrier.NumPhases) {
		t.Errorf("alerts_total = %d, want %d", s.AlertsTotal, barrier.NumPhases)
	}
	if got := len(board.Alerts()); got != barrier.NumPhases {
		t.Errorf("alert history holds %d, want %d", got, barrier.NumPhases)
	}
}

// TestDriftPhasesFilter checks the watch filter: only listed phases
// may alert, the others still report but stay silent.
func TestDriftPhasesFilter(t *testing.T) {
	in := phasedBarrier(4)
	board, err := NewDriftBoard(in, DriftConfig{
		Machine: toyMachine(1e9),
		Phases:  []barrier.Phase{barrier.PhaseWakeup},
	})
	if err != nil {
		t.Fatal(err)
	}
	runRounds(in, 40)
	fired := board.Observe()
	if len(fired) != 1 {
		t.Fatalf("%d alerts with a single watched phase, want 1", len(fired))
	}
	if !strings.Contains(fired[0].Message, "wakeup") {
		t.Errorf("alert message %q does not name the wakeup phase", fired[0].Message)
	}
	for _, ph := range board.Scoreboard().Phases {
		if ph.Phase == "arrival" && ph.Watched {
			t.Error("arrival marked watched despite the filter")
		}
	}
}

// TestDriftStreamIntegration checks StreamOptions.Drift: the board
// rides the rotation and its alerts land in the stream's history and
// OnAlert dispatch.
func TestDriftStreamIntegration(t *testing.T) {
	in := phasedBarrier(4)
	board, err := NewDriftBoard(in, DriftConfig{Machine: toyMachine(1e9)})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []Alert
	st := NewStream(in, StreamOptions{
		Window:  time.Hour, // rotations driven manually
		Drift:   board,
		OnAlert: func(a Alert) { delivered = append(delivered, a) },
	})
	runRounds(in, 40)
	st.Rotate()
	var drift int
	for _, a := range st.Alerts() {
		if a.Kind == AlertModelDrift {
			drift++
		}
	}
	if drift != barrier.NumPhases {
		t.Errorf("stream history holds %d model_drift alerts, want %d", drift, barrier.NumPhases)
	}
	if len(delivered) < drift {
		t.Errorf("OnAlert delivered %d alerts, want >= %d", len(delivered), drift)
	}
}

// TestDriftPrometheus checks the armbarrier_drift_* exposition,
// including the NaN spelling for sampleless ratios.
func TestDriftPrometheus(t *testing.T) {
	in := phasedBarrier(4)
	board, err := NewDriftBoard(in, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Observe with no rounds: every cell is sampleless.
	board.Observe()
	var b strings.Builder
	if err := WriteDriftPrometheus(&b, board.Scoreboard()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`armbarrier_drift_level_ratio{barrier="optimized",machine="kunpeng920",phase="arrival",level="0"} NaN`,
		"armbarrier_drift_windows_total",
		"armbarrier_drift_alerts_total",
		"armbarrier_drift_model_alpha",
		`armbarrier_drift_fitted_alpha{barrier="optimized",machine="kunpeng920"} NaN`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestDriftSnapshotJSON pins the NaN-as-null convention: a sampleless
// scoreboard (all measurements NaN) must survive a JSON round trip
// with the NaNs intact — encoding/json rejects raw NaN, and flattening
// it to 0 would fake a perfect measurement.
func TestDriftSnapshotJSON(t *testing.T) {
	in := phasedBarrier(4)
	board, err := NewDriftBoard(in, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	board.Observe() // no rounds: every cell sampleless
	s := board.Scoreboard()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("sampleless scoreboard does not marshal: %v", err)
	}
	if !strings.Contains(string(buf), `"measured_ns":null`) {
		t.Errorf("sampleless measurement not encoded as null:\n%s", buf)
	}
	var back DriftSnapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Levels) != len(s.Levels) || back.Windows != s.Windows {
		t.Errorf("round trip lost rows: %d/%d windows %d/%d",
			len(back.Levels), len(s.Levels), back.Windows, s.Windows)
	}
	if !math.IsNaN(back.Levels[0].MeasuredNs) {
		t.Errorf("null did not decode back to NaN: %g", back.Levels[0].MeasuredNs)
	}
	if back.Levels[0].PredictedNs != s.Levels[0].PredictedNs {
		t.Errorf("prediction lost in round trip: %g vs %g",
			back.Levels[0].PredictedNs, s.Levels[0].PredictedNs)
	}
}

// TestDriftLocalizesDelayedParticipant is the end-to-end acceptance
// check: a deterministic fault-injected delay on one participant of a
// known tournament must (a) appear in the per-level arrival histograms
// at exactly the level where the delayed participant's subtree meets
// the champion, and (b) push the drift scoreboard into exactly one
// divergence alert naming the arrival phase.
//
// Topology: static f-way tournament, schedule [2,2,2], P=8, global
// wake-up. Participant 4 wins its level-0 and level-1 groups and meets
// champion 0 only at level 2 — so delaying participant 4 leaves every
// other gather instant (its own reads find flags already set) while
// champion 0's level-2 gather absorbs the full delay. Arrival levels 0
// and 1 stay fast; arrival level 2 carries the delay.
func TestDriftLocalizesDelayedParticipant(t *testing.T) {
	const (
		p      = 8
		rounds = 30
		delay  = 20 * time.Millisecond
	)
	fway := barrier.NewFWay(p, barrier.FWayConfig{
		Schedule: []int{2, 2, 2},
		Padded:   true,
		Wakeup:   barrier.WakeGlobal,
	})
	// Delay participant 4 on every round, so the drift window's mean
	// is dominated by the injected delay, not scheduler noise. On a
	// 2-CPU host running other race-enabled suites, descheduling alone
	// puts L0/L1 means at up to 0.4 ms with or without a delay (they
	// do not grow with it), so the delay must sit far above that. The
	// injector wraps the *instrumented* barrier: the sleep happens
	// before participant 4 enters Wait — a late arrival, the paper's
	// imbalance scenario — so the delay is charged to whoever waits for
	// it (champion 0's level-2 gather), not to participant 4's own
	// first mark.
	in := Instrument(fway, Options{SampleEvery: 1, Phases: true})
	if in.Snapshot(); in.phases == nil {
		t.Fatal("Options.Phases produced no probe recorder")
	}
	faults := make([]faultinject.Fault, rounds)
	for r := range faults {
		faults[r] = faultinject.Fault{ID: 4, Round: uint64(r), Kind: faultinject.Delay, Delay: delay}
	}
	inj := faultinject.Wrap(in, faults...)
	// Watch only the arrival phase: the delayed arrival also parks
	// everyone else in their wake-up waits, so an unfiltered board
	// would (correctly) flag both phases — the test wants the arrival
	// localization to be the single alert.
	board, err := NewDriftBoard(in, DriftConfig{Phases: []barrier.Phase{barrier.PhaseArrival}})
	if err != nil {
		t.Fatal(err)
	}
	barrier.Run(inj, func(id int) {
		for r := 0; r < rounds; r++ {
			inj.Wait(id)
		}
	})

	s := in.Snapshot()
	if s.Phases == nil {
		t.Fatal("no phase snapshot")
	}
	l0 := s.Phases.Level("arrival", 0)
	l1 := s.Phases.Level("arrival", 1)
	l2 := s.Phases.Level("arrival", 2)
	if l0 == nil || l1 == nil || l2 == nil {
		t.Fatal("missing arrival levels")
	}
	// (a) Localization: the delay lands at level 2 and only level 2.
	// The L2 cell holds two marks per round — champion 0's slow gather
	// and participant 4's fast loser mark — so the mean sits near
	// delay/2 and the max near the full delay.
	if got, want := l2.MeanNs(), float64(delay.Nanoseconds())/4; got < want {
		t.Errorf("arrival L2 mean %.0f ns does not carry the %v delay", got, delay)
	}
	if got, want := float64(l2.MaxNs), float64(delay.Nanoseconds())/2; got < want {
		t.Errorf("arrival L2 max %.0f ns does not carry the %v delay", got, delay)
	}
	for lvl, l := range []*PhaseLevelSnapshot{l0, l1} {
		if mean := l.MeanNs(); mean > l2.MeanNs()/8 {
			t.Errorf("arrival L%d mean %.0f ns not clearly below L2's %.0f ns — delay not localized",
				lvl, mean, l2.MeanNs())
		}
	}

	// (b) Exactly one divergence alert, naming the arrival phase.
	fired := board.Observe()
	if len(fired) != 1 {
		t.Fatalf("drift board raised %d alerts, want exactly 1 (got %+v)", len(fired), fired)
	}
	a := fired[0]
	if a.Kind != AlertModelDrift {
		t.Errorf("alert kind %s, want model_drift", a.Kind)
	}
	if !strings.Contains(a.Message, "arrival") {
		t.Errorf("alert message %q does not name the arrival phase", a.Message)
	}
	if a.Participant != -1 {
		t.Errorf("drift alert participant %d, want -1", a.Participant)
	}
	// Still diverged on the next window: the latch holds the count at one.
	runRounds(in, 0)
	if again := board.Observe(); len(again) != 0 {
		t.Errorf("second Observe raised %d more alerts, want 0", len(again))
	}
	if got := board.Scoreboard().AlertsTotal; got != 1 {
		t.Errorf("alerts_total = %d, want exactly 1", got)
	}
}

// TestDriftLocalizesHierGroupStraggler is the hierarchical wedge
// acceptance: a fault-injected straggler inside one group of a
// two-level barrier must be (a) named by the watchdog — it is the one
// missing participant while its peers wait — and (b) localized by the
// drift board to the group-arrival phase: the late entry is charged to
// arrival level 0 (the group line), the representative-tree level
// stays fast, and the arrival-watched board raises exactly one
// divergence alert.
//
// Wrapping order matters twice. The injector wraps the watchdog so the
// watchdog never sees the faulted arrival until the delay has elapsed
// and genuinely has to report the absence; the instrumentation wraps
// the injector so the delay lands between the Wait-entry stamp and the
// straggler's first mark — its own group-arrival step, where a slow
// group member really spends the time.
func TestDriftLocalizesHierGroupStraggler(t *testing.T) {
	const (
		p         = 8
		straggler = 5 // inside the second group of {0-3},{4-7}
		rounds    = 10
		delay     = 20 * time.Millisecond
	)
	hier := barrier.NewHierarchical(p, barrier.HierarchicalConfig{GroupSize: 4, FanIn: 2})
	var mu sync.Mutex
	var stalls []barrier.Stall
	wd := barrier.NewWatchdog(hier, barrier.WatchdogConfig{
		Deadline: 5 * time.Millisecond,
		OnStall: func(s barrier.Stall) {
			mu.Lock()
			stalls = append(stalls, s)
			mu.Unlock()
		},
	})
	faults := make([]faultinject.Fault, rounds)
	for r := range faults {
		faults[r] = faultinject.Fault{ID: straggler, Round: uint64(r), Kind: faultinject.Delay, Delay: delay}
	}
	inj := faultinject.Wrap(wd, faults...)
	in := Instrument(inj, Options{SampleEvery: 1, Phases: true})
	board, err := NewDriftBoard(in, DriftConfig{Phases: []barrier.Phase{barrier.PhaseArrival}})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	barrier.Run(in, func(id int) {
		for r := 0; r < rounds; r++ {
			in.Wait(id)
		}
	})
	wd.Stop()

	// (a) The watchdog names the straggler: every stall of this run has
	// participant 5 missing — the rest of its group arrived and waited.
	mu.Lock()
	got := append([]barrier.Stall(nil), stalls...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("watchdog saw no stall across the faulted rounds")
	}
	for _, s := range got {
		named := false
		for _, id := range s.Missing {
			if id == straggler {
				named = true
			}
		}
		if !named {
			t.Fatalf("stall does not name participant %d as missing: %+v", straggler, s)
		}
	}

	// (b) Localization: the delay is charged to the group-arrival level,
	// not the representative tree.
	s := in.Snapshot()
	if s.Phases == nil {
		t.Fatal("no phase snapshot")
	}
	l0 := s.Phases.Level("arrival", 0)
	l1 := s.Phases.Level("arrival", 1)
	if l0 == nil || l1 == nil {
		t.Fatal("missing arrival levels")
	}
	if got, want := float64(l0.MaxNs), float64(delay.Nanoseconds())/2; got < want {
		t.Errorf("group-arrival max %.0f ns does not carry the %v delay", got, delay)
	}
	if l1.MeanNs() > l0.MeanNs()/8 {
		t.Errorf("representative-tree mean %.0f ns not clearly below group level's %.0f ns — delay not localized",
			l1.MeanNs(), l0.MeanNs())
	}

	// The arrival-watched board fires exactly one alert naming the phase,
	// and its worst-ratio arrival row is the group level.
	fired := board.Observe()
	if len(fired) != 1 {
		t.Fatalf("drift board raised %d alerts, want exactly 1 (got %+v)", len(fired), fired)
	}
	if fired[0].Kind != AlertModelDrift || !strings.Contains(fired[0].Message, "arrival") {
		t.Errorf("alert does not localize to the arrival phase: %+v", fired[0])
	}
	worst, worstLevel := math.Inf(-1), -1
	for _, row := range board.Scoreboard().Levels {
		if row.Phase == "arrival" && !math.IsNaN(row.Ratio) && row.Ratio > worst {
			worst, worstLevel = row.Ratio, row.Level
		}
	}
	if worstLevel != 0 {
		t.Errorf("worst arrival drift at level %d, want the group level 0", worstLevel)
	}
}
