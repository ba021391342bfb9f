package obs

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armbarrier/barrier"
	"armbarrier/internal/liveness"
)

var updateGolden = flag.Bool("update", false, "rewrite obs/testdata/*.prom from the current exporters")

// goldenHist builds a NumBuckets log2 histogram from bucket -> count.
func goldenHist(counts map[int]uint64) []uint64 {
	h := make([]uint64, NumBuckets)
	for b, c := range counts {
		h[b] = c
	}
	return h
}

// goldenSnapshot is a hand-made instrument snapshot: a label value
// holding every escaped character, a counter above 2^53 (exact only
// when formatted as an integer), a counter of 1000000 (1e+06 through
// float64), phases with a sampleless cell (NaN p50) and elastic
// membership.
func goldenSnapshot() Snapshot {
	return Snapshot{
		Barrier:      "a\\b\"c\nd",
		Participants: 2,
		SampleEvery:  4,
		PerParti: []ParticipantSnapshot{
			{ID: 0, Rounds: 1<<53 + 1, Spins: 1000000, Yields: 3, Parks: 2, Wakes: 2, FusedRounds: 7,
				WaitSamples: 5, WaitSumNs: 12345, WaitMaxNs: 9000,
				WaitHist:   goldenHist(map[int]uint64{3: 2, 7: 1, 12: 2}),
				LastSkewNs: 250, SkewSumNs: 1000, MeanSkewNs: 12.5},
			{ID: 1, Rounds: 42, Spins: 0, Yields: 0, Parks: 0, Wakes: 0,
				WaitSamples: 0, WaitHist: goldenHist(nil),
				LastSkewNs: -3, MeanSkewNs: 1e21},
		},
		Skew: SkewSnapshot{Rounds: 3, SumNs: 700, MaxNs: 400,
			Hist: goldenHist(map[int]uint64{0: 1, 8: 1, 9: 1})},
		Phases: &PhaseSnapshot{
			ArrivalLevels: 2, WakeupLevels: 1,
			Levels: []PhaseLevelSnapshot{
				{Phase: "arrival", Level: 0, Samples: 4, SumNs: 800, MaxNs: 1000000, SkewNs: 33.25,
					Hist: goldenHist(map[int]uint64{7: 3, 20: 1})},
				{Phase: "arrival", Level: 1, Hist: goldenHist(nil)},
				{Phase: "wakeup", Level: 0, Samples: 2, SumNs: 90, MaxNs: 60, SkewNs: 0,
					Hist: goldenHist(map[int]uint64{5: 1, 6: 1})},
			},
		},
		Elastic: &ElasticSnapshot{Registered: 2, Capacity: 8, Registers: 10, Deregisters: 8, Phase: 1 << 60},
	}
}

// goldenStream returns a stream snapshot before its first rotation
// (every current-window gauge NaN) and one after two rotations whose
// last window has wait samples but no skew rounds (skew gauges NaN).
func goldenStream() (before, after StreamSnapshot) {
	before = StreamSnapshot{
		Barrier: "stream", Participants: 4, WindowNs: 250_000_000,
		Straggler: -1, Counts: map[string]uint64{},
	}
	after = StreamSnapshot{
		Barrier: "stream", Participants: 4, WindowNs: 250_000_000, Rotations: 2,
		Straggler: 3, Timeouts: 1, Panics: 0, WatchdogStalls: 1 << 54,
		Windows: []WindowStats{
			{Index: 0, Rounds: 100, WaitSamples: 10, SkewRounds: 10, EpisodeRate: 400},
			{Index: 1, Rounds: 80, WaitSamples: 8, SkewRounds: 0,
				EpisodeRate: 320.5, WaitP50Ns: 1500, WaitP99Ns: 2.5e6, WaitMaxNs: 3e6,
				SkewMeanNs: 99, SkewP99Ns: 99, SpinRate: 1e-3, YieldRate: 12, ParkRate: 0, WakeRate: 7.75},
		},
		Counts: map[string]uint64{
			AlertStraggler.String(): 1, AlertWatchdogStall.String(): 1000000,
		},
	}
	return before, after
}

// goldenWatchdog returns a watchdog snapshot with and without a
// recorded stall.
func goldenWatchdog() (clean, stalled barrier.WatchdogSnapshot) {
	clean = barrier.WatchdogSnapshot{
		Barrier: "wd", Participants: 3, DeadlineNs: 2_000_000_000,
		Rounds: []uint64{5, 5, 1<<53 + 3}, WaitingNs: []int64{0, 0, 0},
	}
	stalled = barrier.WatchdogSnapshot{
		Barrier: "wd\"x", Participants: 3, DeadlineNs: 50_000_000, Stalls: 2, Stalled: true,
		Rounds: []uint64{9, 9, 8}, WaitingNs: []int64{61_000_000, 0, 60_500_000},
		LastStall: &liveness.Stall{Name: "wd", Round: 9, Arrived: 2, Participants: 3, Missing: []int{1}},
	}
	return clean, stalled
}

// goldenDrift is a scoreboard with sampleless (NaN) cells, an unfitted
// alpha and a diverged phase.
func goldenDrift() DriftSnapshot {
	nan := math.NaN()
	return DriftSnapshot{
		Barrier: "drift", Machine: "kunpeng\\920", Windows: 1000000,
		Levels: []DriftLevel{
			{Phase: "arrival", Level: 0, FanIn: 4, Samples: 12, MeasuredNs: 410.5, PredictedNs: 200, Ratio: 2.0525},
			{Phase: "arrival", Level: 1, FanIn: 2, MeasuredNs: nan, PredictedNs: 150, Ratio: nan},
			{Phase: "wakeup", Level: 0, Samples: 3, MeasuredNs: 90, PredictedNs: 100, Ratio: 0.9},
		},
		Phases: []DriftPhase{
			{Phase: "arrival", Watched: true, MeasuredNs: 410.5, PredictedNs: 200, Ratio: 2.0525, EwmaLog2: 2.25, Diverged: true},
			{Phase: "wakeup", MeasuredNs: nan, PredictedNs: nan, Ratio: nan, EwmaLog2: nan},
		},
		FittedAlpha: nan, FittedLNs: math.Inf(1), ModelAlpha: 0.35, AlertsTotal: 1<<53 + 1,
	}
}

// TestExpositionGolden byte-compares every Prometheus writer's output
// for fixed hand-made snapshots with obs/testdata/*.prom, so a change
// to how the exposition is produced cannot silently change what it
// says. Regenerate deliberately with go test ./obs/ -run
// TestExpositionGolden -update.
func TestExpositionGolden(t *testing.T) {
	streamBefore, streamAfter := goldenStream()
	wdClean, wdStalled := goldenWatchdog()
	cases := []struct {
		file  string
		write func(io.Writer) error
	}{
		{"metrics.prom", func(w io.Writer) error { return WritePrometheus(w, goldenSnapshot()) }},
		{"stream_before.prom", func(w io.Writer) error { return WriteStreamPrometheus(w, streamBefore) }},
		{"stream_after.prom", func(w io.Writer) error { return WriteStreamPrometheus(w, streamAfter) }},
		{"watchdog.prom", func(w io.Writer) error { return WriteWatchdogPrometheus(w, wdClean) }},
		{"watchdog_stalled.prom", func(w io.Writer) error { return WriteWatchdogPrometheus(w, wdStalled) }},
		{"drift.prom", func(w io.Writer) error { return WriteDriftPrometheus(w, goldenDrift()) }},
	}
	for _, c := range cases {
		var b strings.Builder
		if err := c.write(&b); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", c.file, err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: exposition differs from the golden file\n got:\n%s\nwant:\n%s", c.file, got, want)
		}
	}
}
