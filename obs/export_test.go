package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"armbarrier/barrier"
)

// drive runs a wrapped barrier for the given number of rounds so its
// snapshot has content worth exporting.
func drive(in *Instrumented, rounds int) {
	barrier.Run(in, func(id int) {
		for r := 0; r < rounds; r++ {
			in.Wait(id)
		}
	})
}

// TestPrometheusLabelEscaping puts every character the exposition
// format escapes — backslash, double quote, newline — into the barrier
// name and checks they come out as \\, \" and \n exactly once (the
// old code %q-quoted the already-escaped value, doubling every escape).
func TestPrometheusLabelEscaping(t *testing.T) {
	in := Instrument(barrier.New(2), Options{Name: "a\\b\"c\nd", SampleEvery: 1})
	drive(in, 8)
	var sb strings.Builder
	if err := WritePrometheus(&sb, in.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	const want = `barrier="a\\b\"c\nd"`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing correctly escaped label %s", want)
	}
	if strings.Contains(out, `a\\\\b`) || strings.Contains(out, `\\"c`) {
		t.Errorf("label value double-escaped:\n%s", firstLine(out))
	}
	// The raw newline must never survive into a series line: every
	// line of the exposition is either a comment or starts with the
	// metric-family prefix.
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "armbarrier_") {
			continue
		}
		t.Errorf("line %d is neither comment nor series — raw newline leaked from the label: %q", i, line)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestPublishDuplicatePanics pins the documented expvar contract:
// publishing the same name twice panics (the standard registry has no
// unregister), so callers must treat Publish as once-per-process.
func TestPublishDuplicatePanics(t *testing.T) {
	in := Instrument(barrier.New(1), Options{Name: "dup-test"})
	in.Publish("export_test_dup") // first registration is fine
	defer func() {
		if recover() == nil {
			t.Error("second Publish under the same name did not panic")
		}
	}()
	in.Publish("export_test_dup")
}

// TestSnapshotJSONRoundTripMerged merges two snapshots and checks the
// merged document survives encoding/json unchanged — the contract the
// JSON exporter and any downstream dashboard rely on.
func TestSnapshotJSONRoundTripMerged(t *testing.T) {
	a := Instrument(barrier.New(2), Options{Name: "rt", SampleEvery: 1})
	b := Instrument(barrier.New(2), Options{Name: "rt", SampleEvery: 1})
	drive(a, 50)
	drive(b, 30)
	merged := a.Snapshot().Merge(b.Snapshot())
	if merged.TotalRounds() != 80 {
		t.Fatalf("merged rounds = %d, want 80", merged.TotalRounds())
	}

	buf, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, back) {
		t.Errorf("snapshot changed across JSON round-trip:\nbefore %+v\nafter  %+v", merged, back)
	}
	if back.TotalRounds() != merged.TotalRounds() {
		t.Errorf("TotalRounds %d != %d after round-trip", back.TotalRounds(), merged.TotalRounds())
	}
}

// TestFormatFloatSpecials pins the exposition spellings of the
// non-real sample values: the format admits exactly "NaN", "+Inf" and
// "-Inf", and Go's %g would render Inf without the mandatory sign.
func TestFormatFloatSpecials(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{0, "0"},
		{1.5, "1.5"},
		{-2.25e6, "-2.25e+06"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestElasticSnapshotAndExport: instrumenting an elastic barrier must
// surface the membership telemetry — discovered through an Inner()
// chain (here a Watchdog; the counters come from the phaser itself) —
// in both the snapshot and the Prometheus exposition.
func TestElasticSnapshotAndExport(t *testing.T) {
	ph := barrier.NewPhaser(4)
	var parties []*barrier.Party
	for i := 0; i < 3; i++ {
		p, err := ph.Register()
		if err != nil {
			t.Fatal(err)
		}
		parties = append(parties, p)
	}
	wd := barrier.NewWatchdog(ph, barrier.WatchdogConfig{Deadline: time.Minute})
	in := Instrument(wd, Options{SampleEvery: 1})
	barrier.RunIDs(in, []int{0, 1, 2}, func(id int) {
		for r := 0; r < 4; r++ {
			in.Wait(id)
		}
	})
	parties[2].Deregister()

	s := in.Snapshot()
	if s.Elastic == nil {
		t.Fatal("Snapshot().Elastic = nil for a phaser behind a watchdog")
	}
	e := *s.Elastic
	if e.Registered != 2 || e.Capacity != 4 || e.Registers != 3 || e.Deregisters != 1 || e.Phase != 4 {
		t.Errorf("Elastic = %+v, want registered=2 capacity=4 registers=3 deregisters=1 phase=4", e)
	}

	var sb strings.Builder
	if err := WritePrometheus(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`armbarrier_registered_parties{barrier="phaser"} 2`,
		`armbarrier_party_capacity{barrier="phaser"} 4`,
		`armbarrier_register_total{barrier="phaser"} 3`,
		`armbarrier_deregister_total{barrier="phaser"} 1`,
		`armbarrier_phaser_phase_total{barrier="phaser"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A fixed barrier exports no elastic families.
	fixed := Instrument(barrier.New(2), Options{})
	if fs := fixed.Snapshot(); fs.Elastic != nil {
		t.Error("fixed barrier snapshot has Elastic")
	}

	// JSON round trip keeps the elastic block.
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Elastic == nil || *back.Elastic != e {
		t.Errorf("JSON round trip elastic = %+v, want %+v", back.Elastic, e)
	}

	// Merge sums the counters and keeps the receiver's gauge.
	m := s.Merge(s)
	if m.Elastic == nil || m.Elastic.Registers != 6 || m.Elastic.Phase != 8 || m.Elastic.Registered != 2 {
		t.Errorf("merged elastic = %+v", m.Elastic)
	}
}
