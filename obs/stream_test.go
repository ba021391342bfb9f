package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"armbarrier/barrier"
)

// synthFeed drives deterministic synthetic snapshots through the full
// rollup + detector path (Stream.ingest), so windowed rollups, change
// points and straggler persistence are testable without real timing.
// The feed owns a cumulative Snapshot (the shape ingest diffs) and a
// synthetic monotonic clock aligned with the stream's baseline.
type synthFeed struct {
	t     *testing.T
	st    *Stream
	snap  Snapshot
	nowNs int64
}

// winSpec describes one synthetic window's worth of activity.
type winSpec struct {
	dur    time.Duration // window length (default 1s)
	rounds uint64        // episodes completed, per participant
	waitNs int64         // wait latency of every sampled round
	parks  uint64        // parks (and wakes) added per participant
	yields uint64        // yields added per participant
	offs   []int64       // per-participant per-round arrival offset (nil = all 0)
	stalls uint64        // cumulative watchdog stall count at rotation
}

func newSynthFeed(t *testing.T, participants int, opts StreamOptions) *synthFeed {
	t.Helper()
	in := Instrument(barrier.New(participants), Options{Name: "synth", SampleEvery: 1})
	st := NewStream(in, opts)
	f := &synthFeed{t: t, st: st, nowNs: st.prevNowNs}
	f.snap = Snapshot{
		Barrier:      "synth",
		Participants: participants,
		SampleEvery:  1,
		PerParti:     make([]ParticipantSnapshot, participants),
		Skew:         SkewSnapshot{Hist: make([]uint64, NumBuckets)},
	}
	for i := range f.snap.PerParti {
		f.snap.PerParti[i] = ParticipantSnapshot{ID: i, WaitHist: make([]uint64, NumBuckets)}
	}
	return f
}

// window advances the feed by one window and rotates, returning the
// alerts that window raised. Alerts are also dispatched to OnAlert,
// mirroring Rotate.
func (f *synthFeed) window(w winSpec) []Alert {
	f.t.Helper()
	if w.dur <= 0 {
		w.dur = time.Second
	}
	var maxOff int64
	for i := range f.snap.PerParti {
		ps := &f.snap.PerParti[i]
		ps.Rounds += w.rounds
		ps.Parks += w.parks
		ps.Wakes += w.parks
		ps.Yields += w.yields
		ps.Spins += w.rounds * 4
		if w.rounds > 0 {
			ps.WaitHist[bucketOf(w.waitNs)] += w.rounds
			ps.WaitSamples += w.rounds
			ps.WaitSumNs += w.waitNs * int64(w.rounds)
			if w.waitNs > ps.WaitMaxNs {
				ps.WaitMaxNs = w.waitNs
			}
		}
		var off int64
		if w.offs != nil {
			off = w.offs[i]
		}
		if off > maxOff {
			maxOff = off
		}
		ps.SkewSumNs += off * int64(w.rounds)
		ps.LastSkewNs = off
	}
	if w.rounds > 0 {
		f.snap.Skew.Rounds += w.rounds
		f.snap.Skew.SumNs += maxOff * int64(w.rounds)
		f.snap.Skew.Hist[bucketOf(maxOff)] += w.rounds
		if maxOff > f.snap.Skew.MaxNs {
			f.snap.Skew.MaxNs = maxOff
		}
	}
	f.nowNs += int64(w.dur)
	fired := f.st.ingest(cloneSnapshot(f.snap), w.stalls, f.nowNs)
	f.st.dispatch(fired)
	return fired
}

// cloneSnapshot deep-copies a snapshot: ingest retains what it is
// handed as the next baseline, so the feed must not hand over its own
// mutable slices.
func cloneSnapshot(s Snapshot) Snapshot {
	out := s
	out.PerParti = make([]ParticipantSnapshot, len(s.PerParti))
	for i, p := range s.PerParti {
		out.PerParti[i] = p
		out.PerParti[i].WaitHist = append([]uint64(nil), p.WaitHist...)
	}
	out.Skew.Hist = append([]uint64(nil), s.Skew.Hist...)
	return out
}

func TestStreamRollup(t *testing.T) {
	f := newSynthFeed(t, 4, StreamOptions{})
	f.window(winSpec{rounds: 1000, waitNs: 5000, parks: 100, yields: 250,
		offs: []int64{0, 400, 800, 600}})

	w, ok := f.st.Last()
	if !ok {
		t.Fatal("no window after rotation")
	}
	if w.Rounds != 1000 {
		t.Fatalf("Rounds = %d, want 1000", w.Rounds)
	}
	if got := w.EpisodeRate; math.Abs(got-1000) > 1e-6 {
		t.Errorf("EpisodeRate = %g, want 1000 (1000 rounds over 1s)", got)
	}
	if w.WaitSamples != 4000 {
		t.Errorf("WaitSamples = %d, want 4000 (4 participants x 1000)", w.WaitSamples)
	}
	// All samples land in the [4096, 8191] bucket, so every wait
	// quantile interpolates inside it.
	for _, q := range []struct {
		name string
		v    float64
	}{{"p50", w.WaitP50Ns}, {"p99", w.WaitP99Ns}, {"max", w.WaitMaxNs}} {
		if q.v < 4096 || q.v > 8191 {
			t.Errorf("Wait%s = %g, want within bucket [4096, 8191]", q.name, q.v)
		}
	}
	if w.WaitMeanNs != 5000 {
		t.Errorf("WaitMeanNs = %g, want 5000", w.WaitMeanNs)
	}
	// Per-round skew is max offset - first arriver = 800.
	if w.SkewRounds != 1000 || w.SkewMeanNs != 800 {
		t.Errorf("skew = %d rounds mean %g, want 1000 rounds mean 800", w.SkewRounds, w.SkewMeanNs)
	}
	if w.SkewMaxNs != 800 {
		t.Errorf("SkewMaxNs = %g, want 800", w.SkewMaxNs)
	}
	// Rates are totals over the 1s window.
	if w.ParkRate != 400 || w.WakeRate != 400 || w.YieldRate != 1000 || w.SpinRate != 16000 {
		t.Errorf("rates = park %g wake %g yield %g spin %g, want 400/400/1000/16000",
			w.ParkRate, w.WakeRate, w.YieldRate, w.SpinRate)
	}
	if w.ParksPerRound != 0.1 || w.YieldsPerRound != 0.25 {
		t.Errorf("per-round = parks %g yields %g, want 0.1/0.25", w.ParksPerRound, w.YieldsPerRound)
	}
	// Offsets (max 800ns) are below the 10us straggler floor.
	if w.Straggler != -1 {
		t.Errorf("Straggler = %d, want -1", w.Straggler)
	}
	if w.StartNs >= w.EndNs || w.EndNs-w.StartNs != int64(time.Second) {
		t.Errorf("window bounds [%d, %d] do not span 1s", w.StartNs, w.EndNs)
	}
}

func TestStreamIdleWindow(t *testing.T) {
	f := newSynthFeed(t, 2, StreamOptions{})
	f.window(winSpec{}) // nothing happened
	w, _ := f.st.Last()
	if w.Rounds != 0 || w.WaitSamples != 0 || w.SkewRounds != 0 {
		t.Fatalf("idle window not empty: %+v", w)
	}
	// Quantile fields must be 0, never NaN: the JSON timeline document
	// could not represent NaN.
	for _, v := range []float64{w.WaitP50Ns, w.WaitP99Ns, w.WaitMaxNs, w.WaitMeanNs,
		w.SkewMeanNs, w.SkewP99Ns, w.SkewMaxNs, w.EpisodeRate} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("idle window holds non-finite value: %+v", w)
		}
	}
}

func TestStreamRingCapacity(t *testing.T) {
	f := newSynthFeed(t, 2, StreamOptions{Capacity: 4})
	for i := 0; i < 7; i++ {
		f.window(winSpec{rounds: 10, waitNs: 1000})
	}
	series := f.st.Series()
	if len(series) != 4 {
		t.Fatalf("ring holds %d windows, want capacity 4", len(series))
	}
	for i, w := range series {
		if want := uint64(3 + i); w.Index != want {
			t.Errorf("series[%d].Index = %d, want %d", i, w.Index, want)
		}
	}
	if tl := f.st.Timeline(); tl.Rotations != 7 {
		t.Errorf("Rotations = %d, want 7 (indices survive ring trimming)", tl.Rotations)
	}
}

// TestStreamChangePointFiresOnce: a sustained level shift in p99 wait
// raises exactly one change-point alert — the detector re-baselines
// and the holddown holds, so the post-shift plateau never re-alarms —
// and OnAlert delivers it.
func TestStreamChangePointFiresOnce(t *testing.T) {
	var delivered []Alert
	var f *synthFeed
	f = newSynthFeed(t, 4, StreamOptions{OnAlert: func(a Alert) {
		// Handlers may call accessors freely (dispatch runs outside the
		// stream lock); deadlock here would hang the test.
		_ = f.st.Series()
		delivered = append(delivered, a)
	}})
	for i := 0; i < 8; i++ {
		f.window(winSpec{rounds: 200, waitNs: 5000})
	}
	// The shift: p99 wait jumps ~200x and stays there.
	for i := 0; i < 20; i++ {
		f.window(winSpec{rounds: 200, waitNs: 1 << 20})
	}

	var changes []Alert
	for _, a := range f.st.Alerts() {
		if a.Kind == AlertChangePoint {
			changes = append(changes, a)
		}
	}
	if len(changes) != 1 {
		t.Fatalf("got %d change-point alerts, want exactly 1: %v", len(changes), changes)
	}
	a := changes[0]
	if a.Metric != "wait_p99_ns" {
		t.Errorf("alert metric = %q, want wait_p99_ns", a.Metric)
	}
	if a.Window < 8 || a.Window > 10 {
		t.Errorf("alert fired at window %d, want within a couple windows of the shift at 8", a.Window)
	}
	if a.Value < float64(1<<20) {
		t.Errorf("alert value = %g, want the post-shift level (>= %d)", a.Value, 1<<20)
	}
	if len(delivered) != 1 || delivered[0].Kind != AlertChangePoint || delivered[0].Barrier != "synth" {
		t.Errorf("OnAlert delivered %v, want the one change-point alert on barrier synth", delivered)
	}
}

// TestStreamStragglerPersistence drives the K-consecutive-window
// straggler detector with synthetic offsets: participant 2 is named
// after K slow windows, and cleared on recovery.
func TestStreamStragglerPersistence(t *testing.T) {
	f := newSynthFeed(t, 4, StreamOptions{})
	slow := []int64{1000, 1000, 200_000, 1000}

	for i := 0; i < 2; i++ {
		f.window(winSpec{rounds: 100, waitNs: 2000, offs: slow})
		if _, active := f.st.Straggler(); active {
			t.Fatalf("straggler alert active after %d slow windows, want K=3 persistence", i+1)
		}
	}
	fired := f.window(winSpec{rounds: 100, waitNs: 2000, offs: slow})
	if len(fired) != 1 || fired[0].Kind != AlertStraggler || fired[0].Participant != 2 {
		t.Fatalf("third slow window fired %v, want one AlertStraggler naming participant 2", fired)
	}
	if id, active := f.st.Straggler(); !active || id != 2 {
		t.Fatalf("Straggler() = (%d, %v), want (2, true)", id, active)
	}
	if w, _ := f.st.Last(); w.Straggler != 2 || w.StragglerSkewNs != 200_000 {
		t.Errorf("window blames %d at %g ns, want 2 at 200000", w.Straggler, w.StragglerSkewNs)
	}

	// Recovery: offsets level out, the alert clears on the first
	// healthy window. (The 200x skew drop may also raise a legitimate
	// change-point alert; only the straggler kinds matter here.)
	fired = f.window(winSpec{rounds: 100, waitNs: 2000, offs: []int64{1000, 1000, 1000, 1000}})
	var cleared []Alert
	for _, a := range fired {
		if a.Kind == AlertStraggler || a.Kind == AlertStragglerCleared {
			cleared = append(cleared, a)
		}
	}
	if len(cleared) != 1 || cleared[0].Kind != AlertStragglerCleared || cleared[0].Participant != 2 {
		t.Fatalf("recovery window fired %v, want one AlertStragglerCleared for participant 2", fired)
	}
	if _, active := f.st.Straggler(); active {
		t.Error("straggler alert still active after recovery")
	}
}

func TestStreamWatchdogStallAlertHolddown(t *testing.T) {
	f := newSynthFeed(t, 2, StreamOptions{})
	fired := f.window(winSpec{rounds: 10, waitNs: 1000, stalls: 2})
	if len(fired) != 1 || fired[0].Kind != AlertWatchdogStall || fired[0].Value != 2 {
		t.Fatalf("stall window fired %v, want one AlertWatchdogStall with value 2", fired)
	}
	// More stalls inside the holddown: counted, not re-alerted.
	fired = f.window(winSpec{rounds: 10, waitNs: 1000, stalls: 3})
	if len(fired) != 0 {
		t.Fatalf("stall inside holddown fired %v, want none", fired)
	}
	w, _ := f.st.Last()
	if w.WatchdogStalls != 1 {
		t.Errorf("second window stalls = %d, want 1 (cumulative 3 - 2)", w.WatchdogStalls)
	}
	if tl := f.st.Timeline(); tl.WatchdogStalls != 3 {
		t.Errorf("total stalls = %d, want 3", tl.WatchdogStalls)
	}
}

func TestStreamRecordTimeoutPanic(t *testing.T) {
	f := newSynthFeed(t, 2, StreamOptions{})
	f.st.RecordTimeout()
	f.st.RecordTimeout()
	f.st.RecordPanic()
	f.window(winSpec{rounds: 10, waitNs: 1000})
	w, _ := f.st.Last()
	if w.Timeouts != 2 || w.Panics != 1 {
		t.Fatalf("window = %d timeouts %d panics, want 2/1", w.Timeouts, w.Panics)
	}
	f.window(winSpec{rounds: 10, waitNs: 1000})
	if w, _ = f.st.Last(); w.Timeouts != 0 || w.Panics != 0 {
		t.Fatalf("drained counters leaked into next window: %d/%d", w.Timeouts, w.Panics)
	}
	if tl := f.st.Timeline(); tl.Timeouts != 2 || tl.Panics != 1 {
		t.Errorf("totals = %d/%d, want 2/1", tl.Timeouts, tl.Panics)
	}
}

// TestStreamStartStop runs the real background rotator over a real
// barrier: the windowed rounds must account for every completed round,
// including the partial window Stop flushes, and no rotator goroutine
// may outlive Stop, even after a double Start.
func TestStreamStartStop(t *testing.T) {
	const p, rounds = 2, 400
	base := runtime.NumGoroutine()
	in := Instrument(barrier.New(p), Options{Name: "lifecycle", SampleEvery: 1})
	st := NewStream(in, StreamOptions{Window: 5 * time.Millisecond})
	st.Start()
	st.Start() // idempotent
	barrier.Run(in, func(id int) {
		for r := 0; r < rounds; r++ {
			in.Wait(id)
		}
	})
	st.Stop()

	series := st.Series()
	if len(series) == 0 {
		t.Fatal("no windows after Start/Stop around a real run")
	}
	var total uint64
	for _, w := range series {
		total += w.Rounds
	}
	if total != rounds {
		t.Fatalf("windows account for %d rounds, want %d", total, rounds)
	}

	// Restart works.
	st.Start()
	st.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Stop, baseline %d:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimelineHandlerServesSeries is the third acceptance criterion:
// /debug/timeline serves exactly the series barrierbench -stream
// prints — the handler's JSON document round-trips to the same windows
// and alerts as Timeline(), whose RenderTimeline is what -stream
// writes to the terminal.
func TestTimelineHandlerServesSeries(t *testing.T) {
	const p, rounds = 2, 60
	in := Instrument(barrier.New(p), Options{Name: "timeline", SampleEvery: 1})
	st := NewStream(in, StreamOptions{})
	barrier.Run(in, func(id int) {
		for r := 0; r < rounds; r++ {
			in.Wait(id)
		}
	})
	st.Rotate()
	barrier.Run(in, func(id int) {
		for r := 0; r < rounds; r++ {
			in.Wait(id)
		}
	})
	st.Rotate()

	h := st.TimelineHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	var got StreamSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding /debug/timeline: %v", err)
	}

	want := st.Timeline()
	if !reflect.DeepEqual(got.Windows, want.Windows) {
		t.Errorf("handler windows != Timeline windows:\n got %+v\nwant %+v", got.Windows, want.Windows)
	}
	if !reflect.DeepEqual(got.Alerts, want.Alerts) {
		t.Errorf("handler alerts != Timeline alerts: got %+v want %+v", got.Alerts, want.Alerts)
	}
	if got.Barrier != "timeline" || got.Rotations != 2 || len(got.Windows) != 2 {
		t.Errorf("snapshot = barrier %q rotations %d windows %d, want timeline/2/2",
			got.Barrier, got.Rotations, len(got.Windows))
	}
	if !reflect.DeepEqual(st.Series(), want.Windows) {
		t.Error("Series() disagrees with Timeline().Windows")
	}

	// ?format=text serves the same rendering -stream prints.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline?format=text", nil))
	if body := rec.Body.String(); body != RenderTimeline(want, 0) {
		t.Errorf("?format=text body differs from RenderTimeline:\n%s", body)
	}

	// ?format=prom serves the exposition.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline?format=prom", nil))
	if !strings.Contains(rec.Body.String(), "armbarrier_stream_rotations_total") {
		t.Error("prom exposition missing armbarrier_stream_rotations_total")
	}
}

// TestStreamPrometheusParses checks every exposition line parses, in
// both the pre-rotation state (all current-window gauges NaN) and
// after real windows.
func TestStreamPrometheusParses(t *testing.T) {
	in := Instrument(barrier.New(2), Options{Name: "prom", SampleEvery: 1})
	st := NewStream(in, StreamOptions{})

	check := func(label string, wantNaN bool) {
		t.Helper()
		var b strings.Builder
		if err := WriteStreamPrometheus(&b, st.Timeline()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sawNaN := false
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			if strings.HasPrefix(line, "#") || line == "" {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 2 {
				t.Fatalf("%s: malformed sample line %q", label, line)
			}
			v := fields[len(fields)-1]
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Errorf("%s: unparseable sample value %q in %q", label, v, line)
			}
			if v == "NaN" {
				sawNaN = true
			}
		}
		if sawNaN != wantNaN {
			t.Errorf("%s: sawNaN = %v, want %v", label, sawNaN, wantNaN)
		}
	}

	// Before the first rotation there is no window: gauges are NaN, and
	// every NaN renders with the exposition's exact spelling.
	check("pre-rotation", true)

	barrier.Run(in, func(id int) {
		for r := 0; r < 50; r++ {
			in.Wait(id)
		}
	})
	st.Rotate()
	check("post-rotation", false)
}

func TestRenderTimeline(t *testing.T) {
	f := newSynthFeed(t, 4, StreamOptions{})
	if out := RenderTimeline(f.st.Timeline(), 0); !strings.Contains(out, "no windows yet") {
		t.Errorf("empty timeline rendering = %q", out)
	}
	for i := 0; i < 10; i++ {
		wait := int64(2000)
		if i >= 5 {
			wait = 1 << 20
		}
		f.window(winSpec{rounds: 100, waitNs: wait})
	}
	out := RenderTimeline(f.st.Timeline(), 8)
	for _, want := range []string{"wait p99", "episodes/s", "last window #9"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline rendering missing %q:\n%s", want, out)
		}
	}
	// The wait-p99 sparkline must show the step: low ramp then high.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "wait p99") {
			if !strings.Contains(line, " ") || !strings.Contains(line, "@") {
				t.Errorf("wait p99 sparkline does not show the step: %q", line)
			}
		}
	}
}
