package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"runtime/trace"
	"strings"
	"testing"
	"time"

	"armbarrier/barrier"
)

// spinFor busy-waits so injected imbalance shows up as arrival skew
// rather than scheduler wake-up latency.
func spinFor(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}

// runTraced drives a traced barrier through rounds, with participant
// straggler delayed by d on every round where lag(round) is true, and
// flushes pending evaluations afterwards.
func runTraced(t *Tracer, rounds, straggler int, d time.Duration, lag func(round int) bool) {
	barrier.Run(t, func(id int) {
		for r := 0; r < rounds; r++ {
			if id == straggler && lag(r) {
				spinFor(d)
			}
			t.Wait(id)
		}
	})
	t.Flush()
}

func TestTracerCapturesInjectedStraggler(t *testing.T) {
	const p, rounds, straggler = 4, 60, 3
	const delay = 200 * time.Microsecond
	tr := Trace(barrier.New(p), TraceOptions{
		Options:         Options{SampleEvery: 1},
		SkewThresholdNs: int64(delay) / 4,
	})
	runTraced(tr, rounds, straggler, delay, func(r int) bool { return r%10 == 5 })

	eps := tr.Episodes()
	if len(eps) == 0 {
		t.Fatalf("no episodes captured (triggered=%d)", tr.Triggered())
	}
	lastBy := map[int]int{}
	for _, ep := range eps {
		if len(ep.Parts) != p {
			t.Fatalf("episode has %d participants, want %d", len(ep.Parts), p)
		}
		if ep.SkewNs < int64(delay)/4 {
			t.Fatalf("captured episode below threshold: %+v", ep)
		}
		first, last := int64(math.MaxInt64), int64(math.MinInt64)
		for _, part := range ep.Parts {
			if part.ReleaseNs < part.ArriveNs {
				t.Fatalf("release before arrival: %+v", part)
			}
			first = min(first, part.ArriveNs)
			last = max(last, part.ArriveNs)
		}
		if got := last - first; got != ep.SkewNs {
			t.Fatalf("episode skew %d does not match stamps %d", ep.SkewNs, got)
		}
		if ep.StartNs != first {
			t.Fatalf("StartNs %d != first arrival %d", ep.StartNs, first)
		}
		if ep.MaxWaitNs < ep.SkewNs {
			// The first arriver waits at least the full skew.
			t.Fatalf("max wait %d below skew %d", ep.MaxWaitNs, ep.SkewNs)
		}
		lastBy[ep.LastArriver()]++
	}
	if lastBy[straggler] == 0 {
		t.Errorf("injected straggler %d never attributed: %v", straggler, lastBy)
	}
}

func TestTracerArmedButNotFiring(t *testing.T) {
	tr := Trace(barrier.New(2), TraceOptions{
		Options:         Options{SampleEvery: 1},
		SkewThresholdNs: math.MaxInt64,
	})
	runTraced(tr, 40, 0, 0, func(int) bool { return false })
	if n := tr.Triggered(); n != 0 {
		t.Fatalf("trigger fired %d times with an unreachable threshold", n)
	}
	if eps := tr.Episodes(); len(eps) != 0 {
		t.Fatalf("episodes captured without trigger: %d", len(eps))
	}
	// Instrumentation keeps working underneath.
	if got := tr.Snapshot().TotalRounds(); got != 40 {
		t.Fatalf("rounds = %d, want 40", got)
	}
}

func TestTracerMaxWaitTriggerAndEviction(t *testing.T) {
	const rounds, keep = 50, 4
	tr := Trace(barrier.New(2), TraceOptions{
		Options:            Options{SampleEvery: 1},
		MaxWaitThresholdNs: 1, // effectively every round
		MaxEpisodes:        keep,
	})
	runTraced(tr, rounds, 0, 0, func(int) bool { return false })
	if n := tr.Triggered(); n < rounds-1 {
		t.Fatalf("triggered %d, want >= %d", n, rounds-1)
	}
	eps := tr.Episodes()
	if len(eps) != keep {
		t.Fatalf("kept %d episodes, want %d", len(eps), keep)
	}
	for i := 1; i < len(eps); i++ {
		if eps[i-1].SeverityNs() < eps[i].SeverityNs() {
			t.Fatalf("episodes not worst-first at %d: %d < %d",
				i, eps[i-1].SeverityNs(), eps[i].SeverityNs())
		}
	}
}

func TestTracerQuantileTrigger(t *testing.T) {
	const p, rounds, straggler = 2, 200, 1
	tr := Trace(barrier.New(p), TraceOptions{
		Options:      Options{SampleEvery: 1},
		SkewQuantile: 0.5,
	})
	// 10% of rounds carry a delay three orders of magnitude above the
	// baseline skew; past the warm-up they must beat the median.
	runTraced(tr, rounds, straggler, 200*time.Microsecond,
		func(r int) bool { return r%10 == 5 && r > quantileMinRounds })
	if tr.Triggered() == 0 {
		t.Fatal("quantile trigger never fired on injected outliers")
	}
}

func TestTracerDefaultTriggerArmed(t *testing.T) {
	tr := Trace(barrier.New(2), TraceOptions{})
	if tr.quantile != DefaultSkewQuantile {
		t.Fatalf("default trigger quantile = %v", tr.quantile)
	}
	if tr.maxEpisodes != DefaultMaxEpisodes {
		t.Fatalf("default max episodes = %d", tr.maxEpisodes)
	}
}

func TestTracerSingleParticipant(t *testing.T) {
	tr := Trace(barrier.New(1), TraceOptions{
		Options:            Options{SampleEvery: 1},
		MaxWaitThresholdNs: 1,
	})
	for i := 0; i < 10; i++ {
		tr.Wait(0)
	}
	tr.Flush()
	if tr.Snapshot().TotalRounds() != 10 {
		t.Fatal("single-participant rounds lost")
	}
}

func TestTracerSamplingAlignsWithInstrument(t *testing.T) {
	// With the default sampling, ring stamps and histogram samples come
	// from the same rounds; episodes' Round fields must be multiples of
	// the sampling period.
	tr := Trace(barrier.New(2), TraceOptions{
		MaxWaitThresholdNs: 1,
	})
	runTraced(tr, 40, 0, 0, func(int) bool { return false })
	eps := tr.Episodes()
	if len(eps) == 0 {
		t.Fatal("no sampled episodes captured")
	}
	for _, ep := range eps {
		if ep.Round%DefaultSampleEvery != 0 {
			t.Fatalf("episode on unsampled round %d", ep.Round)
		}
	}
}

func TestEpisodeGantt(t *testing.T) {
	ep := Episode{
		Round: 7, StartNs: 1000, SkewNs: 500, MaxWaitNs: 700,
		Parts: []EpisodeParticipant{
			{ID: 0, ArriveNs: 1000, ReleaseNs: 1700},
			{ID: 1, ArriveNs: 1500, ReleaseNs: 1710},
		},
	}
	out := ep.Gantt(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "W = last arriver") {
		t.Fatalf("legend missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "p00 |") || !strings.HasPrefix(lines[2], "p01 |") {
		t.Fatalf("participant labels wrong:\n%s", out)
	}
	if !strings.Contains(lines[1], "w") {
		t.Fatalf("waiting glyph missing on p00: %q", lines[1])
	}
	if !strings.Contains(lines[2], "W") {
		t.Fatalf("last arriver not upper-cased on p01: %q", lines[2])
	}
	if ep.LastArriver() != 1 {
		t.Fatalf("LastArriver = %d", ep.LastArriver())
	}
}

// chromeDoc mirrors the trace-event JSON object format for validation.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func capturedTracer(t *testing.T) *Tracer {
	t.Helper()
	tr := Trace(barrier.New(3), TraceOptions{
		Options:         Options{Name: "cap", SampleEvery: 1},
		SkewThresholdNs: int64(50 * time.Microsecond),
	})
	runTraced(tr, 40, 2, 200*time.Microsecond, func(r int) bool { return r%8 == 3 })
	if len(tr.Episodes()) == 0 {
		t.Skip("host too noisy to capture a 200us injected straggler")
	}
	return tr
}

func TestChromeTraceExport(t *testing.T) {
	tr := capturedTracer(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawProcess, sawThread, sawWait, sawMarker bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "process_name" && e.Ph == "M":
			sawProcess = true
			if e.Args["name"] != "cap" {
				t.Fatalf("process_name args = %v", e.Args)
			}
		case e.Name == "thread_name" && e.Ph == "M":
			sawThread = true
		case e.Name == "wait" && e.Ph == "X":
			sawWait = true
			if e.Dur < 0 || e.Ts < 0 || e.Pid != 1 || e.Tid < 0 || e.Tid >= 3 {
				t.Fatalf("malformed wait slice: %+v", e)
			}
		case e.Ph == "i":
			sawMarker = true
			if _, ok := e.Args["skew_ns"]; !ok {
				t.Fatalf("episode marker missing skew: %+v", e)
			}
		}
	}
	if !sawProcess || !sawThread || !sawWait || !sawMarker {
		t.Fatalf("event kinds missing: process=%v thread=%v wait=%v marker=%v",
			sawProcess, sawThread, sawWait, sawMarker)
	}
}

func TestChromeTraceMultipleGroups(t *testing.T) {
	ep := Episode{Parts: []EpisodeParticipant{{ID: 0, ArriveNs: 10, ReleaseNs: 20}}}
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf,
		ChromeGroup{Name: "a", Episodes: []Episode{ep}},
		ChromeGroup{Name: "b", Episodes: []Episode{ep}})
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("groups not separated by pid: %v", pids)
	}
}

func TestEpisodesHandler(t *testing.T) {
	tr := capturedTracer(t)
	h := tr.EpisodesHandler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/episodes", nil))
	var body struct {
		Barrier   string    `json:"barrier"`
		Triggered uint64    `json:"triggered"`
		Episodes  []Episode `json:"episodes"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("JSON body: %v", err)
	}
	if body.Barrier != "cap" || body.Triggered == 0 || len(body.Episodes) == 0 {
		t.Fatalf("episode listing wrong: %+v", body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/episodes?format=gantt", nil))
	out := rr.Body.String()
	if !strings.Contains(out, "p00 |") || !strings.Contains(out, "straggler attribution") {
		t.Fatalf("gantt body missing lanes or attribution:\n%s", out)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/episodes?format=chrome", nil))
	var doc chromeDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("chrome body: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome body empty")
	}
}

func TestStragglersAttribution(t *testing.T) {
	mk := func(lastID int) Episode {
		parts := make([]EpisodeParticipant, 4)
		for i := range parts {
			parts[i] = EpisodeParticipant{ID: i, ArriveNs: int64(10 * i), ReleaseNs: 100}
		}
		parts[lastID].ArriveNs = 1000
		return Episode{Parts: parts}
	}
	eps := []Episode{mk(2), mk(2), mk(2), mk(1)}
	r := Stragglers(eps)
	if r.Episodes != 4 {
		t.Fatalf("episodes = %d", r.Episodes)
	}
	if r.Stats[2].LastCount != 3 || r.Stats[1].LastCount != 1 {
		t.Fatalf("last counts wrong: %+v", r.Stats)
	}
	if got := r.Persistent(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Persistent = %v", got)
	}
	if r.Stats[0].FirstCount != 4 {
		t.Fatalf("participant 0 should always be first: %+v", r.Stats[0])
	}
	if counts := r.GroupLastCounts(2); len(counts) != 2 || counts[0] != 1 || counts[1] != 3 {
		t.Fatalf("group counts = %v", counts)
	}
	out := r.Format(2)
	for _, want := range []string{"persistent straggler", "p02", "by group of 2", "g01"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if empty := Stragglers(nil); empty.Episodes != 0 || len(empty.Stats) != 0 {
		t.Fatalf("empty attribution = %+v", empty)
	}
}

func TestTracerDoAndRuntimeTrace(t *testing.T) {
	tr := Trace(barrier.New(2), TraceOptions{
		Options:      Options{SampleEvery: 1},
		RuntimeTrace: true,
	})
	defer tr.Close()
	if err := trace.Start(io.Discard); err == nil {
		defer trace.Stop()
	}
	ran := false
	tr.Do(0, func() { ran = true })
	if !ran {
		t.Fatal("Do did not run the body")
	}
	// Regions on sampled Waits must not disturb the barrier.
	barrier.Run(tr, func(id int) {
		for r := 0; r < 20; r++ {
			tr.Wait(id)
		}
	})
	if got := tr.Snapshot().TotalRounds(); got != 20 {
		t.Fatalf("rounds = %d", got)
	}
}

func TestTracerEpisodesWhileRunning(t *testing.T) {
	tr := Trace(barrier.New(2), TraceOptions{
		Options:            Options{SampleEvery: 1},
		MaxWaitThresholdNs: 1,
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		runUntilStopped(tr, stop)
	}()
	for i := 0; i < 200; i++ {
		for _, ep := range tr.Episodes() {
			if len(ep.Parts) != 2 {
				t.Errorf("torn episode: %+v", ep)
			}
		}
	}
	close(stop)
	<-done
}
