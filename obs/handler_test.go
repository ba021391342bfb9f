package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"armbarrier/barrier"
)

// TestHandlerFormats serves every (handler, format) pair once and
// checks the Content-Type, that the body is non-empty, and that JSON
// bodies decode. PhasesHandler's prom format must hold exactly the
// phase families, plus the drift families when it has a board.
func TestHandlerFormats(t *testing.T) {
	in := Instrument(barrier.New(4), Options{Name: "formats", SampleEvery: 1, Phases: true})
	st := NewStream(in, StreamOptions{})
	board, err := NewDriftBoard(in, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	drive(in, 100)
	st.Rotate()
	board.Observe()
	wd := barrier.NewWatchdog(barrier.NewCentral(2), barrier.WatchdogConfig{Deadline: time.Second})
	runWatchdogRounds(t, wd, 3)
	tr := capturedTracer(t)

	const js, text = "application/json", "text/plain; charset=utf-8"
	phaseOnly := []string{"armbarrier_phase_"}
	phaseDrift := []string{"armbarrier_phase_", "armbarrier_drift_"}
	cases := []struct {
		handler string
		h       http.Handler
		format  string // "" is the handler's default
		ct      string
		// families, when set, are the metric-name prefixes a prom body
		// must hold: every sample matches one, and each appears.
		families []string
	}{
		{"metrics", in.MetricsHandler(), "", promContentType, nil},
		{"metrics", in.MetricsHandler(), "json", js, nil},
		{"watchdog", WatchdogHandler(wd), "", promContentType, nil},
		{"watchdog", WatchdogHandler(wd), "json", js, nil},
		{"timeline", st.TimelineHandler(), "", js, nil},
		{"timeline", st.TimelineHandler(), "text", text, nil},
		{"timeline", st.TimelineHandler(), "prom", promContentType, nil},
		{"phases+board", PhasesHandler(in, board), "", js, nil},
		{"phases+board", PhasesHandler(in, board), "text", text, nil},
		{"phases+board", PhasesHandler(in, board), "prom", promContentType, phaseDrift},
		{"phases", PhasesHandler(in, nil), "", js, nil},
		{"phases", PhasesHandler(in, nil), "text", text, nil},
		{"phases", PhasesHandler(in, nil), "prom", promContentType, phaseOnly},
		{"episodes", tr.EpisodesHandler(), "", js, nil},
		{"episodes", tr.EpisodesHandler(), "gantt", text, nil},
		{"episodes", tr.EpisodesHandler(), "chrome", js, nil},
	}
	for _, c := range cases {
		url := "/debug"
		if c.format != "" {
			url += "?format=" + c.format
		}
		rr := httptest.NewRecorder()
		c.h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		name := c.handler + " " + url
		if ct := rr.Header().Get("Content-Type"); ct != c.ct {
			t.Errorf("%s: Content-Type %q, want %q", name, ct, c.ct)
		}
		body := rr.Body.String()
		if body == "" {
			t.Errorf("%s: empty body", name)
			continue
		}
		if c.ct == js {
			var v any
			if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
				t.Errorf("%s: JSON body does not decode: %v", name, err)
			}
		}
		if c.families == nil {
			continue
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			matched := false
			for _, f := range c.families {
				if strings.HasPrefix(line, f) {
					seen[f], matched = true, true
				}
			}
			if !matched {
				t.Errorf("%s: sample outside %v: %s", name, c.families, line)
			}
		}
		for _, f := range c.families {
			if !seen[f] {
				t.Errorf("%s: no %s* family", name, f)
			}
		}
	}
}
