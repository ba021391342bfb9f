package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"armbarrier/internal/plot"
)

// Exporters for the streaming telemetry layer: a Prometheus exposition
// of the current window, a JSON timeline of the
// whole ring, and an ASCII-sparkline rendering for terminals — all
// three served by TimelineHandler, so /debug/timeline is the one URL a
// fleet needs.

// StreamSnapshot is a consistent copy of a stream's state: the kept
// windows (oldest first), the alert history, and the current detector
// conclusions.
type StreamSnapshot struct {
	Barrier      string `json:"barrier"`
	Participants int    `json:"participants"`
	WindowNs     int64  `json:"window_ns"`
	// Rotations counts every window ever rolled, including those that
	// have left the ring.
	Rotations uint64 `json:"rotations"`
	// Straggler is the participant under an active straggler alert
	// (-1 none).
	Straggler int `json:"straggler"`
	// Totals for the counter-style exports.
	Timeouts       uint64 `json:"timeouts_total"`
	Panics         uint64 `json:"panics_total"`
	WatchdogStalls uint64 `json:"watchdog_stalls_total"`

	Windows []WindowStats     `json:"windows"`
	Alerts  []Alert           `json:"alerts"`
	Counts  map[string]uint64 `json:"alert_counts"`
}

// Timeline captures the stream's current state. Safe to call at any
// time, including concurrently with rotations.
func (s *Stream) Timeline() StreamSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StreamSnapshot{
		Barrier:        s.in.Name(),
		Participants:   s.in.Participants(),
		WindowNs:       int64(s.window),
		Rotations:      s.rotations,
		Straggler:      -1,
		Timeouts:       s.totTimeouts,
		Panics:         s.totPanics,
		WatchdogStalls: s.totStalls,
		Windows:        make([]WindowStats, len(s.windows)),
		Alerts:         make([]Alert, len(s.alerts)),
		Counts:         make(map[string]uint64, len(s.alertCounts)),
	}
	if s.det.stragglerActive {
		out.Straggler = s.det.straggler
	}
	copy(out.Windows, s.windows)
	copy(out.Alerts, s.alerts)
	for k, c := range s.alertCounts {
		out.Counts[k.String()] = c
	}
	return out
}

// WriteStreamPrometheus writes the stream snapshot in Prometheus text
// exposition format. Metric families (every series carries
// barrier="<name>"):
//
//	armbarrier_stream_window_seconds             gauge
//	armbarrier_stream_rotations_total            counter
//	armbarrier_stream_episode_rate               gauge
//	armbarrier_stream_wait_p50_ns / _p99_ns / _max_ns  gauge (NaN when sampleless)
//	armbarrier_stream_skew_mean_ns / _p99_ns     gauge (NaN when sampleless)
//	armbarrier_stream_spin_rate / _yield_rate / _park_rate / _wake_rate  gauge
//	armbarrier_stream_straggler                  gauge (participant id, -1 none)
//	armbarrier_stream_timeouts_total / _panics_total / _watchdog_stalls_total  counter
//	armbarrier_stream_alerts_total{kind}         counter
func WriteStreamPrometheus(w io.Writer, s StreamSnapshot) error {
	p := newPromWriter().with("barrier", s.Barrier)
	p.scalar("armbarrier_stream_window_seconds", "gauge", "Configured rotation interval.", float64(s.WindowNs)/1e9)
	p.scalar("armbarrier_stream_rotations_total", "counter", "Windows rolled since the stream attached.", s.Rotations)

	// Current-window gauges. Before the first rotation every gauge is
	// NaN: there is no window to describe.
	var last WindowStats
	if len(s.Windows) > 0 {
		last = s.Windows[len(s.Windows)-1]
	}
	gauge := func(name, help string, v float64, sampled bool) {
		if len(s.Windows) == 0 || !sampled {
			v = math.NaN()
		}
		p.scalar(name, "gauge", help, v)
	}
	gauge("armbarrier_stream_episode_rate", "Completed episodes per second, current window.", last.EpisodeRate, true)
	gauge("armbarrier_stream_wait_p50_ns", "p50 wait latency, current window.", last.WaitP50Ns, last.WaitSamples > 0)
	gauge("armbarrier_stream_wait_p99_ns", "p99 wait latency, current window.", last.WaitP99Ns, last.WaitSamples > 0)
	gauge("armbarrier_stream_wait_max_ns", "Max wait latency, current window.", last.WaitMaxNs, last.WaitSamples > 0)
	gauge("armbarrier_stream_skew_mean_ns", "Mean arrival skew, current window.", last.SkewMeanNs, last.SkewRounds > 0)
	gauge("armbarrier_stream_skew_p99_ns", "p99 arrival skew, current window.", last.SkewP99Ns, last.SkewRounds > 0)
	gauge("armbarrier_stream_spin_rate", "Spin iterations per second, current window.", last.SpinRate, true)
	gauge("armbarrier_stream_yield_rate", "Scheduler yields per second, current window.", last.YieldRate, true)
	gauge("armbarrier_stream_park_rate", "Goroutine parks per second, current window.", last.ParkRate, true)
	gauge("armbarrier_stream_wake_rate", "Wake tokens per second, current window.", last.WakeRate, true)

	p.scalar("armbarrier_stream_straggler", "gauge", "Participant under an active straggler alert, -1 none.", s.Straggler)
	p.scalar("armbarrier_stream_timeouts_total", "counter", "Barrier wait timeouts reported to the stream.", s.Timeouts)
	p.scalar("armbarrier_stream_panics_total", "counter", "Participant panics reported to the stream.", s.Panics)
	p.scalar("armbarrier_stream_watchdog_stalls_total", "counter", "Watchdog stalls folded into windows.", s.WatchdogStalls)
	p.family("armbarrier_stream_alerts_total", "counter", "Alerts raised by the streaming detectors.")
	for _, kind := range []AlertKind{AlertChangePoint, AlertStraggler, AlertStragglerCleared, AlertWatchdogStall} {
		p.with("kind", kind).sample("armbarrier_stream_alerts_total", s.Counts[kind.String()])
	}
	return p.flush(w)
}

// timelineMetrics are the sparkline rows RenderTimeline draws, in
// order.
var timelineMetrics = []struct {
	name string
	unit string
	val  func(WindowStats) float64
}{
	{"episodes/s", "", func(w WindowStats) float64 { return w.EpisodeRate }},
	{"wait p50", "ns", func(w WindowStats) float64 { return w.WaitP50Ns }},
	{"wait p99", "ns", func(w WindowStats) float64 { return w.WaitP99Ns }},
	{"skew mean", "ns", func(w WindowStats) float64 { return w.SkewMeanNs }},
	{"yields/s", "", func(w WindowStats) float64 { return w.YieldRate }},
	{"parks/s", "", func(w WindowStats) float64 { return w.ParkRate }},
}

// RenderTimeline renders the window series as labelled ASCII
// sparklines plus the current detector conclusions and recent alerts —
// the terminal view of /debug/timeline, shared by the endpoint's
// ?format=text mode and barrierbench -stream. width bounds how many
// windows each sparkline shows (0 means 72).
func RenderTimeline(s StreamSnapshot, width int) string {
	if width <= 0 {
		width = 72
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %s: %d windows of %v\n",
		s.Barrier, len(s.Windows), time.Duration(s.WindowNs))
	wins := s.Windows
	if len(wins) > width {
		wins = wins[len(wins)-width:]
	}
	if len(wins) == 0 {
		b.WriteString("(no windows yet)\n")
		return b.String()
	}
	for _, m := range timelineMetrics {
		xs := make([]float64, len(wins))
		for i, w := range wins {
			xs[i] = m.val(w)
		}
		cur := xs[len(xs)-1]
		fmt.Fprintf(&b, "%12s |%s| now %.6g%s\n", m.name, plot.Sparkline(xs), cur, m.unit)
	}
	last := wins[len(wins)-1]
	fmt.Fprintf(&b, "last window #%d: %d rounds, straggler %s\n",
		last.Index, last.Rounds, stragglerLabel(last.Straggler))
	if n := len(s.Alerts); n > 0 {
		show := s.Alerts
		if len(show) > 8 {
			show = show[len(show)-8:]
		}
		fmt.Fprintf(&b, "alerts (%d total, last %d):\n", n, len(show))
		for _, a := range show {
			fmt.Fprintf(&b, "  [window %d] %s: %s\n", a.Window, a.Kind, a.Message)
		}
	} else {
		b.WriteString("alerts: none\n")
	}
	return b.String()
}

func stragglerLabel(id int) string {
	if id < 0 {
		return "none"
	}
	return fmt.Sprintf("p%d", id)
}

// TimelineHandler returns an http.Handler serving the live timeline:
// JSON by default (the StreamSnapshot document), labelled ASCII
// sparklines with ?format=text, Prometheus text exposition with
// ?format=prom — mount it at /debug/timeline next to /metrics and
// /debug/episodes.
func (s *Stream) TimelineHandler() http.Handler {
	return serve("json", func() formats {
		snap := s.Timeline()
		return formats{
			"json": func(w io.Writer) error { return writeJSON(w, snap) },
			"text": func(w io.Writer) error {
				_, err := io.WriteString(w, RenderTimeline(snap, 0))
				return err
			},
			"prom": func(w io.Writer) error { return WriteStreamPrometheus(w, snap) },
		}
	})
}
