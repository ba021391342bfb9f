package obs

import (
	"io"
	"net/http"
	"slices"

	"armbarrier/barrier"
)

// Watchdog export: the stall-detection counters of barrier.Watchdog in
// the same Prometheus families / JSON shapes as the rest of the obs
// telemetry, so one scrape covers both performance and liveness.

// WriteWatchdogPrometheus writes a watchdog snapshot in Prometheus text
// exposition format. Metric families:
//
//	armbarrier_watchdog_deadline_ns              gauge
//	armbarrier_watchdog_stalls_total             counter
//	armbarrier_watchdog_stalled                  gauge (0/1)
//	armbarrier_watchdog_rounds_total{participant} counter
//	armbarrier_watchdog_wait_age_ns{participant} gauge (0 = not waiting)
//	armbarrier_watchdog_missing{participant}     gauge (1 = absent from the stalled episode)
//
// Every series carries a barrier="<name>" label, matching
// WritePrometheus.
func WriteWatchdogPrometheus(w io.Writer, s barrier.WatchdogSnapshot) error {
	p := newPromWriter().with("barrier", s.Barrier)
	p.scalar("armbarrier_watchdog_deadline_ns", "gauge", "Configured stall deadline.", s.DeadlineNs)
	p.scalar("armbarrier_watchdog_stalls_total", "counter", "Distinct stuck episodes detected.", s.Stalls)
	p.scalar("armbarrier_watchdog_stalled", "gauge", "Whether the last check saw a stuck episode.", s.Stalled)
	p.family("armbarrier_watchdog_rounds_total", "counter", "Episodes completed per participant, as counted by the watchdog.")
	for id, r := range s.Rounds {
		p.with("participant", id).sample("armbarrier_watchdog_rounds_total", r)
	}
	p.family("armbarrier_watchdog_wait_age_ns", "gauge", "Age of the participant's in-progress wait, 0 when not waiting.")
	for id, ns := range s.WaitingNs {
		p.with("participant", id).sample("armbarrier_watchdog_wait_age_ns", ns)
	}
	if s.LastStall != nil {
		p.family("armbarrier_watchdog_missing", "gauge", "Participants absent from the most recent stuck episode.")
		for id := 0; id < s.Participants; id++ {
			p.with("participant", id).sample("armbarrier_watchdog_missing", slices.Contains(s.LastStall.Missing, id))
		}
	}
	return p.flush(w)
}

// WatchdogHandler returns an http.Handler serving a live watchdog
// snapshot: Prometheus text exposition by default, JSON with
// ?format=json — the same contract as Instrumented.MetricsHandler.
func WatchdogHandler(d *barrier.Watchdog) http.Handler {
	return serve("prom", func() formats {
		snap := d.Snapshot()
		return formats{
			"prom": func(w io.Writer) error { return WriteWatchdogPrometheus(w, snap) },
			"json": func(w io.Writer) error { return writeJSON(w, snap) },
		}
	})
}
