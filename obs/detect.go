package obs

import (
	"fmt"
	"math"

	"armbarrier/internal/stats"
)

// Online detectors for the streaming telemetry layer: each rotation
// hands the fresh WindowStats to detectors.observe, which watches p99
// wait and mean skew for change points, scores cross-window straggler
// persistence, and raises the corresponding alerts (alert.go). All
// state is owned by the stream's rotation lock; nothing here runs on
// the Wait hot path.

// DetectorOptions tunes the online detectors. Zero fields take the
// documented defaults, so StreamOptions{} gets a sensible production
// configuration.
type DetectorOptions struct {
	// ChangeDelta and ChangeLambda tune the Page-Hinkley change-point
	// detectors watching log10(p99 wait) and log10(mean skew): drifts
	// below Delta decades are tolerated, an accumulated drift of
	// Lambda decades alarms. Defaults 0.05 and 0.6 — sustained shifts
	// of roughly 1.5x and up alarm within a few windows, stationary
	// noise of ±12% never does.
	ChangeDelta  float64
	ChangeLambda float64
	// ChangeMinSamples windows must pass before a change-point may
	// alarm (baseline warm-up). Default 3.
	ChangeMinSamples int
	// HolddownWindows suppresses repeat alerts of the same kind (and
	// metric) for this many windows after one fires. Default 5.
	HolddownWindows int

	// StragglerFactor: a participant is slow in a window when its mean
	// arrival offset exceeds this factor times the other participants'
	// median offset. Default 4.
	StragglerFactor float64
	// StragglerMinNs floors the offset for slowness, so microsecond
	// jitter around an idle barrier never names a culprit. Default
	// 10000 (10us).
	StragglerMinNs float64
	// StragglerWindows is the persistence requirement K: the same
	// participant must be slow in K consecutive windows before
	// AlertStraggler names it. Default 3.
	StragglerWindows int
}

// withDefaults fills zero fields.
func (o DetectorOptions) withDefaults() DetectorOptions {
	if o.ChangeDelta <= 0 {
		o.ChangeDelta = 0.05
	}
	if o.ChangeLambda <= 0 {
		o.ChangeLambda = 0.6
	}
	if o.ChangeMinSamples <= 0 {
		o.ChangeMinSamples = 3
	}
	if o.HolddownWindows <= 0 {
		o.HolddownWindows = 5
	}
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 4
	}
	if o.StragglerMinNs <= 0 {
		o.StragglerMinNs = 10_000
	}
	if o.StragglerWindows <= 0 {
		o.StragglerWindows = 3
	}
	return o
}

// detectors is the per-stream detector state.
type detectors struct {
	opts DetectorOptions

	// Change-point detectors on log10 of the metric; holdX is the
	// window index before which re-alerts are suppressed.
	p99      stats.PageHinkley
	skew     stats.PageHinkley
	holdP99  uint64
	holdSkew uint64
	// p99Smooth is an EWMA of the p99 wait, exported for dashboards
	// that want the smoothed trend next to the raw window series.
	p99Smooth *stats.EWMA

	// Straggler persistence: straggler is the current run's culprit,
	// run its consecutive-window count, stragglerActive whether an
	// alert is standing.
	straggler       int
	run             int
	stragglerActive bool

	holdStall uint64
}

// newDetectors builds the detector state.
func newDetectors(opts DetectorOptions) detectors {
	o := opts.withDefaults()
	return detectors{
		opts:      o,
		p99:       stats.PageHinkley{Delta: o.ChangeDelta, Lambda: o.ChangeLambda, MinSamples: o.ChangeMinSamples},
		skew:      stats.PageHinkley{Delta: o.ChangeDelta, Lambda: o.ChangeLambda, MinSamples: o.ChangeMinSamples},
		p99Smooth: stats.NewEWMA(0.3),
		straggler: -1,
	}
}

// observe folds one freshly rolled window into every detector. It
// fills w.Straggler/w.StragglerSkewNs and returns the alerts
// the window raised. offsets is each participant's mean arrival offset
// this window (valid when w.SkewRounds > 0).
func (d *detectors) observe(w *WindowStats, participants int, offsets []float64) []Alert {
	var fired []Alert

	// 1. Change points on log10(p99 wait) and log10(mean skew). The
	// detector resets after every alarm so the post-change level
	// becomes the new baseline; the holddown suppresses alert storms
	// while the series settles.
	if w.WaitSamples > 0 {
		d.p99Smooth.Update(w.WaitP99Ns)
		if a, ok := d.changePoint(&d.p99, &d.holdP99, w, "wait_p99_ns", w.WaitP99Ns); ok {
			fired = append(fired, a)
		}
	}
	if w.SkewRounds > 0 {
		if a, ok := d.changePoint(&d.skew, &d.holdSkew, w, "skew_mean_ns", w.SkewMeanNs); ok {
			fired = append(fired, a)
		}
	}

	// 2. Cross-window straggler persistence.
	fired = append(fired, d.stragglerScore(w, participants, offsets)...)

	// 3. Watchdog stalls surface as alerts too, with the same holddown.
	if w.WatchdogStalls > 0 && w.Index >= d.holdStall {
		d.holdStall = w.Index + uint64(d.opts.HolddownWindows)
		fired = append(fired, Alert{
			Kind:        AlertWatchdogStall,
			Window:      w.Index,
			AtNs:        w.EndNs,
			Participant: -1,
			Metric:      "watchdog_stalls",
			Value:       float64(w.WatchdogStalls),
			Message:     fmt.Sprintf("%d watchdog stall(s) this window", w.WatchdogStalls),
		})
	}
	return fired
}

// changePoint feeds one value into a Page-Hinkley detector and builds
// the alert when it alarms outside its holddown.
func (d *detectors) changePoint(ph *stats.PageHinkley, hold *uint64, w *WindowStats, metric string, value float64) (Alert, bool) {
	x := math.Log10(math.Max(value, 1))
	if !ph.Update(x) {
		return Alert{}, false
	}
	ph.Reset() // re-baseline on the new level
	if w.Index < *hold {
		return Alert{}, false
	}
	*hold = w.Index + uint64(d.opts.HolddownWindows)
	return Alert{
		Kind:        AlertChangePoint,
		Window:      w.Index,
		AtNs:        w.EndNs,
		Participant: -1,
		Metric:      metric,
		Value:       value,
		Message:     fmt.Sprintf("change point on %s: level now %.0f ns", metric, value),
	}, true
}

// stragglerScore updates the straggler persistence run from this
// window's per-participant arrival offsets: the same participant slow
// (offset > factor x the others' median, above the floor) in K
// consecutive windows raises AlertStraggler naming it; the first
// healthy window afterwards raises AlertStragglerCleared.
func (d *detectors) stragglerScore(w *WindowStats, participants int, offsets []float64) []Alert {
	culprit, offset := -1, 0.0
	if w.SkewRounds > 0 && participants > 1 && len(offsets) == participants {
		worst := 0
		for i, off := range offsets {
			if off > offsets[worst] {
				worst = i
			}
		}
		others := make([]float64, 0, participants-1)
		for i, off := range offsets {
			if i != worst {
				others = append(others, off)
			}
		}
		med := stats.Median(others)
		if off := offsets[worst]; off >= d.opts.StragglerMinNs && off >= d.opts.StragglerFactor*math.Max(med, 1) {
			culprit, offset = worst, off
		}
	}
	w.Straggler, w.StragglerSkewNs = culprit, offset

	var fired []Alert
	switch {
	case culprit < 0 || (d.straggler >= 0 && culprit != d.straggler):
		// Healthy window, or the blame moved: the old run is over.
		if d.stragglerActive {
			fired = append(fired, Alert{
				Kind:        AlertStragglerCleared,
				Window:      w.Index,
				AtNs:        w.EndNs,
				Metric:      "straggler",
				Participant: d.straggler,
				Message:     fmt.Sprintf("participant %d no longer persistently slow", d.straggler),
			})
			d.stragglerActive = false
		}
		d.straggler, d.run = culprit, 0
		if culprit >= 0 {
			d.run = 1
		}
	default:
		d.straggler = culprit
		d.run++
		if d.run >= d.opts.StragglerWindows && !d.stragglerActive {
			d.stragglerActive = true
			fired = append(fired, Alert{
				Kind:        AlertStraggler,
				Window:      w.Index,
				AtNs:        w.EndNs,
				Metric:      "straggler",
				Participant: culprit,
				Value:       offset,
				Message: fmt.Sprintf("participant %d slow in %d consecutive windows (mean arrival offset %.0f ns)",
					culprit, d.run, offset),
			})
		}
	}
	return fired
}
