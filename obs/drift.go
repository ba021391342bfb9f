// Model-vs-measured drift scoreboard. The paper's cost model prices
// each phase of a barrier episode analytically — arrival level r costs
// (f_r + α)·L (the per-level term of Eq. 1), the wake-up costs Eq. 3
// (global) or Eq. 4 (tree) — and the phase recorder (phase.go) measures
// the same quantities at runtime. A DriftBoard joins the two: per
// observation window it compares the measured per-(phase, level)
// means against the model's per-level predictions, fits the RFO
// weight α back out of the measured arrival ladder, EWMA-smooths the
// per-phase log2 measured/predicted ratio, and raises a single-fire
// AlertModelDrift when a watched phase's smoothed ratio crosses the
// threshold. The scoreboard answers "is the deployed machine still the
// machine the model was calibrated for" — contention, oversubscription
// and topology misconfiguration all show up as a phase drifting from
// its prediction before they show up as missed deadlines.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"

	"armbarrier/barrier"
	"armbarrier/internal/stats"
	"armbarrier/model"
	"armbarrier/topology"
)

// Drift defaults. The threshold is a multiplicative ratio: 4 means the
// alert fires when a phase is running 4x slower (or faster) than the
// model predicts, sustained through the EWMA — generous enough that an
// honest calibration never trips it, tight enough that a delayed
// participant or an oversubscribed host does.
const (
	DefaultDriftThreshold  = 4.0
	DefaultDriftEwmaAlpha  = 0.5
	DefaultDriftMinSamples = 4
)

// DriftConfig configures NewDriftBoard. The zero value works: machine
// defaults to the paper's Kunpeng 920, the fan-in schedule is read off
// the barrier when it exposes one (FWay does) or derived from the
// level count otherwise, and both phases are watched.
type DriftConfig struct {
	// Machine supplies L, α and c for the predictions (default
	// topology.Kunpeng920, the paper's primary ARMv8 machine).
	Machine *topology.Machine
	// Schedule overrides the per-level arrival fan-ins f_r. When nil
	// the board asks the barrier (any PhaseProber with a
	// Schedule() []int method) and otherwise derives the uniform
	// fan-in consistent with the barrier's arrival level count.
	Schedule []int
	// Threshold is the measured/predicted ratio that counts as
	// divergence (default DefaultDriftThreshold). The comparison is
	// two-sided: a phase running Threshold-times faster than predicted
	// also diverges (the model is wrong either way).
	Threshold float64
	// EwmaAlpha smooths the per-phase log2 ratio across observation
	// windows (default DefaultDriftEwmaAlpha); higher reacts faster.
	EwmaAlpha float64
	// MinSamples is how many probe marks a (phase, level) cell needs
	// in a window before it participates in ratios and the α fit
	// (default DefaultDriftMinSamples).
	MinSamples uint64
	// Phases restricts which phases are judged for divergence alerts
	// (nil watches both). The scoreboard still reports all levels.
	Phases []barrier.Phase
}

// DriftLevel is one (phase, level) row of the scoreboard.
type DriftLevel struct {
	Phase string `json:"phase"`
	Level int    `json:"level"`
	// FanIn is f_r for arrival rows, 0 for wake-up rows.
	FanIn int `json:"fan_in,omitempty"`
	// Samples counts the window's probe marks in this cell.
	Samples uint64 `json:"samples"`
	// MeasuredNs is the window's mean step cost (NaN when the cell has
	// fewer than MinSamples this window). The mean, not the median, on
	// purpose: the model prices expected cost, and a median would
	// average away a single delayed participant — the precise signal a
	// drift scoreboard exists to surface.
	MeasuredNs float64 `json:"measured_ns"`
	// PredictedNs is the model's per-level price.
	PredictedNs float64 `json:"predicted_ns"`
	// Ratio is MeasuredNs / PredictedNs (NaN when sampleless).
	Ratio float64 `json:"ratio"`
}

// DriftPhase is one phase's aggregate verdict.
type DriftPhase struct {
	Phase string `json:"phase"`
	// Watched reports whether this phase can raise alerts.
	Watched bool `json:"watched"`
	// MeasuredNs / PredictedNs sum the per-level means and
	// predictions over the window's sampled levels only, so the ratio
	// compares like with like. NaN when no level had samples.
	MeasuredNs  float64 `json:"measured_ns"`
	PredictedNs float64 `json:"predicted_ns"`
	Ratio       float64 `json:"ratio"`
	// EwmaLog2 is the smoothed log2(ratio); 2 means "sustained 4x off
	// the model". NaN before the first sampled window.
	EwmaLog2 float64 `json:"ewma_log2"`
	// Diverged reports whether the phase is currently over threshold.
	Diverged bool `json:"diverged"`
}

// DriftSnapshot is the scoreboard after the latest Observe.
type DriftSnapshot struct {
	Barrier string `json:"barrier"`
	Machine string `json:"machine"`
	// Windows counts Observe calls so far.
	Windows uint64       `json:"windows"`
	Levels  []DriftLevel `json:"levels"`
	Phases  []DriftPhase `json:"phases"`
	// FittedAlpha is the RFO weight α fitted from the measured arrival
	// ladder (slope/intercept of mean cost on fan-in, Eq. 1 inverted);
	// NaN until enough sampled levels exist. FittedLNs is the latency
	// the same fit recovers. ModelAlpha is the machine's calibrated α.
	FittedAlpha float64 `json:"fitted_alpha"`
	FittedLNs   float64 `json:"fitted_l_ns"`
	ModelAlpha  float64 `json:"model_alpha"`
	// AlertsTotal counts divergence alerts raised over the board's
	// lifetime.
	AlertsTotal uint64 `json:"alerts_total"`
}

// The scoreboard's float fields hold NaN for "no data this window" —
// deliberately (§8's convention: no data and zero are different
// facts). encoding/json refuses NaN, so the drift types marshal NaN
// as null and read null back as NaN, keeping the JSON surfaces
// (-jsonout reports, /debug/phases) valid without flattening the
// distinction.

// nanNull marshals to null when NaN, to the plain number otherwise.
type nanNull float64

func (v nanNull) MarshalJSON() ([]byte, error) {
	if f := float64(v); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return json.Marshal(f)
	}
	return []byte("null"), nil
}

func (v *nanNull) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = nanNull(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(v))
}

// driftLevelJSON mirrors DriftLevel with NaN-safe floats.
type driftLevelJSON struct {
	Phase       string  `json:"phase"`
	Level       int     `json:"level"`
	FanIn       int     `json:"fan_in,omitempty"`
	Samples     uint64  `json:"samples"`
	MeasuredNs  nanNull `json:"measured_ns"`
	PredictedNs float64 `json:"predicted_ns"`
	Ratio       nanNull `json:"ratio"`
}

func (l DriftLevel) MarshalJSON() ([]byte, error) {
	return json.Marshal(driftLevelJSON{l.Phase, l.Level, l.FanIn, l.Samples,
		nanNull(l.MeasuredNs), l.PredictedNs, nanNull(l.Ratio)})
}

func (l *DriftLevel) UnmarshalJSON(b []byte) error {
	var j driftLevelJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*l = DriftLevel{j.Phase, j.Level, j.FanIn, j.Samples,
		float64(j.MeasuredNs), j.PredictedNs, float64(j.Ratio)}
	return nil
}

// driftPhaseJSON mirrors DriftPhase with NaN-safe floats.
type driftPhaseJSON struct {
	Phase       string  `json:"phase"`
	Watched     bool    `json:"watched"`
	MeasuredNs  nanNull `json:"measured_ns"`
	PredictedNs nanNull `json:"predicted_ns"`
	Ratio       nanNull `json:"ratio"`
	EwmaLog2    nanNull `json:"ewma_log2"`
	Diverged    bool    `json:"diverged"`
}

func (p DriftPhase) MarshalJSON() ([]byte, error) {
	return json.Marshal(driftPhaseJSON{p.Phase, p.Watched, nanNull(p.MeasuredNs),
		nanNull(p.PredictedNs), nanNull(p.Ratio), nanNull(p.EwmaLog2), p.Diverged})
}

func (p *DriftPhase) UnmarshalJSON(b []byte) error {
	var j driftPhaseJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*p = DriftPhase{j.Phase, j.Watched, float64(j.MeasuredNs),
		float64(j.PredictedNs), float64(j.Ratio), float64(j.EwmaLog2), j.Diverged}
	return nil
}

// driftSnapshotJSON mirrors DriftSnapshot with NaN-safe floats.
type driftSnapshotJSON struct {
	Barrier     string       `json:"barrier"`
	Machine     string       `json:"machine"`
	Windows     uint64       `json:"windows"`
	Levels      []DriftLevel `json:"levels"`
	Phases      []DriftPhase `json:"phases"`
	FittedAlpha nanNull      `json:"fitted_alpha"`
	FittedLNs   nanNull      `json:"fitted_l_ns"`
	ModelAlpha  float64      `json:"model_alpha"`
	AlertsTotal uint64       `json:"alerts_total"`
}

func (s DriftSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(driftSnapshotJSON{s.Barrier, s.Machine, s.Windows,
		s.Levels, s.Phases, nanNull(s.FittedAlpha), nanNull(s.FittedLNs),
		s.ModelAlpha, s.AlertsTotal})
}

func (s *DriftSnapshot) UnmarshalJSON(b []byte) error {
	var j driftSnapshotJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = DriftSnapshot{j.Barrier, j.Machine, j.Windows, j.Levels, j.Phases,
		float64(j.FittedAlpha), float64(j.FittedLNs), j.ModelAlpha, j.AlertsTotal}
	return nil
}

// DriftBoard compares an Instrumented barrier's phase telemetry
// against the analytical model. Drive it with Observe (directly, or
// via StreamOptions.Drift to ride the stream's rotation); read it with
// Scoreboard. Safe for concurrent use.
type DriftBoard struct {
	in         *Instrumented
	machine    *topology.Machine
	latencyNs  float64
	contention float64
	fanIn      []int     // per arrival level
	pred       []float64 // per cell, arrival levels then wake-up levels
	log2Thr    float64
	minSamples uint64
	watch      [barrier.NumPhases]bool

	mu     sync.Mutex
	prev   *PhaseSnapshot
	ewma   [barrier.NumPhases]*stats.EWMA
	over   [barrier.NumPhases]bool
	last   DriftSnapshot
	alerts []Alert
}

// NewDriftBoard builds a scoreboard over in, which must have been
// instrumented with Options.Phases over a barrier.PhaseProber.
func NewDriftBoard(in *Instrumented, cfg DriftConfig) (*DriftBoard, error) {
	if in.phases == nil {
		return nil, fmt.Errorf("obs: drift board needs Options.Phases on a barrier implementing barrier.PhaseProber")
	}
	if cfg.Machine == nil {
		cfg.Machine = topology.Kunpeng920()
	}
	if cfg.Threshold <= 1 {
		cfg.Threshold = DefaultDriftThreshold
	}
	if cfg.EwmaAlpha <= 0 || cfg.EwmaAlpha > 1 {
		cfg.EwmaAlpha = DefaultDriftEwmaAlpha
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = DefaultDriftMinSamples
	}
	arr, wake := in.phases.arrLevels, in.phases.wakeLevels
	d := &DriftBoard{
		in:         in,
		machine:    cfg.Machine,
		latencyNs:  cfg.Machine.MaxLatency(),
		contention: cfg.Machine.ReadContention,
		log2Thr:    math.Log2(cfg.Threshold),
		minSamples: cfg.MinSamples,
	}
	d.fanIn = driftFanIns(cfg.Schedule, in, arr)
	d.pred = d.predictions(arr, wake)
	if len(cfg.Phases) == 0 {
		for ph := range d.watch {
			d.watch[ph] = true
		}
	} else {
		for _, ph := range cfg.Phases {
			if int(ph) < len(d.watch) {
				d.watch[ph] = true
			}
		}
	}
	for ph := range d.ewma {
		d.ewma[ph] = stats.NewEWMA(cfg.EwmaAlpha)
	}
	d.last = DriftSnapshot{
		Barrier:     in.Name(),
		Machine:     cfg.Machine.Name,
		FittedAlpha: math.NaN(),
		FittedLNs:   math.NaN(),
		ModelAlpha:  cfg.Machine.Alpha,
	}
	return d, nil
}

// driftFanIns resolves the per-level arrival fan-ins: explicit config,
// then the barrier's own schedule, then the uniform fan-in whose tree
// depth matches the barrier's arrival level count.
func driftFanIns(sched []int, in *Instrumented, arrLevels int) []int {
	out := make([]int, arrLevels)
	if len(sched) == 0 {
		if pp, ok := barrier.Unwrap[barrier.PhaseProber](in.inner); ok {
			if fs, ok := pp.(interface{ Schedule() []int }); ok {
				sched = fs.Schedule()
			}
		}
	}
	if len(sched) == 0 && arrLevels > 0 {
		f := 2
		for ; f < in.p; f++ {
			if model.ArrivalLevels(in.p, f) <= arrLevels {
				break
			}
		}
		for i := range out {
			out[i] = f
		}
		return out
	}
	for i := range out {
		if i < len(sched) && sched[i] >= 2 {
			out[i] = sched[i]
		} else {
			out[i] = 2
		}
	}
	return out
}

// predictions prices each (phase, level) cell: arrival level r costs
// (f_r + α)·L (one W_R = (1+α)L by the last child plus f_r − 1 flag
// reads by the winner, the per-level term of Eq. 1); a single wake-up
// level is the global broadcast of Eq. 3; a multi-level wake-up tree
// pays (α+1)·L per edge, Eq. 4's per-level term.
func (d *DriftBoard) predictions(arrLevels, wakeLevels int) []float64 {
	L, alpha := d.latencyNs, d.machine.Alpha
	pred := make([]float64, arrLevels+wakeLevels)
	for r := 0; r < arrLevels; r++ {
		pred[r] = (float64(d.fanIn[r]) + alpha) * L
	}
	if wakeLevels == 1 {
		pred[arrLevels] = model.GlobalWakeupCost(d.in.p, L, alpha, d.contention)
	} else {
		for r := 0; r < wakeLevels; r++ {
			pred[arrLevels+r] = (alpha + 1) * L
		}
	}
	return pred
}

// Observe closes one observation window: it snapshots the barrier,
// diffs the phase telemetry against the previous Observe, refreshes
// the scoreboard and returns any divergence alerts raised (usually
// empty). Call it periodically, or let a Stream drive it.
func (d *DriftBoard) Observe() []Alert {
	snap := d.in.Snapshot()
	if snap.Phases == nil {
		return nil
	}
	nowNs := d.in.now()

	d.mu.Lock()
	defer d.mu.Unlock()

	delta := phaseWindowDelta(snap.Phases, d.prev)
	d.prev = snap.Phases
	d.last.Windows++

	// Per-level rows.
	rows := make([]DriftLevel, len(delta))
	for i, l := range delta {
		row := DriftLevel{
			Phase:       l.Phase,
			Level:       l.Level,
			Samples:     l.Samples,
			PredictedNs: d.pred[i],
			MeasuredNs:  math.NaN(),
			Ratio:       math.NaN(),
		}
		if l.Phase == barrier.PhaseArrival.String() {
			row.FanIn = d.fanIn[l.Level]
		}
		if l.Samples >= d.minSamples {
			row.MeasuredNs = float64(l.SumNs) / float64(l.Samples)
			if row.PredictedNs > 0 {
				row.Ratio = row.MeasuredNs / row.PredictedNs
			}
		}
		rows[i] = row
	}
	d.last.Levels = rows

	d.fitAlpha(rows)

	// Per-phase verdicts and the single-fire divergence latch.
	var fired []Alert
	phases := make([]DriftPhase, 0, barrier.NumPhases)
	for ph := barrier.Phase(0); int(ph) < barrier.NumPhases; ph++ {
		name := ph.String()
		dp := DriftPhase{
			Phase:       name,
			Watched:     d.watch[ph],
			MeasuredNs:  math.NaN(),
			PredictedNs: math.NaN(),
			Ratio:       math.NaN(),
			EwmaLog2:    math.NaN(),
		}
		var meas, pred float64
		seen := false
		for _, row := range rows {
			if row.Phase != name || math.IsNaN(row.MeasuredNs) || row.PredictedNs <= 0 {
				continue
			}
			meas += row.MeasuredNs
			pred += row.PredictedNs
			seen = true
		}
		if seen && meas > 0 {
			dp.MeasuredNs, dp.PredictedNs = meas, pred
			dp.Ratio = meas / pred
			d.ewma[ph].Update(math.Log2(dp.Ratio))
		}
		if d.ewma[ph].Count() > 0 {
			dp.EwmaLog2 = d.ewma[ph].Value()
			dp.Diverged = math.Abs(dp.EwmaLog2) >= d.log2Thr
		}
		if d.watch[ph] {
			switch {
			case dp.Diverged && !d.over[ph]:
				d.over[ph] = true
				d.last.AlertsTotal++
				a := Alert{
					Kind:        AlertModelDrift,
					Window:      d.last.Windows - 1,
					AtNs:        nowNs,
					Barrier:     snap.Barrier,
					Metric:      "phase_" + name + "_ratio",
					Participant: -1,
					Value:       math.Exp2(dp.EwmaLog2),
					Message: fmt.Sprintf(
						"%s phase diverges from model: measured %.0f ns vs predicted %.0f ns (x%.2f, ewma x%.2f over threshold x%.1f)",
						name, dp.MeasuredNs, dp.PredictedNs, dp.Ratio,
						math.Exp2(dp.EwmaLog2), math.Exp2(d.log2Thr)),
				}
				fired = append(fired, a)
				d.alerts = append(d.alerts, a)
				if over := len(d.alerts) - maxAlerts; over > 0 {
					d.alerts = append(d.alerts[:0], d.alerts[over:]...)
				}
			case !dp.Diverged:
				d.over[ph] = false
			}
		}
		phases = append(phases, dp)
	}
	d.last.Phases = phases
	return fired
}

// fitAlpha inverts Eq. 1 on the measured arrival ladder: the per-level
// mean m_r should be L·f_r + α·L, so regressing m_r on f_r recovers
// L as the slope and α as intercept/slope. With a uniform fan-in the
// regression is degenerate; then α falls back to mean(m_r/L − f_r)
// with the machine's own L. α is clamped to the model's [0, 1] domain.
func (d *DriftBoard) fitAlpha(rows []DriftLevel) {
	var xs, ys []float64
	for _, row := range rows {
		if row.FanIn < 2 || math.IsNaN(row.MeasuredNs) {
			continue
		}
		xs = append(xs, float64(row.FanIn))
		ys = append(ys, row.MeasuredNs)
	}
	d.last.FittedAlpha, d.last.FittedLNs = math.NaN(), math.NaN()
	if len(xs) == 0 {
		return
	}
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/float64(len(xs)), sumY/float64(len(ys))
	var varX, cov float64
	for i := range xs {
		varX += (xs[i] - meanX) * (xs[i] - meanX)
		cov += (xs[i] - meanX) * (ys[i] - meanY)
	}
	if varX > 0 {
		if slope := cov / varX; slope > 0 {
			d.last.FittedLNs = slope
			d.last.FittedAlpha = clamp01(meanY/slope - meanX)
			return
		}
	}
	// Uniform fan-ins (or a non-physical slope): assume the machine's
	// calibrated L and solve each level's α directly.
	var alphaSum float64
	for i := range xs {
		alphaSum += ys[i]/d.latencyNs - xs[i]
	}
	d.last.FittedLNs = d.latencyNs
	d.last.FittedAlpha = clamp01(alphaSum / float64(len(xs)))
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

// phaseWindowDelta diffs two cumulative phase snapshots into one
// window's worth of per-cell histograms. A nil prev (first window)
// passes the cumulative series through.
func phaseWindowDelta(cur, prev *PhaseSnapshot) []PhaseLevelSnapshot {
	out := make([]PhaseLevelSnapshot, len(cur.Levels))
	for i, c := range cur.Levels {
		l := PhaseLevelSnapshot{
			Phase: c.Phase, Level: c.Level,
			MaxNs: c.MaxNs, SkewNs: c.SkewNs,
			Hist: make([]uint64, len(c.Hist)),
		}
		var p PhaseLevelSnapshot
		if prev != nil && i < len(prev.Levels) {
			p = prev.Levels[i]
		}
		for b := range c.Hist {
			var pb uint64
			if b < len(p.Hist) {
				pb = p.Hist[b]
			}
			l.Hist[b] = safeSub(c.Hist[b], pb)
			l.Samples += l.Hist[b]
		}
		if c.SumNs > p.SumNs {
			l.SumNs = c.SumNs - p.SumNs
		}
		out[i] = l
	}
	return out
}

// Scoreboard returns the board's state after the latest Observe.
func (d *DriftBoard) Scoreboard() DriftSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.last
	out.Levels = append([]DriftLevel(nil), d.last.Levels...)
	out.Phases = append([]DriftPhase(nil), d.last.Phases...)
	return out
}

// Alerts returns a copy of the board's own alert history (alerts also
// flow into a driving Stream's history).
func (d *DriftBoard) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Alert(nil), d.alerts...)
}

// Format renders the scoreboard as an aligned text table.
func (s DriftSnapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "drift scoreboard: %s vs %s model (windows %d, alerts %d)\n",
		s.Barrier, s.Machine, s.Windows, s.AlertsTotal)
	fmt.Fprintf(&b, "  fitted alpha %.3f (L %.0f ns), model alpha %.3f\n",
		s.FittedAlpha, s.FittedLNs, s.ModelAlpha)
	fmt.Fprintf(&b, "  %-8s %5s %5s %8s %12s %12s %8s\n",
		"phase", "level", "fanin", "samples", "measured", "predicted", "ratio")
	for _, l := range s.Levels {
		fmt.Fprintf(&b, "  %-8s %5d %5d %8d %10.0fns %10.0fns %8.2f\n",
			l.Phase, l.Level, l.FanIn, l.Samples, l.MeasuredNs, l.PredictedNs, l.Ratio)
	}
	for _, p := range s.Phases {
		mark := " "
		if p.Diverged {
			mark = "!"
		}
		fmt.Fprintf(&b, "%s %-8s total: measured %.0f ns, predicted %.0f ns, ratio %.2f (ewma x%.2f)\n",
			mark, p.Phase, p.MeasuredNs, p.PredictedNs, p.Ratio, math.Exp2(p.EwmaLog2))
	}
	return b.String()
}

// WriteDriftPrometheus writes the scoreboard in Prometheus text
// exposition format. Sampleless ratios export as NaN, the same
// convention as the stream's quantile gauges. Metric families:
//
//	armbarrier_drift_level_measured_ns{phase,level}  gauge
//	armbarrier_drift_level_predicted_ns{phase,level} gauge
//	armbarrier_drift_level_ratio{phase,level}        gauge
//	armbarrier_drift_phase_ratio{phase}              gauge
//	armbarrier_drift_phase_ewma_log2{phase}          gauge
//	armbarrier_drift_diverged{phase}                 gauge (0/1)
//	armbarrier_drift_fitted_alpha                    gauge
//	armbarrier_drift_fitted_latency_ns               gauge
//	armbarrier_drift_model_alpha                     gauge
//	armbarrier_drift_windows_total                   counter
//	armbarrier_drift_alerts_total                    counter
func WriteDriftPrometheus(w io.Writer, s DriftSnapshot) error {
	p := newPromWriter()
	driftFamilies(p, s)
	return p.flush(w)
}

// driftFamilies writes the scoreboard's families (WriteDriftPrometheus
// lists them), each series labelled with the board's barrier and
// machine.
func driftFamilies(p promWriter, s DriftSnapshot) {
	p = p.with("barrier", s.Barrier, "machine", s.Machine)
	level := func(name, help string, val func(DriftLevel) float64) {
		p.family(name, "gauge", help)
		for _, l := range s.Levels {
			p.with("phase", l.Phase, "level", l.Level).sample(name, val(l))
		}
	}
	level("armbarrier_drift_level_measured_ns", "Measured mean step cost of the (phase, level) cell, last window.",
		func(l DriftLevel) float64 { return l.MeasuredNs })
	level("armbarrier_drift_level_predicted_ns", "Model-predicted step cost of the (phase, level) cell.",
		func(l DriftLevel) float64 { return l.PredictedNs })
	level("armbarrier_drift_level_ratio", "Measured over predicted step cost (NaN when sampleless).",
		func(l DriftLevel) float64 { return l.Ratio })
	phase := func(name, help string, val func(DriftPhase) any) {
		p.family(name, "gauge", help)
		for _, ph := range s.Phases {
			p.with("phase", ph.Phase).sample(name, val(ph))
		}
	}
	phase("armbarrier_drift_phase_ratio", "Measured over predicted per-phase cost, last window.",
		func(ph DriftPhase) any { return ph.Ratio })
	phase("armbarrier_drift_phase_ewma_log2", "EWMA-smoothed log2 of the per-phase ratio.",
		func(ph DriftPhase) any { return ph.EwmaLog2 })
	phase("armbarrier_drift_diverged", "1 while the phase's smoothed ratio is over the divergence threshold.",
		func(ph DriftPhase) any { return ph.Diverged })
	p.scalar("armbarrier_drift_fitted_alpha", "gauge", "RFO weight fitted from the measured arrival ladder.", s.FittedAlpha)
	p.scalar("armbarrier_drift_fitted_latency_ns", "gauge", "Latency recovered by the arrival-ladder fit.", s.FittedLNs)
	p.scalar("armbarrier_drift_model_alpha", "gauge", "The machine model's calibrated RFO weight.", s.ModelAlpha)
	p.scalar("armbarrier_drift_windows_total", "counter", "Drift observation windows closed.", s.Windows)
	p.scalar("armbarrier_drift_alerts_total", "counter", "Model-drift divergence alerts raised.", s.AlertsTotal)
}

// PhasesHandler serves the phase telemetry (and, when board is
// non-nil, the drift scoreboard) for a /debug/phases endpoint:
//
//	(default)      JSON: barrier, phase snapshot, drift scoreboard
//	?format=prom   Prometheus text: armbarrier_phase_* + armbarrier_drift_*
//	?format=text   the aligned drift table (or phase table without a board)
func PhasesHandler(in *Instrumented, board *DriftBoard) http.Handler {
	return serve("json", func() formats {
		snap := in.Snapshot()
		var drift *DriftSnapshot
		if board != nil {
			s := board.Scoreboard()
			drift = &s
		}
		return formats{
			"json": func(w io.Writer) error {
				return writeJSON(w, struct {
					Barrier string         `json:"barrier"`
					Phases  *PhaseSnapshot `json:"phases"`
					Drift   *DriftSnapshot `json:"drift,omitempty"`
				}{snap.Barrier, snap.Phases, drift})
			},
			"text": func(w io.Writer) error {
				text := FormatPhases(snap.Phases)
				if drift != nil {
					text = drift.Format()
				}
				_, err := io.WriteString(w, text)
				return err
			},
			"prom": func(w io.Writer) error {
				p := newPromWriter()
				phaseFamilies(p.with("barrier", snap.Barrier), snap.Phases)
				if drift != nil {
					driftFamilies(p, *drift)
				}
				return p.flush(w)
			},
		}
	})
}

// FormatPhases renders the per-(phase, level) series as a text table.
func FormatPhases(ps *PhaseSnapshot) string {
	if ps == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-8s %5s %8s %10s %10s %10s %10s\n",
		"phase", "level", "samples", "p50", "p99", "max", "skew")
	for _, l := range ps.Levels {
		fmt.Fprintf(&b, "  %-8s %5d %8d %8.0fns %8.0fns %8dns %8.0fns\n",
			l.Phase, l.Level, l.Samples,
			l.QuantileNs(0.5), l.QuantileNs(0.99), l.MaxNs, l.SkewNs)
	}
	return b.String()
}
