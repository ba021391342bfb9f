package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"armbarrier/barrier"
	"armbarrier/internal/liveness"
	"armbarrier/tune"
)

// Stream is the always-on time-series layer over an Instrumented
// barrier: a fixed-interval rotator drains the cacheline-padded
// per-participant accumulators into a ring of per-window rollups
// (episode rate, wait quantiles, arrival skew, spin/yield/park/wake
// rates, timeout/panic/watchdog counts), and online detectors run per
// rotation — regime classification, Page-Hinkley change-point
// detection on p99 wait and skew, and cross-window straggler
// persistence scoring (see detect.go, alert.go).
//
// The point-in-time Snapshot and the triggered flight recorder answer
// "what does the barrier look like now" and "what did the worst round
// look like"; the Stream answers the question the paper's
// regime-dependent results make unavoidable: *when did the behaviour
// change*. Nothing is added to the Wait hot path — a rotation is one
// Snapshot (atomic loads of the shards participants already write)
// plus O(windows) bookkeeping, so the layer stays inside the <10%
// instrumentation budget at any realistic window (the overhead guard
// enforces it at 100ms).
//
//	ins := obs.Instrument(barrier.New(8), obs.Options{})
//	st := obs.NewStream(ins, obs.StreamOptions{Window: time.Second})
//	st.Start()
//	defer st.Stop()
//	http.Handle("/debug/timeline", st.TimelineHandler())
type Stream struct {
	in     *Instrumented
	opts   StreamOptions
	window time.Duration

	// timeouts/panics are external event feeds (RecordTimeout /
	// RecordPanic), drained into the current window at rotation.
	timeouts atomic.Uint64
	panics   atomic.Uint64

	mu          sync.Mutex
	prev        Snapshot
	prevNowNs   int64
	prevStalls  uint64
	windows     []WindowStats
	rotations   uint64
	det         detectors
	alerts      []Alert
	alertCounts map[AlertKind]uint64
	// cumulative totals for the counter-typed exports
	totTimeouts, totPanics, totStalls uint64

	rotator *liveness.Poller
}

// DefaultWindow is the default rotation interval. One second keeps the
// rollup cost negligible while still bounding how stale a regime
// classification can be; latency-sensitive services run 100ms windows
// and stay within the overhead budget.
const DefaultWindow = time.Second

// DefaultWindowCapacity is the default ring size: ten minutes of
// 1-second windows.
const DefaultWindowCapacity = 600

// maxAlerts bounds the kept alert history.
const maxAlerts = 128

// StreamOptions configures NewStream.
type StreamOptions struct {
	// Window is the rotation interval (default DefaultWindow).
	Window time.Duration
	// Capacity is how many windows the ring keeps (default
	// DefaultWindowCapacity).
	Capacity int
	// Watchdog, when non-nil, folds the stall detector's counters into
	// each window (WatchdogStalls) and raises AlertWatchdogStall.
	Watchdog *barrier.Watchdog
	// Drift, when non-nil, is observed once per rotation: the board
	// closes a drift window on the same cadence as the rollups, and
	// any AlertModelDrift it raises joins the stream's alert history
	// and OnAlert dispatch.
	Drift *DriftBoard
	// OnAlert, if non-nil, is called once per raised alert, after the
	// rotation that raised it completes (never under the stream's
	// lock, so handlers may call Timeline/Series/Alerts freely). The
	// same contract as barrier.WatchdogConfig.OnStall.
	OnAlert func(Alert)
	// Detect tunes the online detectors; zero fields take defaults.
	Detect DetectorOptions
}

// WindowStats is one window's rollup. Rate fields are per second of
// wall clock; quantiles come from the window's own histogram delta, so
// they describe only this window. A window with Rounds == 0 is idle;
// quantile fields are 0 then (WaitSamples / SkewRounds say whether the
// quantiles are backed by data — the Prometheus export turns
// sampleless quantiles into NaN).
type WindowStats struct {
	// Index is the rotation number, monotonically increasing even
	// after old windows leave the ring.
	Index uint64 `json:"index"`
	// StartNs/EndNs bound the window on the stream's monotonic clock
	// (the Instrumented base).
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`

	// Rounds is the number of fully completed episodes this window;
	// WaitSamples and SkewRounds count how many of them carried full
	// timing (one in Options.SampleEvery).
	Rounds      uint64 `json:"rounds"`
	WaitSamples uint64 `json:"wait_samples"`
	SkewRounds  uint64 `json:"skew_rounds"`

	EpisodeRate float64 `json:"episode_rate"`

	WaitP50Ns  float64 `json:"wait_p50_ns"`
	WaitP99Ns  float64 `json:"wait_p99_ns"`
	WaitMaxNs  float64 `json:"wait_max_ns"`
	WaitMeanNs float64 `json:"wait_mean_ns"`

	SkewMeanNs float64 `json:"skew_mean_ns"`
	SkewP99Ns  float64 `json:"skew_p99_ns"`
	SkewMaxNs  float64 `json:"skew_max_ns"`

	SpinRate  float64 `json:"spin_rate"`
	YieldRate float64 `json:"yield_rate"`
	ParkRate  float64 `json:"park_rate"`
	WakeRate  float64 `json:"wake_rate"`
	// ParksPerRound/YieldsPerRound are per participant-round averages,
	// the regime detector's inputs.
	ParksPerRound  float64 `json:"parks_per_round"`
	YieldsPerRound float64 `json:"yields_per_round"`

	Timeouts       uint64 `json:"timeouts"`
	Panics         uint64 `json:"panics"`
	WatchdogStalls uint64 `json:"watchdog_stalls"`

	// Regime is the stream's confirmed regime after this window's
	// classification was folded in (tune vocabulary).
	Regime tune.Regime `json:"regime"`
	// Straggler is the participant this window's skew named slow, -1
	// when none; StragglerSkewNs is its mean arrival offset. A single
	// slow window is not an alert — see DetectorOptions.StragglerWindows.
	Straggler       int     `json:"straggler"`
	StragglerSkewNs float64 `json:"straggler_skew_ns"`
}

// NewStream attaches a stream to in. The stream starts idle: call
// Start for background rotation, or Rotate to drive windows manually
// (tests, batch runs). The baseline is in's telemetry at NewStream
// time, so rollups never double-count history.
func NewStream(in *Instrumented, opts StreamOptions) *Stream {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultWindowCapacity
	}
	s := &Stream{
		in:          in,
		opts:        opts,
		window:      opts.Window,
		prev:        in.Snapshot(),
		prevNowNs:   in.now(),
		det:         newDetectors(opts.Detect),
		alertCounts: make(map[AlertKind]uint64),
	}
	s.prevStalls = s.prevStallCount()
	s.rotator = liveness.NewPoller(opts.Window, s.Rotate)
	return s
}

// Window returns the configured rotation interval.
func (s *Stream) Window() time.Duration { return s.window }

// RecordTimeout feeds one barrier.TimeoutError observation into the
// current window. The barrier cannot count these itself (the timeout
// unwinds through the caller), so whoever handles the error reports it.
func (s *Stream) RecordTimeout() { s.timeouts.Add(1) }

// RecordPanic feeds one *barrier.PanicError observation into the
// current window.
func (s *Stream) RecordPanic() { s.panics.Add(1) }

// Start launches the background rotator. Stop halts it; Start while
// it runs is a no-op, and Start after Stop restarts it.
func (s *Stream) Start() { s.rotator.Start() }

// Stop halts the background rotator and flushes the in-progress
// partial window so short runs still produce a series. Safe to call
// without Start (it just flushes).
func (s *Stream) Stop() {
	s.rotator.Stop()
	s.Rotate()
}

// Rotate closes the current window now: it snapshots the instrumented
// barrier, rolls the delta since the previous rotation into a
// WindowStats, runs the detectors, and fires any raised alerts. The
// background rotator calls this on every tick; tests and batch tools
// call it directly.
func (s *Stream) Rotate() {
	snap := s.in.Snapshot()
	stalls := s.prevStallCount()
	fired := s.ingest(snap, stalls, s.in.now())
	if s.opts.Drift != nil {
		if drifted := s.opts.Drift.Observe(); len(drifted) > 0 {
			s.mu.Lock()
			for _, a := range drifted {
				s.alerts = append(s.alerts, a)
				s.alertCounts[a.Kind]++
			}
			if over := len(s.alerts) - maxAlerts; over > 0 {
				s.alerts = append(s.alerts[:0], s.alerts[over:]...)
			}
			s.mu.Unlock()
			fired = append(fired, drifted...)
		}
	}
	s.dispatch(fired)
}

// prevStallCount reads the watchdog's cumulative stall counter (0
// without a watchdog).
func (s *Stream) prevStallCount() uint64 {
	if s.opts.Watchdog == nil {
		return 0
	}
	return s.opts.Watchdog.Snapshot().Stalls
}

// dispatch invokes OnAlert for each fired alert, outside the lock.
func (s *Stream) dispatch(fired []Alert) {
	if s.opts.OnAlert == nil {
		return
	}
	for _, a := range fired {
		s.opts.OnAlert(a)
	}
}

// safeSub is a - b for monotonic counters, clamped at 0 so a torn
// snapshot can never produce a huge wrap-around delta.
func safeSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// ingest is the rotation core, separated from Rotate so tests can
// drive deterministic synthetic snapshots through the full rollup +
// detector path. It returns the alerts this window raised.
func (s *Stream) ingest(cur Snapshot, stalls uint64, nowNs int64) []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()

	prev := s.prev
	w := WindowStats{
		Index:     s.rotations,
		StartNs:   s.prevNowNs,
		EndNs:     nowNs,
		Straggler: -1,
	}
	dtNs := nowNs - s.prevNowNs
	if dtNs < 1 {
		dtNs = 1
	}
	perSec := float64(time.Second) / float64(dtNs)

	w.Rounds = safeSub(cur.TotalRounds(), prev.TotalRounds())
	w.EpisodeRate = float64(w.Rounds) * perSec

	// Per-participant deltas: counters, the merged wait histogram, and
	// each participant's mean arrival offset this window (the straggler
	// detector's input).
	var spins, yields, parks, wakes uint64
	var waitSum int64
	waitHist := make([]uint64, NumBuckets)
	var prevWaitMax, curWaitMax int64
	offsets := make([]float64, len(cur.PerParti))
	skewRounds := safeSub(cur.Skew.Rounds, prev.Skew.Rounds)
	for i := range cur.PerParti {
		c := cur.PerParti[i]
		var p ParticipantSnapshot
		if i < len(prev.PerParti) {
			p = prev.PerParti[i]
		}
		spins += safeSub(c.Spins, p.Spins)
		yields += safeSub(c.Yields, p.Yields)
		parks += safeSub(c.Parks, p.Parks)
		wakes += safeSub(c.Wakes, p.Wakes)
		waitSum += c.WaitSumNs - p.WaitSumNs
		for b := range c.WaitHist {
			if b >= NumBuckets {
				break
			}
			var pb uint64
			if b < len(p.WaitHist) {
				pb = p.WaitHist[b]
			}
			waitHist[b] += safeSub(c.WaitHist[b], pb)
		}
		if c.WaitMaxNs > curWaitMax {
			curWaitMax = c.WaitMaxNs
		}
		if p.WaitMaxNs > prevWaitMax {
			prevWaitMax = p.WaitMaxNs
		}
		if skewRounds > 0 {
			offsets[i] = float64(c.SkewSumNs-p.SkewSumNs) / float64(skewRounds)
		}
	}
	for _, c := range waitHist {
		w.WaitSamples += c
	}
	w.SkewRounds = skewRounds
	w.SpinRate = float64(spins) * perSec
	w.YieldRate = float64(yields) * perSec
	w.ParkRate = float64(parks) * perSec
	w.WakeRate = float64(wakes) * perSec
	if pr := float64(w.Rounds) * float64(len(cur.PerParti)); pr > 0 {
		w.ParksPerRound = float64(parks) / pr
		w.YieldsPerRound = float64(yields) / pr
	}

	if w.WaitSamples > 0 {
		w.WaitP50Ns = HistQuantileNs(waitHist, 0.5)
		w.WaitP99Ns = HistQuantileNs(waitHist, 0.99)
		w.WaitMeanNs = float64(waitSum) / float64(w.WaitSamples)
		// The cumulative max only moves when a new extreme completes;
		// if it moved this window, that extreme *is* this window's max.
		// Otherwise estimate from the window's own histogram.
		if curWaitMax > prevWaitMax {
			w.WaitMaxNs = float64(curWaitMax)
		} else {
			w.WaitMaxNs = HistQuantileNs(waitHist, 1)
		}
	}

	if skewRounds > 0 {
		skewHist := make([]uint64, NumBuckets)
		for b := range cur.Skew.Hist {
			if b >= NumBuckets {
				break
			}
			var pb uint64
			if b < len(prev.Skew.Hist) {
				pb = prev.Skew.Hist[b]
			}
			skewHist[b] += safeSub(cur.Skew.Hist[b], pb)
		}
		w.SkewMeanNs = float64(cur.Skew.SumNs-prev.Skew.SumNs) / float64(skewRounds)
		w.SkewP99Ns = HistQuantileNs(skewHist, 0.99)
		if cur.Skew.MaxNs > prev.Skew.MaxNs {
			w.SkewMaxNs = float64(cur.Skew.MaxNs)
		} else {
			w.SkewMaxNs = HistQuantileNs(skewHist, 1)
		}
	}

	w.Timeouts = s.timeouts.Swap(0)
	w.Panics = s.panics.Swap(0)
	w.WatchdogStalls = safeSub(stalls, s.prevStalls)
	s.totTimeouts += w.Timeouts
	s.totPanics += w.Panics
	s.totStalls += w.WatchdogStalls

	// Online detectors: regime classification, change points,
	// straggler persistence. They fill w.Regime/w.Straggler and return
	// the alerts this window raised.
	fired := s.det.observe(&w, len(cur.PerParti), offsets)
	for i := range fired {
		fired[i].Barrier = cur.Barrier
		s.alerts = append(s.alerts, fired[i])
		s.alertCounts[fired[i].Kind]++
	}
	if over := len(s.alerts) - maxAlerts; over > 0 {
		s.alerts = append(s.alerts[:0], s.alerts[over:]...)
	}

	s.windows = append(s.windows, w)
	if over := len(s.windows) - s.opts.Capacity; over > 0 {
		s.windows = append(s.windows[:0], s.windows[over:]...)
	}
	s.rotations++
	s.prev = cur
	s.prevNowNs = nowNs
	s.prevStalls = stalls
	return fired
}

// Series returns a copy of the kept windows, oldest first.
func (s *Stream) Series() []WindowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WindowStats, len(s.windows))
	copy(out, s.windows)
	return out
}

// Last returns the most recent window (ok false before the first
// rotation).
func (s *Stream) Last() (WindowStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.windows) == 0 {
		return WindowStats{}, false
	}
	return s.windows[len(s.windows)-1], true
}

// Alerts returns a copy of the kept alert history, oldest first.
func (s *Stream) Alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// Regime returns the stream's current confirmed regime.
func (s *Stream) Regime() tune.Regime {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.det.regime
}

// Straggler returns the participant currently under a persistent
// straggler alert, or (-1, false) when none is active.
func (s *Stream) Straggler() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.det.stragglerActive {
		return -1, false
	}
	return s.det.straggler, true
}
