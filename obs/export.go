package obs

import (
	"expvar"
	"io"
	"net/http"
)

// Exporters for barrier telemetry. Three formats are supported so a
// long-running service can expose live barrier health however its
// fleet is scraped:
//
//   - WritePrometheus / Instrumented.MetricsHandler — Prometheus text
//     exposition (version 0.0.4), histograms in native cumulative form,
//     written like every obs exposition by the promWriter (prom.go).
//   - Snapshot JSON (encoding/json) — the snapshot marshals directly.
//   - Instrumented.Var / Publish — an expvar.Var, so the standard
//     expvar.Handler at /debug/vars picks the telemetry up for free.

// WritePrometheus writes the snapshot in Prometheus text exposition
// format. Metric families:
//
//	armbarrier_participants                      gauge
//	armbarrier_rounds_total{participant}         counter
//	armbarrier_spin_iterations_total{participant} counter
//	armbarrier_spin_yields_total{participant}    counter
//	armbarrier_parks_total{participant}          counter
//	armbarrier_wakes_total{participant}          counter
//	armbarrier_fused_rounds_total{participant}   counter
//	armbarrier_wait_latency_ns{participant}      histogram (+_sum,_count)
//	armbarrier_arrival_skew_last_ns{participant} gauge
//	armbarrier_arrival_skew_mean_ns{participant} gauge
//	armbarrier_round_skew_ns                     histogram (+_sum,_count)
//	armbarrier_round_skew_max_ns                 gauge
//
// plus the phase families of phaseFamilies under Options.Phases.
// Elastic barriers (dynamic membership) additionally export
// armbarrier_registered_parties, armbarrier_party_capacity,
// armbarrier_register_total, armbarrier_deregister_total and
// armbarrier_phaser_phase_total.
//
// Every series carries a barrier="<name>" label.
func WritePrometheus(w io.Writer, s Snapshot) error {
	p := newPromWriter().with("barrier", s.Barrier)
	p.scalar("armbarrier_participants", "gauge", "Fixed participant count of the barrier.", s.Participants)
	perParti := func(name, typ, help string, val func(ParticipantSnapshot) any) {
		p.family(name, typ, help)
		for _, q := range s.PerParti {
			p.with("participant", q.ID).sample(name, val(q))
		}
	}
	perParti("armbarrier_rounds_total", "counter", "Barrier episodes completed per participant.",
		func(q ParticipantSnapshot) any { return q.Rounds })
	perParti("armbarrier_spin_iterations_total", "counter", "Poll-loop iterations spent waiting inside the barrier.",
		func(q ParticipantSnapshot) any { return q.Spins })
	perParti("armbarrier_spin_yields_total", "counter", "Scheduler yields taken while waiting inside the barrier.",
		func(q ParticipantSnapshot) any { return q.Yields })
	perParti("armbarrier_parks_total", "counter", "Goroutine parks taken while waiting inside the barrier.",
		func(q ParticipantSnapshot) any { return q.Parks })
	perParti("armbarrier_wakes_total", "counter", "Wake tokens handed to this participant by barrier releasers.",
		func(q ParticipantSnapshot) any { return q.Wakes })
	perParti("armbarrier_fused_rounds_total", "counter", "Rounds that were fused collective episodes (allreduce/reduce/broadcast).",
		func(q ParticipantSnapshot) any { return q.FusedRounds })
	p.family("armbarrier_wait_latency_ns", "histogram", "Wait-call latency per participant, log2 buckets.")
	for _, q := range s.PerParti {
		p.with("participant", q.ID).hist("armbarrier_wait_latency_ns", q.WaitHist, q.WaitSumNs)
	}
	perParti("armbarrier_arrival_skew_last_ns", "gauge", "Arrival offset from the round's first arriver, last completed round.",
		func(q ParticipantSnapshot) any { return q.LastSkewNs })
	perParti("armbarrier_arrival_skew_mean_ns", "gauge", "Mean arrival offset from the round's first arriver.",
		func(q ParticipantSnapshot) any { return q.MeanSkewNs })
	p.family("armbarrier_round_skew_ns", "histogram", "Per-round spread between first and last arrival, log2 buckets.")
	p.hist("armbarrier_round_skew_ns", s.Skew.Hist, s.Skew.SumNs)
	p.scalar("armbarrier_round_skew_max_ns", "gauge", "Largest per-round arrival spread observed.", s.Skew.MaxNs)
	phaseFamilies(p, s.Phases)
	if e := s.Elastic; e != nil {
		p.scalar("armbarrier_registered_parties", "gauge", "Currently registered parties of the elastic barrier.", e.Registered)
		p.scalar("armbarrier_party_capacity", "gauge", "Slot capacity of the elastic barrier.", e.Capacity)
		p.scalar("armbarrier_register_total", "counter", "Lifetime party registrations.", e.Registers)
		p.scalar("armbarrier_deregister_total", "counter", "Lifetime party deregistrations.", e.Deregisters)
		p.scalar("armbarrier_phaser_phase_total", "counter", "Resolved epochs of the elastic barrier.", e.Phase)
	}
	return p.flush(w)
}

// phaseFamilies writes the phase-resolved families, present only
// under Options.Phases on a PhaseProber barrier:
//
//	armbarrier_phase_cost_ns{phase,level}     histogram (+_sum,_count)
//	armbarrier_phase_cost_p50_ns{phase,level} gauge (NaN sampleless)
//	armbarrier_phase_cost_max_ns{phase,level} gauge
//	armbarrier_phase_skew_ns{phase,level}     gauge
func phaseFamilies(p promWriter, ps *PhaseSnapshot) {
	if ps == nil {
		return
	}
	p.family("armbarrier_phase_cost_ns", "histogram", "Per-(phase,level) step cost on sampled rounds, log2 buckets.")
	for _, l := range ps.Levels {
		p.with("phase", l.Phase, "level", l.Level).hist("armbarrier_phase_cost_ns", l.Hist, l.SumNs)
	}
	gauge := func(name, help string, val func(PhaseLevelSnapshot) any) {
		p.family(name, "gauge", help)
		for _, l := range ps.Levels {
			p.with("phase", l.Phase, "level", l.Level).sample(name, val(l))
		}
	}
	gauge("armbarrier_phase_cost_p50_ns", "Median per-(phase,level) step cost (NaN when sampleless).",
		func(l PhaseLevelSnapshot) any { return l.QuantileNs(0.5) })
	gauge("armbarrier_phase_cost_max_ns", "Largest per-(phase,level) step cost observed.",
		func(l PhaseLevelSnapshot) any { return l.MaxNs })
	gauge("armbarrier_phase_skew_ns", "Spread of per-participant mean cost at this (phase,level).",
		func(l PhaseLevelSnapshot) any { return l.SkewNs })
}

// MetricsHandler returns an http.Handler serving a live snapshot:
// Prometheus text exposition by default, JSON with ?format=json.
func (in *Instrumented) MetricsHandler() http.Handler {
	return serve("prom", func() formats {
		snap := in.Snapshot()
		return formats{
			"prom": func(w io.Writer) error { return WritePrometheus(w, snap) },
			"json": func(w io.Writer) error { return writeJSON(w, snap) },
		}
	})
}

// Var returns the telemetry as an expvar.Var whose String() is the
// JSON snapshot, compatible with the standard expvar.Handler.
func (in *Instrumented) Var() expvar.Var {
	return expvar.Func(func() any { return in.Snapshot() })
}

// Publish registers the telemetry under name in the process-wide expvar
// registry (it appears at /debug/vars). Like expvar.Publish, it panics
// on a duplicate name.
func (in *Instrumented) Publish(name string) {
	expvar.Publish(name, in.Var())
}
