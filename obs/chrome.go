package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Chrome trace-event export: captured episodes serialize to the JSON
// object format understood by Perfetto (ui.perfetto.dev) and
// chrome://tracing — one process per barrier, one thread row per
// participant, a complete ("X") slice per Wait from arrival to
// release, and an instant marker per episode carrying skew and worst
// wait. Timestamps are microseconds (the format's unit) measured from
// the tracer's creation.

// chromeEvent is one entry of the trace-event array. Cname selects one
// of the viewer's reserved colors, used to tell arrival slices from
// wake-up slices at a glance.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	S     string         `json:"s,omitempty"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format wrapper.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeGroup is one barrier's episodes for WriteChromeTrace; each
// group becomes a separate process row in the trace viewer.
type ChromeGroup struct {
	Name     string
	Episodes []Episode
}

// WriteChromeTrace writes the groups' episodes as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, groups ...ChromeGroup) error {
	var events []chromeEvent
	for gi, g := range groups {
		pid := gi + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": g.Name},
		})
		threadsNamed := 0
		for _, ep := range g.Episodes {
			for threadsNamed < len(ep.Parts) {
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: threadsNamed,
					Args: map[string]any{"name": "participant " + strconv.Itoa(threadsNamed)},
				})
				threadsNamed++
			}
			events = append(events, chromeEvent{
				Name: "episode " + strconv.FormatUint(ep.Round, 10),
				Cat:  "barrier", Ph: "i", S: "p",
				Ts: float64(ep.StartNs) / 1e3, Pid: pid, Tid: ep.LastArriver(),
				Args: map[string]any{
					"round":        ep.Round,
					"skew_ns":      ep.SkewNs,
					"max_wait_ns":  ep.MaxWaitNs,
					"last_arriver": ep.LastArriver(),
				},
			})
			for _, p := range ep.Parts {
				events = append(events, chromeEvent{
					Name: "wait",
					Cat:  "barrier", Ph: "X",
					Ts:  float64(p.ArriveNs) / 1e3,
					Dur: float64(p.WaitNs()) / 1e3,
					Pid: pid, Tid: p.ID,
					Args: map[string]any{
						"round":     ep.Round,
						"wait_ns":   p.WaitNs(),
						"offset_ns": p.ArriveNs - ep.StartNs,
					},
				})
				// Phase marks subdivide the wait into nested slices, one
				// per probe segment, colored per phase (arrival green,
				// wake-up orange) so the two phases read apart instantly.
				prev := p.ArriveNs
				for _, m := range p.Marks {
					cname := "thread_state_running"
					if m.Phase == "wakeup" {
						cname = "thread_state_iowait"
					}
					events = append(events, chromeEvent{
						Name: m.Phase + " L" + strconv.Itoa(m.Level),
						Cat:  "phase", Ph: "X",
						Ts:  float64(prev) / 1e3,
						Dur: float64(m.AtNs-prev) / 1e3,
						Pid: pid, Tid: p.ID,
						Cname: cname,
						Args: map[string]any{
							"round":      ep.Round,
							"phase":      m.Phase,
							"level":      m.Level,
							"segment_ns": m.AtNs - prev,
						},
					})
					prev = m.AtNs
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// WriteChromeTrace writes this tracer's kept episodes (worst first) as
// Chrome trace-event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, ChromeGroup{Name: t.Name(), Episodes: t.Episodes()})
}

// EpisodesHandler returns an http.Handler serving the kept episodes
// live, for a /debug/episodes endpoint:
//
//	(default)        JSON: barrier, trigger count, episodes (worst first)
//	?format=gantt    text Gantt lanes plus the straggler report
//	?format=chrome   Chrome trace-event JSON for Perfetto
func (t *Tracer) EpisodesHandler() http.Handler {
	return serve("json", func() formats {
		eps := t.Episodes()
		return formats{
			"json": func(w io.Writer) error {
				return writeJSON(w, struct {
					Barrier   string    `json:"barrier"`
					Triggered uint64    `json:"triggered"`
					Episodes  []Episode `json:"episodes"`
				}{t.Name(), t.Triggered(), eps})
			},
			"gantt": func(w io.Writer) error {
				fmt.Fprintf(w, "%s: %d captured episodes (%d triggers total)\n\n",
					t.Name(), len(eps), t.Triggered())
				for _, ep := range eps {
					fmt.Fprintf(w, "round %d: skew %d ns, max wait %d ns\n%s\n",
						ep.Round, ep.SkewNs, ep.MaxWaitNs, ep.Gantt(72))
				}
				_, err := io.WriteString(w, Stragglers(eps).Format(0))
				return err
			},
			"chrome": func(w io.Writer) error {
				return WriteChromeTrace(w, ChromeGroup{Name: t.Name(), Episodes: eps})
			},
		}
	})
}
