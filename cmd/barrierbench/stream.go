package main

import (
	"fmt"
	"io"

	"armbarrier/obs"
)

// streamedMeasurement is one algorithm x thread-count's windowed
// telemetry timeline, captured by -stream.
type streamedMeasurement struct {
	label    string
	timeline obs.StreamSnapshot
}

// printTimelines renders each measurement's window series the same way
// the /debug/timeline endpoint's text mode does: labelled ASCII
// sparklines, the last window's straggler, and any alerts the run
// raised.
func printTimelines(out io.Writer, streamed []streamedMeasurement) {
	fmt.Fprintf(out, "\nWindowed telemetry (one row per metric; windows oldest to newest)\n")
	for _, sm := range streamed {
		fmt.Fprintf(out, "\n== %s\n%s", sm.label, obs.RenderTimeline(sm.timeline, 72))
	}
}
