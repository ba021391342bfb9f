package main

// The -fabric mode: sweep the barrier fabric's joins/sec throughput
// over (groups x participants), the service-side counterpart of the
// per-episode EPCC tables.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"armbarrier/fabric"
	"armbarrier/internal/table"
)

// runFabric runs the sweep and renders the table (plus the json report
// when jsonout is set).
func runFabric(out io.Writer, groupsList, pList []int, episodes int, csv bool, jsonout string) error {
	tb := table.New(
		fmt.Sprintf("Barrier fabric throughput (%d episodes per generator)", episodes),
		"groups", "P", "joins", "joins/sec", "join p50 ns", "join p99 ns")
	var points []fabric.BenchPoint
	for _, g := range groupsList {
		for _, p := range pList {
			pt, err := fabric.RunBench(fabric.BenchConfig{
				Groups:       g,
				Participants: p,
				Episodes:     episodes,
			})
			if err != nil {
				return err
			}
			points = append(points, pt)
			tb.AddRow(strconv.Itoa(pt.Groups), strconv.Itoa(pt.Participants),
				strconv.FormatUint(pt.Joins, 10),
				fmt.Sprintf("%.0f", pt.JoinsPerSec),
				table.Cell(pt.JoinP50Ns), table.Cell(pt.JoinP99Ns))
		}
	}
	tb.AddNote("joins/sec is total completed arrivals over wall time, all groups combined")
	tb.AddNote("join latency is Arrive-to-outcome, sampled 1-in-8 per generator")
	if csv {
		fmt.Fprint(out, tb.CSV())
	} else {
		fmt.Fprint(out, tb.Render())
	}
	if jsonout != "" {
		path, err := writeFabricJSON(jsonout, episodes, points)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return nil
}

// writeFabricJSON writes a mode-"fabric" benchReport holding the sweep
// points, sharing the trajectory-file format with the barrier sweeps so
// benchdiff can gate both.
func writeFabricJSON(dest string, episodes int, points []fabric.BenchPoint) (string, error) {
	dest = resolveJSONDest(dest)
	rep := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Mode:       "fabric",
		Episodes:   episodes,
		Fabric:     points,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return dest, os.WriteFile(dest, append(buf, '\n'), 0o644)
}
