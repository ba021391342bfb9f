package main

// The -elastic mode: sweep the phaser's round time over (participants
// x membership churn rate) against the fixed-P central barrier on the
// identical harness. The final ratio column is the acceptance number —
// steady state (churn 0) must hold within 1.3x of central — and the
// churn columns show how round time grows with membership churn
// (INSIGHTS §17).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"armbarrier/barrier"
	"armbarrier/epcc"
	"armbarrier/internal/table"
)

// runElastic runs the churn sweep and renders the table (plus the json
// report when jsonout is set).
func runElastic(out io.Writer, pList, churnList []int, episodes int, wopts []barrier.Option, csv bool, jsonout string) error {
	tb := table.New(
		fmt.Sprintf("Elastic membership (phaser) round time (%d episodes)", episodes),
		"P", "churn/s target", "churn/s achieved", "ns/round", "rounds/sec", "central ns", "ratio")
	var points []epcc.ElasticPoint
	for _, p := range pList {
		for _, churn := range churnList {
			pt, err := epcc.MeasureElastic(p, episodes, churn, wopts...)
			if err != nil {
				return err
			}
			points = append(points, pt)
			tb.AddRow(strconv.Itoa(pt.Participants), strconv.Itoa(pt.ChurnTarget),
				fmt.Sprintf("%.0f", pt.ChurnPerSec),
				fmt.Sprintf("%.1f", pt.NsPerRound),
				fmt.Sprintf("%.0f", pt.RoundsPerSec),
				fmt.Sprintf("%.1f", pt.BaselineNs),
				fmt.Sprintf("%.2fx", pt.Ratio()))
		}
	}
	tb.AddNote("ratio is phaser ns/round over fixed-P central ns/round, same harness")
	tb.AddNote("churn is one paced Register->Wait->Deregister cycle; achieved rate is measured in the timed window")
	if csv {
		fmt.Fprint(out, tb.CSV())
	} else {
		fmt.Fprint(out, tb.Render())
	}
	if jsonout != "" {
		path, err := writeElasticJSON(jsonout, episodes, points)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return nil
}

// parseChurn parses the comma-separated -churn list; unlike the
// threads lists, 0 (steady state) is a valid entry.
func parseChurn(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad churn rate %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -churn list")
	}
	return out, nil
}

// writeElasticJSON writes a mode-"elastic" benchReport holding the
// sweep points, sharing the trajectory-file format with the barrier
// sweeps so benchdiff can gate the churn tables too.
func writeElasticJSON(dest string, episodes int, points []epcc.ElasticPoint) (string, error) {
	dest = resolveJSONDest(dest)
	rep := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Mode:       "elastic",
		Episodes:   episodes,
		Elastic:    points,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return dest, os.WriteFile(dest, append(buf, '\n'), 0o644)
}
