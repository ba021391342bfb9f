package main

import (
	"strings"
	"testing"
)

func TestStreamMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-stream", "-streamwindow", "5ms", "-threads", "2", "-algos", "optimized",
		"-episodes", "200", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Windowed telemetry", "== optimized/2T", "timeline optimized",
		"episodes/s", "wait p99", "last window",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stream output missing %q:\n%s", want, out)
		}
	}
}

// -stream composes with -metrics: both the telemetry table and the
// timelines come out of one run.
func TestStreamModeWithMetrics(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-stream", "-metrics", "-threads", "2", "-algos", "central",
		"-episodes", "100", "-repeats", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Barrier telemetry", "Windowed telemetry", "== central/2T"} {
		if !strings.Contains(out, want) {
			t.Errorf("stream+metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestStreamModeBadWindow(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-stream", "-streamwindow", "-1s"}, &sb); err == nil {
		t.Fatal("negative -streamwindow accepted")
	}
}
