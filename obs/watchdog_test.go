package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"armbarrier/barrier"
)

func runWatchdogRounds(t *testing.T, d *barrier.Watchdog, rounds int) {
	t.Helper()
	p := d.Participants()
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d.Wait(id)
			}
		}(id)
	}
	wg.Wait()
}

func TestWriteWatchdogPrometheus(t *testing.T) {
	d := barrier.NewWatchdog(barrier.NewCentral(2), barrier.WatchdogConfig{Deadline: time.Second})
	runWatchdogRounds(t, d, 7)

	var b strings.Builder
	if err := WriteWatchdogPrometheus(&b, d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`armbarrier_watchdog_deadline_ns{barrier="central"} 1000000000`,
		`armbarrier_watchdog_stalls_total{barrier="central"} 0`,
		`armbarrier_watchdog_stalled{barrier="central"} 0`,
		`armbarrier_watchdog_rounds_total{barrier="central",participant="0"} 7`,
		`armbarrier_watchdog_rounds_total{barrier="central",participant="1"} 7`,
		`armbarrier_watchdog_wait_age_ns{barrier="central",participant="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "armbarrier_watchdog_missing") {
		t.Error("missing gauge emitted with no recorded stall")
	}
}

func TestWriteWatchdogPrometheusStalled(t *testing.T) {
	d := barrier.NewWatchdog(barrier.NewCentral(2), barrier.WatchdogConfig{
		Deadline: 10 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() { done <- d.WaitDeadline(0, 5*time.Second) }()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, stalled := d.Check(); stalled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall never detected")
		}
		time.Sleep(time.Millisecond)
	}

	var b strings.Builder
	if err := WriteWatchdogPrometheus(&b, d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`armbarrier_watchdog_stalls_total{barrier="central"} 1`,
		`armbarrier_watchdog_stalled{barrier="central"} 1`,
		`armbarrier_watchdog_missing{barrier="central",participant="0"} 0`,
		`armbarrier_watchdog_missing{barrier="central",participant="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	d.Wait(1)
	if err := <-done; err != nil {
		t.Fatalf("late arrival: %v", err)
	}
}

func TestWatchdogHandler(t *testing.T) {
	d := barrier.NewWatchdog(barrier.NewCentral(2), barrier.WatchdogConfig{Deadline: time.Second})
	runWatchdogRounds(t, d, 3)
	h := WatchdogHandler(d)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watchdog", nil))
	if !strings.Contains(rec.Body.String(), "armbarrier_watchdog_rounds_total") {
		t.Errorf("prometheus body missing rounds: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watchdog?format=json", nil))
	for _, key := range []string{`"barrier"`, `"rounds"`, `"waiting_ns"`} {
		if !strings.Contains(rec.Body.String(), key) {
			t.Errorf("json body missing %s: %s", key, rec.Body.String())
		}
	}
}
