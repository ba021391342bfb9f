//go:build !linux

package liveness

import "time"

// sleeper is the poller's stoppable sleep; off Linux it waits on a
// runtime timer.
type sleeper struct{ stopped chan struct{} }

func newSleeper() *sleeper { return &sleeper{stopped: make(chan struct{})} }

// sleep blocks for d or until stop, and reports whether the poller is
// still running.
func (s *sleeper) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.stopped:
		return false
	case <-t.C:
		return true
	}
}

// stop ends the current and every later sleep.
func (s *sleeper) stop() { close(s.stopped) }
