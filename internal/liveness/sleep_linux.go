//go:build linux

package liveness

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// sleeper is the poller's stoppable sleep. On Linux the goroutine
// sleeps in the kernel, in a futex wait with a timeout, instead of on
// a runtime timer. While any runtime timer is pending, every entry
// into the Go scheduler on the P that holds it reads the clock and
// checks the timer heap, and an oversubscribed barrier enters the
// scheduler several times per episode (its waiters yield and park).
// On a 2-vCPU x86-64 host, a bare 8-party spin-park barrier at
// GOMAXPROCS=2 ran about a fifth slower per episode with an idle
// 100 ms time.Ticker alive than without one, and about as fast with a
// goroutine asleep in the kernel instead.
type sleeper struct {
	// stopped is the futex word: 0 while running, 1 once stop ran. The
	// kernel reads it through its address, so it is a plain uint32
	// accessed only through sync/atomic functions.
	stopped uint32
}

func newSleeper() *sleeper { return new(sleeper) }

const (
	futexWaitPrivate = 0 | 128 // FUTEX_WAIT | FUTEX_PRIVATE_FLAG
	futexWakePrivate = 1 | 128 // FUTEX_WAKE | FUTEX_PRIVATE_FLAG
)

// sleep blocks for d or until stop, and reports whether the poller is
// still running. Besides timing out or being woken by stop, a futex
// wait returns early on a signal and at once if stop already ran; the
// loop re-checks the word and the clock after every return, so the
// wait's error result is not needed.
func (s *sleeper) sleep(d time.Duration) bool {
	end := time.Now().Add(d)
	for atomic.LoadUint32(&s.stopped) == 0 {
		left := time.Until(end)
		if left <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(left))
		syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.stopped)),
			futexWaitPrivate, 0, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
	return false
}

// stop ends the current and every later sleep.
func (s *sleeper) stop() {
	atomic.StoreUint32(&s.stopped, 1)
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.stopped)),
		futexWakePrivate, 1, 0, 0, 0)
}
