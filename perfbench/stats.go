package main

import (
	"bufio"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram: exact below 64 ns, then 64
// buckets per power of two (under 1.6% relative width). Quantiles
// interpolate inside a bucket, so they vary continuously with the data
// instead of snapping to bucket edges.
type hist struct {
	counts [64 + 58*64]uint64
	n      uint64
}

func histIndex(ns int64) int {
	if ns < 64 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 7
	idx := 64 + shift*64 + int(uint64(ns)>>shift) - 64
	if idx >= len(hist{}.counts) {
		return len(hist{}.counts) - 1
	}
	return idx
}

// histBucket returns bucket i's lower edge and width in ns.
func histBucket(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	shift := (i - 64) / 64
	m := (i-64)%64 + 64
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileNs returns the q-quantile (0 <= q <= 1) in ns, or NaN-free 0
// for an empty histogram.
func (h *hist) quantileNs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBucket(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBucket(len(h.counts) - 1)
	return lo + w
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// cpuTime returns the user+sys CPU time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (VmHWM), falling
// back to getrusage's maxrss where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// windowOps is the size of a measurement window in operations, so that
// a window's p99 has ten samples beyond it.
const windowOps = 1000

// windowed collects per-window measurements of a timed loop; each
// end-to-end figure is the median over windows. A window of a thousand
// operations lasts milliseconds, so a scheduling stall of the shared
// host (a millisecond or more, several times a second) spoils some
// windows, not the result.
type windowed struct {
	rate, p50, tail []float64
	// cpu_us_per_op is the CPU over all windows per operation: CPU
	// time adds up, and a stall adds none.
	cpu time.Duration
	ops int64
}

func (w *windowed) add(ops int64, wall, cpu time.Duration, h *hist, tailQ float64) {
	if ops == 0 || wall <= 0 {
		return
	}
	w.rate = append(w.rate, float64(ops)/wall.Seconds())
	w.p50 = append(w.p50, h.quantileNs(0.5)/1e3)
	w.tail = append(w.tail, h.quantileNs(tailQ)/1e3)
	w.cpu += cpu
	w.ops += ops
}

func (w *windowed) result(label string) endToEnd {
	return endToEnd{
		opsPerS:   median(w.rate),
		p50us:     median(w.p50),
		tailus:    median(w.tail),
		cpuusPer:  float64(w.cpu) / 1e3 / float64(max(w.ops, 1)),
		tailLabel: label,
	}
}
