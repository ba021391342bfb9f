// Package faultinject perturbs barrier participants on purpose: it
// wraps any barrier.Barrier and makes chosen participants arrive late
// (Delay), arrive never until released (Stall), skip an episode
// entirely (Drop), or panic on arrival (Panic). The robustness layer —
// bounded waits, the episode watchdog, panic-safe teams — is only
// trustworthy if it is exercised against the failures it claims to
// handle; CNA-lock verification work found liveness bugs in hand-tuned
// sync structures only by systematically perturbing schedules, and this
// package is the repository's lightweight version of that discipline.
// It is internal: a deliberate wedge is a test instrument, not an API.
package faultinject

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"armbarrier/barrier"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// Delay makes the participant sleep before arriving.
	Delay Kind = iota
	// Stall blocks the participant before arrival until Release; with a
	// non-zero Fault.Delay it un-stalls by itself after that long.
	Stall
	// Drop makes the participant skip the episode entirely: it blocks
	// like Stall but never arrives at the inner barrier even when
	// released. The episode can then only complete if the barrier is
	// replaced — Drop is how a test creates a permanently missing
	// participant without leaking a goroutine.
	Drop
	// Panic makes the participant panic instead of arriving.
	Panic
)

// String implements fmt.Stringer with the names the -fault flag uses.
func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	case Drop:
		return "drop"
	case Panic:
		return "panic"
	}
	return "fault?"
}

// ParseKind parses a fault kind name as printed by String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "delay":
		return Delay, nil
	case "stall":
		return Stall, nil
	case "drop":
		return Drop, nil
	case "panic":
		return Panic, nil
	}
	return 0, fmt.Errorf("faultinject: unknown fault kind %q (have delay, stall, drop, panic)", s)
}

// Fault is one injected failure: participant ID misbehaves (per Kind)
// on its Round-th arrival at the wrapped barrier, counting from 0.
// Each fault fires once.
type Fault struct {
	ID    int
	Round uint64
	Kind  Kind
	// Delay is the sleep for Delay faults and the optional self-release
	// timeout for Stall faults (0 = stall until Release).
	Delay time.Duration
}

// String formats the fault the way the -fault flag spells it.
func (f Fault) String() string {
	if f.Delay > 0 {
		return fmt.Sprintf("%d@%d:%s:%v", f.ID, f.Round, f.Kind, f.Delay)
	}
	return fmt.Sprintf("%d@%d:%s", f.ID, f.Round, f.Kind)
}

// ParseFault parses a fault spec as the barrierbench -fault flag
// spells it: "id@round:kind[:duration]", e.g. "2@5:stall" or
// "0@0:delay:3ms". Round counts a participant's arrivals from 0.
func ParseFault(s string) (Fault, error) {
	var f Fault
	var kindDur string
	if _, err := fmt.Sscanf(s, "%d@%d:%s", &f.ID, &f.Round, &kindDur); err != nil {
		return Fault{}, fmt.Errorf("faultinject: fault spec %q is not id@round:kind[:duration]", s)
	}
	kind := kindDur
	if i := strings.IndexByte(kindDur, ':'); i >= 0 {
		kind = kindDur[:i]
		d, err := time.ParseDuration(kindDur[i+1:])
		if err != nil {
			return Fault{}, fmt.Errorf("faultinject: fault spec %q: %w", s, err)
		}
		f.Delay = d
	}
	k, err := ParseKind(kind)
	if err != nil {
		return Fault{}, fmt.Errorf("faultinject: fault spec %q: %w", s, err)
	}
	f.Kind = k
	if f.ID < 0 {
		return Fault{}, fmt.Errorf("faultinject: fault spec %q: negative participant", s)
	}
	if f.Kind == Delay && f.Delay <= 0 {
		return Fault{}, fmt.Errorf("faultinject: fault spec %q: delay needs a duration", s)
	}
	return f, nil
}

// ParseFaults parses a comma-separated list of fault specs.
func ParseFaults(s string) ([]Fault, error) {
	if s == "" {
		return nil, nil
	}
	var fs []Fault
	for _, part := range strings.Split(s, ",") {
		f, err := ParseFault(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// paddedRound is a participant's owner-only arrival counter.
type paddedRound struct {
	n uint64
	_ [barrier.CacheLineSize - 8]byte
}

// Injector wraps a barrier and applies the configured faults. Wrap the
// Injector outermost — participant → Injector → Watchdog → barrier — so
// a watchdog under test never sees the faulted arrival and genuinely
// has to detect the absence.
type Injector struct {
	inner    barrier.Barrier
	rounds   []paddedRound
	faults   map[int]map[uint64]Fault
	release  chan struct{}
	once     sync.Once
	injected atomic.Uint64
}

// Wrap builds an Injector around b. It panics on a fault naming a
// participant outside b's range or two faults for the same participant
// and round.
func Wrap(b barrier.Barrier, faults ...Fault) *Injector {
	p := b.Participants()
	m := make(map[int]map[uint64]Fault)
	for _, f := range faults {
		if f.ID < 0 || f.ID >= p {
			panic(fmt.Sprintf("faultinject: fault %v names participant outside [0,%d)", f, p))
		}
		if _, dup := m[f.ID][f.Round]; dup {
			panic(fmt.Sprintf("faultinject: duplicate fault for participant %d round %d", f.ID, f.Round))
		}
		if m[f.ID] == nil {
			m[f.ID] = make(map[uint64]Fault)
		}
		m[f.ID][f.Round] = f
	}
	return &Injector{
		inner:   b,
		rounds:  make([]paddedRound, p),
		faults:  m,
		release: make(chan struct{}),
	}
}

// Name implements Barrier.
func (in *Injector) Name() string { return in.inner.Name() + "+fault" }

// Participants implements Barrier.
func (in *Injector) Participants() int { return in.inner.Participants() }

// Inner returns the wrapped barrier.
func (in *Injector) Inner() barrier.Barrier { return in.inner }

// Injected reports how many faults have fired.
func (in *Injector) Injected() uint64 { return in.injected.Load() }

// Release un-stalls every stalled participant and every future Stall or
// Drop fault. Idempotent.
func (in *Injector) Release() {
	in.once.Do(func() { close(in.release) })
}

// take returns the fault due for participant id's current arrival, if
// any, and advances its round counter.
func (in *Injector) take(id int) (Fault, bool) {
	r := in.rounds[id].n
	in.rounds[id].n++
	f, ok := in.faults[id][r]
	if ok {
		in.injected.Add(1)
	}
	return f, ok
}

// Wait implements Barrier, applying any fault due this round. A Stall
// with no self-release delay blocks until Release; a Drop returns
// without arriving at the inner barrier at all.
func (in *Injector) Wait(id int) {
	if f, ok := in.take(id); ok {
		switch f.Kind {
		case Delay:
			time.Sleep(f.Delay)
		case Stall:
			in.await(f, nil)
		case Drop:
			in.await(f, nil)
			return
		case Panic:
			panic(fmt.Sprintf("faultinject: injected panic: participant %d round %d", f.ID, f.Round))
		}
	}
	in.inner.Wait(id)
}

// WaitDeadline implements barrier.DeadlineWaiter, forwarding to the
// wrapped barrier (which must implement it) with whatever budget the
// fault has not consumed. A Stall or Drop that outlives the budget
// reports the same *barrier.TimeoutError a wedged wait would.
func (in *Injector) WaitDeadline(id int, timeout time.Duration) error {
	dw, ok := in.inner.(barrier.DeadlineWaiter)
	if !ok {
		return fmt.Errorf("faultinject: %s does not implement DeadlineWaiter", in.inner.Name())
	}
	start := time.Now()
	if f, ok := in.take(id); ok {
		budget := time.NewTimer(timeout)
		defer budget.Stop()
		switch f.Kind {
		case Delay:
			select {
			case <-time.After(f.Delay):
			case <-budget.C:
				return &barrier.TimeoutError{Barrier: in.Name(), ID: id, Timeout: timeout}
			}
		case Stall:
			if !in.await(f, budget.C) {
				return &barrier.TimeoutError{Barrier: in.Name(), ID: id, Timeout: timeout}
			}
		case Drop:
			if !in.await(f, budget.C) {
				return &barrier.TimeoutError{Barrier: in.Name(), ID: id, Timeout: timeout}
			}
			return nil
		case Panic:
			panic(fmt.Sprintf("faultinject: injected panic: participant %d round %d", f.ID, f.Round))
		}
	}
	remaining := timeout - time.Since(start)
	if remaining <= 0 {
		remaining = time.Nanosecond
	}
	return dw.WaitDeadline(id, remaining)
}

// await blocks on the fault's release condition: Release, the fault's
// own self-release delay (if any), or the caller's budget (if any).
// It reports false when the budget expired first.
func (in *Injector) await(f Fault, budget <-chan time.Time) bool {
	var selfRelease <-chan time.Time
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		selfRelease = t.C
	}
	select {
	case <-in.release:
		return true
	case <-selfRelease:
		return true
	case <-budget:
		return false
	}
}

var (
	_ barrier.Barrier        = (*Injector)(nil)
	_ barrier.DeadlineWaiter = (*Injector)(nil)
)
