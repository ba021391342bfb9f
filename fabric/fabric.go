// Package fabric is the barrier-as-a-service layer: a sharded registry
// of named barrier groups multiplexed over one bounded wake-up pool,
// turning the single-team barrier library into a service that can hold
// thousands of *independent* fork-join groups in one process.
//
// The paper optimizes one barrier episode; a production process
// serving heavy traffic runs many small episodes concurrently —
// every request a fork-join region against a named group. Two design
// rules follow:
//
//   - Nothing per-group may touch shared state. Groups live in a
//     power-of-two shard array; each shard has its own lock (taken only
//     for create/lookup/remove, never on the arrival path) and every
//     group's hot words sit on their own cachelines (internal/pad), so
//     unrelated groups never contend.
//
//   - Nothing may park a goroutine per waiter. Group.Arrive is
//     asynchronous: an arrival pushes a completion node onto the
//     group's arrival stack with one CAS — the stack head doubles as
//     the generation counter, so the P-th arrival detaches the whole
//     round in its arrival CAS and publishes it. Wake-ups are then
//     delivered in batches by the fabric's bounded worker pool: one
//     pass over the round's completion list, chunked to WakeBatch so a
//     giant group cannot stall the queue behind it.
//
// Per-group telemetry rollups (episode rate, join-wait quantiles,
// arrival skew) ride 1-in-K round sampling so instrumenting ten
// thousand live groups stays inside the repository's <10% overhead
// budget, and a fabric-level watchdog names the groups — and, for
// identity-tracked groups, the participants — holding up a round.
package fabric

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"time"

	"armbarrier/internal/liveness"
	"armbarrier/internal/pad"
)

// Config configures a Fabric.
type Config struct {
	// Shards is the number of group-table shards; rounded up to a power
	// of two. 0 means DefaultShards.
	Shards int
	// Workers is the wake-up pool size; 0 means max(2, GOMAXPROCS).
	Workers int
	// QueueDepth bounds the completion queue; a publisher that finds it
	// full delivers its batch inline (back-pressure instead of an
	// unbounded queue). 0 means DefaultQueueDepth.
	QueueDepth int
	// WakeBatch is how many wake-ups one pool task delivers before the
	// remainder is re-queued, bounding how long one giant group can
	// monopolize a worker. 0 means DefaultWakeBatch.
	WakeBatch int
	// SampleEvery is the per-group telemetry sampling period: full
	// timing (join wait, arrival skew) is captured on one round in
	// SampleEvery. 0 means DefaultSampleEvery; negative disables the
	// rollups entirely (round counts remain).
	SampleEvery int
	// StallDeadline is how long a round may stay incomplete after its
	// first arrival before Check reports the group. When positive, New
	// starts a background Check every StallDeadline/4 (at least 1ms)
	// that runs until Close; 0 disables the watchdog.
	StallDeadline time.Duration
	// OnStall, if non-nil, is called once per newly stalled (group,
	// round) from whichever goroutine ran the detecting Check.
	OnStall func(Stall)
}

// Defaults for the zero Config.
const (
	DefaultShards      = 64
	DefaultQueueDepth  = 4096
	DefaultWakeBatch   = 64
	DefaultSampleEvery = 16
)

// shardState is one shard of the group table. Only create, lookup,
// remove and sweep take the lock; arrivals never do.
type shardState struct {
	mu     sync.RWMutex
	groups map[string]*Group
}

// shard pads shardState so neighbouring shards' locks never share a
// cacheline (the shared internal/pad discipline).
type shard struct {
	shardState
	_ [pad.CacheLine]byte
}

// Fabric is the sharded multi-group synchronization service. Construct
// with New; all methods are safe for concurrent use.
type Fabric struct {
	cfg    Config
	shards []shard
	mask   uint64
	seed   maphash.Seed

	queue chan wakeTask
	// pubMu serializes publishers against Close: publishers hold the
	// read side around their queue send, Close flips closed and closes
	// the queue under the write side, so a send on a closed channel is
	// impossible and post-close batches deliver inline.
	pubMu   sync.RWMutex
	closed  bool
	workers sync.WaitGroup

	// poll runs Check in the background; started only with a
	// StallDeadline.
	poll *liveness.Poller

	base time.Time
}

// New builds a Fabric and starts its wake-up pool.
func New(cfg Config) *Fabric {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = max(2, runtime.GOMAXPROCS(0))
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.WakeBatch <= 0 {
		cfg.WakeBatch = DefaultWakeBatch
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	f := &Fabric{
		cfg:    cfg,
		shards: make([]shard, shards),
		mask:   uint64(shards - 1),
		seed:   maphash.MakeSeed(),
		queue:  make(chan wakeTask, cfg.QueueDepth),
		base:   time.Now(),
	}
	for i := range f.shards {
		f.shards[i].groups = make(map[string]*Group)
	}
	f.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go f.worker()
	}
	f.poll = liveness.NewPoller(liveness.Period(cfg.StallDeadline), func() { f.Check() })
	if cfg.StallDeadline > 0 {
		f.poll.Start()
	}
	return f
}

// monons is the fabric's monotonic nanosecond clock (one
// runtime.nanotime call; always > 0 once any group runs, so 0 can mean
// "absent").
func (f *Fabric) monons() int64 { return int64(time.Since(f.base)) }

// shardOf maps a group name to its shard.
func (f *Fabric) shardOf(name string) *shard {
	return &f.shards[maphash.String(f.seed, name)&f.mask]
}

// GroupConfig configures one named group.
type GroupConfig struct {
	// Participants is the group's fixed round size P; required, >= 1.
	Participants int
	// Track allocates per-participant arrival counters so ArriveAs
	// calls let the watchdog name the missing participants of a stalled
	// round. Costs one padded line (128 bytes) per participant, so
	// concurrent ArriveAs calls never share a line; leave off for
	// anonymous groups.
	Track bool
	// Elastic lets the group's round size follow its membership: a
	// Fabric.Group call reaching an existing elastic group with a
	// different Participants resizes the target instead of erroring (a
	// late joiner raises it, a leaver lowers it), and Group.Resize
	// adjusts it directly. Each round's size is latched by its first
	// arrival, so a resize only ever affects rounds that have not begun.
	// Elastic groups are anonymous: combining Elastic with Track is an
	// error (the tracked arrival table assumes a fixed P).
	Elastic bool
}

// Group returns the named group, creating it with cfg on first use.
// A second caller reaching an existing group gets that group; its cfg
// must agree on elasticity, or an error is returned — two services
// disagreeing on a group's shape is a bug worth surfacing, not
// papering over. Fixed groups must also agree on Participants; for an
// elastic group a differing Participants is a resize request (see
// GroupConfig.Elastic). A group that was closed (directly, or by a
// sweep racing this call) is never returned: the slow path replaces
// the corpse with a fresh group, so a long-lived name survives its own
// garbage collection.
func (f *Fabric) Group(name string, cfg GroupConfig) (*Group, error) {
	if cfg.Participants < 1 {
		return nil, fmt.Errorf("fabric: group %q: participants %d < 1", name, cfg.Participants)
	}
	if cfg.Elastic && cfg.Track {
		return nil, fmt.Errorf("fabric: group %q: Elastic groups are anonymous (Track set)", name)
	}
	s := f.shardOf(name)
	s.mu.RLock()
	g, ok := s.groups[name]
	s.mu.RUnlock()
	if !ok || g.Closed() {
		// Recheck under the write lock: a racing creator may have
		// inserted first, and only the winner builds a group.
		s.mu.Lock()
		if g, ok = s.groups[name]; !ok || g.Closed() {
			g = f.newGroup(name, cfg)
			s.groups[name] = g
			s.mu.Unlock()
			return g, nil
		}
		s.mu.Unlock()
	}
	return groupCompat(name, g, cfg)
}

// groupCompat reconciles an existing group with a new caller's cfg.
func groupCompat(name string, g *Group, cfg GroupConfig) (*Group, error) {
	if g.elastic != cfg.Elastic {
		return nil, fmt.Errorf("fabric: group %q exists with elastic=%v, requested %v",
			name, g.elastic, cfg.Elastic)
	}
	if g.elastic {
		if g.Participants() != cfg.Participants {
			if err := g.Resize(cfg.Participants); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	if g.p != cfg.Participants {
		return nil, fmt.Errorf("fabric: group %q exists with %d participants, requested %d",
			name, g.p, cfg.Participants)
	}
	return g, nil
}

// Lookup returns the named group without creating it.
func (f *Fabric) Lookup(name string) (*Group, bool) {
	s := f.shardOf(name)
	s.mu.RLock()
	g, ok := s.groups[name]
	s.mu.RUnlock()
	return g, ok
}

// Remove closes the named group and removes it from the registry.
// Holders of the stale *Group see ErrClosed on their next Arrive. The
// close happens under the shard lock, in the same critical section as
// the delete, so no Group/Lookup caller can ever obtain a removed-but-
// not-yet-closed group (Close never blocks: outcome channels are
// buffered).
func (f *Fabric) Remove(name string) bool {
	s := f.shardOf(name)
	s.mu.Lock()
	g, ok := s.groups[name]
	delete(s.groups, name)
	if ok {
		g.Close()
	}
	s.mu.Unlock()
	return ok
}

// Groups counts the registered groups.
func (f *Fabric) Groups() int {
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		n += len(s.groups)
		s.mu.RUnlock()
	}
	return n
}

// eachGroup calls fn on every registered group. Each shard's read lock
// is held only long enough to copy its group list, so fn never blocks
// the shard's creates, lookups or rounds.
func (f *Fabric) eachGroup(fn func(*Group)) {
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		groups := make([]*Group, 0, len(s.groups))
		for _, g := range s.groups {
			groups = append(groups, g)
		}
		s.mu.RUnlock()
		for _, g := range groups {
			fn(g)
		}
	}
}

// Sweep removes groups that have been idle — no round in flight and no
// arrival — for at least idle, returning how many it collected. This
// is the GC half of the lifecycle: a request-driven service creates
// groups on demand and sweeps them on a timer.
//
// Close-and-delete is atomic per group: tryCloseIdle installs the
// closed sentinel with one CAS of the empty arrival stack, under the
// same shard write lock as the map delete. An Arrive racing the sweep
// therefore either defeats the CAS (its node landed first; the group
// survives and its round proceeds) or observes the sentinel and gets
// ErrClosed — it can never be silently detached, and a concurrent
// Fabric.Group for the name can never resurrect the swept instance,
// only create a fresh one after the delete.
func (f *Fabric) Sweep(idle time.Duration) int {
	now := f.monons()
	cutoff := now - int64(idle)
	removed := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		for name, g := range s.groups {
			if g.tryCloseIdle(cutoff) {
				delete(s.groups, name)
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}

// Close closes every group (draining in-flight waiters with ErrClosed),
// stops the wake-up pool after the queue fully drains, and stops the
// watchdog. The Fabric must not be used afterwards; Arrive on a held
// Group returns ErrClosed outcomes.
func (f *Fabric) Close() {
	f.poll.Stop()
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		groups := make([]*Group, 0, len(s.groups))
		for _, g := range s.groups {
			groups = append(groups, g)
		}
		s.groups = make(map[string]*Group)
		s.mu.Unlock()
		for _, g := range groups {
			g.Close()
		}
	}
	f.pubMu.Lock()
	if !f.closed {
		f.closed = true
		close(f.queue)
	}
	f.pubMu.Unlock()
	f.workers.Wait()
}
