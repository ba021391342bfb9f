package barrier

// Hierarchical is the two-level core/cluster barrier: participants are
// split into groups that arrive on one exclusively-owned cacheline per
// group — a sense-reversing fetch-and-add counter, the count.c idiom —
// and each group's last arriver (its episode representative) climbs a
// dynamic f-way tree over the groups, the same runtime winner election
// DTOUR uses. The champion releases the other representatives through
// a global sense flag and every representative broadcasts the release
// back down through its own group line, so the wake-up is a depth-2
// tree whose stages the model prices as Eq. 3 at G and Eq. 3 at g.
//
// The group size is the machine-layer knob: it should match how many
// participants share a cheap communication layer (a core cluster on
// the paper's machines, a handful of goroutines per core here). Given
// GroupSize 0 the constructor self-discovers it from the host's
// measured latency layers — the cached hostlat probe (the paper's
// Section III-A ping-pong) priced through the model, the way the paper
// sized its trees from hand measurements.
//
// Parking note: the champion must wake the G−1 waiting
// representatives, but which participant represents a group is
// episode-dependent. Instead of scanning every park slot (the
// signalAll fallback, O(P)), each losing representative publishes its
// id into a per-group slot before waiting, so the champion wakes
// exactly the published representatives — O(G) loads and at most G−1
// unparks. Representatives then wake only their own members, keeping
// every wake fan-out bounded by max(G, g).

import (
	"fmt"
	"sync/atomic"

	"armbarrier/hostlat"
	"armbarrier/model"
)

// HierarchicalConfig configures a Hierarchical barrier.
type HierarchicalConfig struct {
	// GroupSize is how many consecutive participants share one group
	// line; 0 auto-derives it from the host's probed latency layers
	// (see AutoGroupSize).
	GroupSize int
	// FanIn is the fan-in of the inter-group arrival tree over the
	// group representatives; 0 defaults to 4, the paper's Eq. 2
	// optimum rounded to the machines' power-of-two cluster sizes.
	FanIn int
	// Name overrides the generated display name ("hier-g<size>").
	Name string
}

// hierGroup is one group's exclusively-owned cacheline (the count.c
// idiom): the arrival counter its members fetch-and-add into, the
// sense flag the wake-down broadcasts through, and the group's fused
// collective result, together so a member's episode touches one line.
// result is plain: the representative writes it before the sense
// store, members read it after the sense load (see AllReduce).
type hierGroup struct {
	result uint64 // first: 8-aligned without implicit padding
	arrive atomic.Uint32
	sense  atomic.Uint32
	size   uint32
	_      [cacheLine - 20]byte
}

// hierRep is the per-group representative slot: the group's current
// representative publishes its participant id+1 here before waiting on
// the global release (0 means none published yet). Padded so the
// champion's wake scan never bounces a group's hot line.
type hierRep struct {
	id atomic.Int32
	_  [cacheLine - 4]byte
}

// Hierarchical is the two-level group/tree barrier. Construct with
// NewHierarchical.
type Hierarchical struct {
	p         int
	groupSize int
	fanIn     int
	groups    []hierGroup
	members   [][]int // members[c] lists group c's participant ids
	groupOf   []int
	// Inter-group arrival tree over the representatives: dynamic
	// election with per-group atomic counters, as in DTOUR.
	sched    []int
	counters [][]fwayCounter
	reps     []hierRep
	rsense   paddedUint32
	// Fused-collective state: contrib[id] is the word participant id
	// publishes before its group-counter increment; payload[r][idx] is
	// the partial a representative publishes before its tree-counter
	// increment at level r; result is the champion's combined word
	// (written before the rsense store); bcast is the Broadcast root's
	// word, double-buffered by sense (readers read after release).
	contrib    []paddedWord
	payload    [][]paddedWord
	result     paddedWord
	bcast      [2]paddedWord
	local      []paddedUint32
	wakeLevels int
	name       string
	waitState
}

// hierAuto* are the coefficients AutoGroupSize prices candidates with
// when probing, calibrated against measured group-size sweeps on the
// development hosts (see tune.MeasureHierGroupSizes for re-running the
// hand search on a new machine):
//
//   - hierAutoAlpha is the model's α (invalidation cost fraction).
//   - hierAutoContention scales the measured local access ε into the
//     Eq. 3 read-contention coefficient c.
const (
	hierAutoAlpha      = 0.3
	hierAutoContention = 1.0
)

// AutoGroupSize derives the group size NewHierarchical uses for
// GroupSize 0. Two regimes:
//
// Dedicated (p <= GOMAXPROCS, working ping-pong probe): the cached
// hostlat probe measures the host's remote hop L and local access ε
// once per process, and the model's two-level cost (group FAA ladder +
// Eq. 1 tree over representatives + Eq. 3 releases) is minimized over
// power-of-two candidates — the paper's hand measurement, automated.
//
// Oversubscribed (p > GOMAXPROCS) or single-layer (the probe cannot
// find a second processor): one flat group, g = p. The model's optimum
// assumes group ladders progress in parallel on separate cores; once
// arrivals serialize through the scheduler, every cacheline and every
// handoff is on the one critical path, so the shape with the least
// total work — a single group line, no representative stage — wins.
// The measured hand search (tune.MeasureHierGroupSizes) confirms g = p
// beating every split at P = 64..4096 on a serialized host.
func AutoGroupSize(p int) int {
	if p <= 2 {
		return p
	}
	if oversubscribed(p) {
		return p
	}
	lat := hostlat.Cached()
	if lat.Err != nil || lat.RemoteNs <= 0 {
		return p
	}
	c := hierAutoContention * lat.LocalNs
	return model.BestHierGroupSize(p, hierDefaultFanIn, lat.RemoteNs, hierAutoAlpha, c, nil)
}

// hierDefaultFanIn is the representative-tree fan-in when the config
// leaves it zero.
const hierDefaultFanIn = 4

// NewHierarchical builds a two-level barrier for p participants.
func NewHierarchical(p int, cfg HierarchicalConfig, opts ...Option) *Hierarchical {
	checkP(p, "hier")
	g := cfg.GroupSize
	if g == 0 {
		g = AutoGroupSize(p)
	}
	if g < 1 {
		panic(fmt.Sprintf("barrier: hier group size %d < 1", g))
	}
	if g > p {
		g = p
	}
	f := cfg.FanIn
	if f == 0 {
		f = hierDefaultFanIn
	}
	if f < 2 {
		panic(fmt.Sprintf("barrier: hier fan-in %d < 2", f))
	}
	nGroups := (p + g - 1) / g
	h := &Hierarchical{
		p:         p,
		groupSize: g,
		fanIn:     f,
		groups:    make([]hierGroup, nGroups),
		members:   make([][]int, nGroups),
		groupOf:   make([]int, p),
		reps:      make([]hierRep, nGroups),
		contrib:   make([]paddedWord, p),
		local:     make([]paddedUint32, p),
		name:      cfg.Name,
	}
	if h.name == "" {
		h.name = fmt.Sprintf("hier-g%d", g)
	}
	for id := 0; id < p; id++ {
		c := id / g
		h.groupOf[id] = c
		h.members[c] = append(h.members[c], id)
	}
	maxSize := 0
	for c := range h.groups {
		h.groups[c].size = uint32(len(h.members[c]))
		if len(h.members[c]) > maxSize {
			maxSize = len(h.members[c])
		}
	}
	if nGroups > 1 {
		h.sched = model.FixedFanInSchedule(nGroups, f)
		levels := model.ScheduleLevels(nGroups, h.sched)
		for r, fr := range h.sched {
			groups := (levels[r] + fr - 1) / fr
			cnts := make([]fwayCounter, groups)
			for gi := range cnts {
				size := fr
				if rem := levels[r] - gi*fr; rem < size {
					size = rem
				}
				cnts[gi].size = uint32(size)
			}
			h.counters = append(h.counters, cnts)
			h.payload = append(h.payload, make([]paddedWord, levels[r]))
		}
	}
	// Wake-up levels: the representative release (level 0) exists only
	// with multiple groups; the group-line wake-down (the last level)
	// only where a group has members besides its representative.
	h.wakeLevels = 1
	if nGroups > 1 && maxSize > 1 {
		h.wakeLevels = 2
	}
	h.initWait(p, opts)
	return h
}

// Name implements Barrier.
func (h *Hierarchical) Name() string { return h.name }

// Participants implements Barrier.
func (h *Hierarchical) Participants() int { return h.p }

// GroupSize returns the resolved group size (after auto-derivation).
func (h *Hierarchical) GroupSize() int { return h.groupSize }

// PhaseShape implements PhaseProber: arrival level 0 is the group
// line, levels 1..len(sched) the representative tree rounds; wake-up
// level 0 is the representative release, the last level the group-line
// wake-down (they coincide with a single group or all-singleton
// groups).
func (h *Hierarchical) PhaseShape() (arrival, wakeup int) {
	return 1 + len(h.sched), h.wakeLevels
}

// Schedule reports the per-arrival-level fan-ins a drift scoreboard
// prices: the group size for level 0 (the FAA ladder the scoreboard's
// (f+α)·L term approximates), then the representative-tree fan-ins.
func (h *Hierarchical) Schedule() []int {
	out := make([]int, 0, 1+len(h.sched))
	out = append(out, h.groupSize)
	out = append(out, h.sched...)
	return out
}

// Wait implements Barrier.
func (h *Hierarchical) Wait(id int) {
	checkID(id, h.p, h.name)
	sense := 1 - h.local[id].v.Load()
	h.local[id].v.Store(sense)
	if h.p == 1 {
		return
	}
	c := h.groupOf[id]
	g := &h.groups[c]
	if g.size > 1 {
		if g.arrive.Add(1) != g.size {
			// Group loser: wait for the wake-down through the group line.
			h.phasePoint(id, PhaseArrival, 0)
			h.wait(id, &g.sense, sense)
			h.phasePoint(id, PhaseWakeup, h.wakeLevels-1)
			return
		}
		g.arrive.Store(0)
	}
	h.phasePoint(id, PhaseArrival, 0)
	// Group representative: climb the inter-group tree.
	idx := c
	for r := 0; r < len(h.sched); r++ {
		fr := h.sched[r]
		group := idx / fr
		cnt := &h.counters[r][group]
		if cnt.size > 1 {
			if cnt.v.Add(1) != cnt.size {
				h.phasePoint(id, PhaseArrival, 1+r)
				h.repWait(id, c, sense)
				h.phasePoint(id, PhaseWakeup, 0)
				h.releaseGroup(id, c, sense)
				return
			}
			cnt.v.Store(0)
		}
		h.phasePoint(id, PhaseArrival, 1+r)
		idx = group
	}
	// Champion: release the representatives, then the own group. With a
	// single group there is no representative stage and the group
	// signal is the whole notification phase.
	if len(h.groups) > 1 {
		h.repSignal(id, c, sense)
		h.phasePoint(id, PhaseWakeup, 0)
		h.releaseGroup(id, c, sense)
		return
	}
	h.releaseGroup(id, c, sense)
	h.phasePoint(id, PhaseWakeup, 0)
}

// repWait publishes participant id as group c's waiting representative
// and blocks on the global release. The publish happens before the
// flag poll and the champion's flag store happens before its slot
// read, the same store/load pairing the park protocol uses: either the
// champion sees the published id and wakes it, or the representative's
// next poll sees the release and never parks. A stale slot read wakes
// a participant that is not waiting — a spurious wake the park loop
// absorbs by re-checking its flag.
func (h *Hierarchical) repWait(id, c int, sense uint32) {
	h.reps[c].id.Store(int32(id) + 1)
	h.wait(id, &h.rsense.v, sense)
}

// repSignal is the champion's representative release: store the global
// sense, then wake exactly the representatives that published
// themselves — O(G) instead of a P-wide park-slot scan.
func (h *Hierarchical) repSignal(id, c int, sense uint32) {
	h.rsense.v.Store(sense)
	if h.parkSlots == nil {
		return
	}
	for rc := range h.reps {
		if rc == c {
			continue
		}
		if w := h.reps[rc].id.Load(); w != 0 {
			h.unpark(int(w) - 1)
		}
	}
}

// releaseGroup broadcasts the release down participant id's group
// line, waking any parked members.
func (h *Hierarchical) releaseGroup(id, c int, sense uint32) {
	if h.groups[c].size > 1 {
		h.signalGroup(&h.groups[c].sense, sense, h.members[c], id)
	}
}

// AllReduce implements Collective: partials are combined inside the
// group line first — every member publishes its word before its
// group-counter increment, so the representative's final increment
// orders all of them before its combine loop — then up the
// representative tree exactly as in the dynamic tournament, and the
// result rides the two release stages back down (champion word before
// the rsense store, group word before the group sense store). Combine
// order is ascending member/slot order, deterministic per shape.
//
// Slot reuse is safe without double buffering by the fway argument: a
// participant's round-r+1 contrib store happens after its round-r
// release, which happens after the representative's round-r combine
// read; the per-level payload slots and the result words are ordered
// the same way by the counter increments and sense stores between.
func (h *Hierarchical) AllReduce(id int, v uint64, op CombineFunc) uint64 {
	checkID(id, h.p, h.name)
	sense := 1 - h.local[id].v.Load()
	h.local[id].v.Store(sense)
	if h.p == 1 {
		return v
	}
	c := h.groupOf[id]
	g := &h.groups[c]
	w := v
	if g.size > 1 {
		h.contrib[id].v = w
		if g.arrive.Add(1) != g.size {
			h.wait(id, &g.sense, sense)
			return g.result
		}
		g.arrive.Store(0)
		mem := h.members[c]
		w = h.contrib[mem[0]].v
		for _, m := range mem[1:] {
			w = op(w, h.contrib[m].v)
		}
	}
	idx := c
	for r := 0; r < len(h.sched); r++ {
		fr := h.sched[r]
		group := idx / fr
		cnt := &h.counters[r][group]
		if cnt.size > 1 {
			h.payload[r][idx].v = w
			if cnt.v.Add(1) != cnt.size {
				h.repWait(id, c, sense)
				w = h.result.v
				h.deliverGroup(id, c, sense, w)
				return w
			}
			cnt.v.Store(0)
			lo := group * fr
			w = h.payload[r][lo].v
			for k := 1; k < int(cnt.size); k++ {
				w = op(w, h.payload[r][lo+k].v)
			}
		}
		idx = group
	}
	if len(h.groups) > 1 {
		h.result.v = w
		h.repSignal(id, c, sense)
	}
	h.deliverGroup(id, c, sense, w)
	return w
}

// deliverGroup writes the combined word into the group line and
// broadcasts the release down it, the fused variant of releaseGroup.
func (h *Hierarchical) deliverGroup(id, c int, sense uint32, w uint64) {
	g := &h.groups[c]
	if g.size > 1 {
		g.result = w
		h.signalGroup(&g.sense, sense, h.members[c], id)
	}
}

// Reduce implements Collective. The combined word is returned to every
// participant (the wake-down delivers it for free); root documents
// intent.
func (h *Hierarchical) Reduce(id, root int, v uint64, op CombineFunc) uint64 {
	checkID(root, h.p, h.name)
	return h.AllReduce(id, v, op)
}

// Broadcast implements Collective: the root publishes its word before
// its own arrival, the episode's release chain orders every read after
// that write, and readers pick the word up after release — double-
// buffered by sense because a round-r read can race a round-r+1 root
// write (see FWay.Broadcast for the full argument).
func (h *Hierarchical) Broadcast(id, root int, v uint64) uint64 {
	checkID(root, h.p, h.name)
	checkID(id, h.p, h.name)
	if h.p == 1 {
		return v
	}
	next := 1 - h.local[id].v.Load()
	if id == root {
		h.bcast[next].v = v
	}
	h.Wait(id)
	if id == root {
		return v
	}
	return h.bcast[next].v
}

var (
	_ Barrier     = (*Hierarchical)(nil)
	_ SpinCounter = (*Hierarchical)(nil)
	_ Collective  = (*Hierarchical)(nil)
	_ PhaseProber = (*Hierarchical)(nil)
)
