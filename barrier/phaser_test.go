package barrier

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// phArrived reads the in-flight round's arrival count (same-package
// test peek at the packed word).
func phArrived(b *Phaser) uint32 {
	_, a, _ := phUnpack(b.state.V.Load())
	return a
}

// registerN registers n parties on a fresh phaser and returns them;
// ids are 0..n-1 (smallest-free-slot allocation).
func registerN(t *testing.T, b *Phaser, n int) []*Party {
	t.Helper()
	parties := make([]*Party, n)
	for i := range parties {
		p, err := b.Register()
		if err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		if p.ID() != i {
			t.Fatalf("Register %d got slot %d, want %d", i, p.ID(), i)
		}
		parties[i] = p
	}
	return parties
}

func partyIDs(parties []*Party) []int {
	ids := make([]int, len(parties))
	for i, p := range parties {
		ids[i] = p.ID()
	}
	return ids
}

func TestPhaserSynchronizesAllPolicies(t *testing.T) {
	for _, pol := range []WaitPolicy{SpinWait(), SpinYieldWait(), SpinParkWait()} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			const p, episodes = 4, 200
			b := NewPhaser(p, WithWaitPolicy(pol))
			parties := registerN(t, b, p)
			// The classic lockstep check: per-participant round counters
			// must never drift by more than one episode.
			counters := make([]atomic.Uint64, p)
			RunIDs(b, partyIDs(parties), func(id int) {
				for e := 0; e < episodes; e++ {
					counters[id].Add(1)
					b.Wait(id)
					mine := counters[id].Load()
					for other := range counters {
						got := counters[other].Load()
						if got+1 < mine || got > mine+1 {
							t.Errorf("policy %v: after episode %d participant %d sees %d at %d, own %d",
								pol, e, id, got, other, mine)
							return
						}
					}
				}
			})
			if got := b.Phase(); got != episodes {
				t.Errorf("Phase() = %d, want %d", got, episodes)
			}
		})
	}
}

func TestPhaserSingleParty(t *testing.T) {
	b := NewPhaser(4)
	p, err := b.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Wait() // sole member: every Wait resolves immediately
	}
	if got := b.Phase(); got != 100 {
		t.Fatalf("Phase() = %d, want 100", got)
	}
}

func TestPhaserRegisteredAndIsMember(t *testing.T) {
	b := NewPhaser(8)
	if got := b.Registered(); got != 0 {
		t.Fatalf("fresh phaser Registered() = %d, want 0", got)
	}
	parties := registerN(t, b, 3)
	if got := b.Registered(); got != 3 {
		t.Fatalf("Registered() = %d, want 3", got)
	}
	if !b.IsMember(1) || b.IsMember(3) || b.IsMember(-1) || b.IsMember(99) {
		t.Fatal("IsMember wrong for registered/unregistered/out-of-range slots")
	}
	parties[1].Deregister()
	if b.IsMember(1) {
		t.Fatal("IsMember(1) true after Deregister")
	}
	if got := b.Registered(); got != 2 {
		t.Fatalf("Registered() = %d after deregister, want 2", got)
	}
	// Slot 1 is the smallest free slot again.
	p, err := b.Register()
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != 1 {
		t.Fatalf("re-Register got slot %d, want recycled slot 1", p.ID())
	}
}

func TestPhaserCapacityExhausted(t *testing.T) {
	b := NewPhaser(2)
	registerN(t, b, 2)
	if _, err := b.Register(); !errors.Is(err, ErrPhaserFull) {
		t.Fatalf("Register beyond capacity: err = %v, want ErrPhaserFull", err)
	}
}

// TestPhaserRegisterMidRoundWaitsForNextEpoch: a party joining while a
// round is in flight must not count toward (or block) that round; its
// first Wait returns at that round's resolution and it participates
// for real from the next epoch.
func TestPhaserRegisterMidRoundWaitsForNextEpoch(t *testing.T) {
	b := NewPhaser(4)
	parties := registerN(t, b, 2)
	_ = parties

	aDone := make(chan struct{})
	go func() { // party 0 arrives; round 0 is now in flight
		b.Wait(0)
		close(aDone)
	}()
	for phArrived(b) == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	c, err := b.Register() // mid-round joiner
	if err != nil {
		t.Fatal(err)
	}
	cDone := make(chan struct{})
	go func() {
		c.Wait()
		close(cDone)
	}()

	select {
	case <-aDone:
		t.Fatal("round 0 resolved before party 1 arrived")
	case <-cDone:
		t.Fatal("mid-round joiner's Wait returned before round 0 resolved")
	case <-time.After(10 * time.Millisecond):
	}

	b.Wait(1) // party 1 completes round 0 — without the joiner arriving
	<-aDone
	<-cDone

	// Round 1 must now require all three.
	done := make(chan int, 3)
	go func() { b.Wait(0); done <- 0 }()
	go func() { b.Wait(1); done <- 1 }()
	select {
	case id := <-done:
		t.Fatalf("round 1 resolved for %d without the joiner's arrival", id)
	case <-time.After(10 * time.Millisecond):
	}
	c.Wait()
	<-done
	<-done
	if got := b.Phase(); got != 2 {
		t.Fatalf("Phase() = %d, want 2", got)
	}
}

// TestPhaserDeregisterAbsorbsPendingArrival: when every remaining
// party has arrived, a deregistration completes the round instead of
// wedging it.
func TestPhaserDeregisterAbsorbsPendingArrival(t *testing.T) {
	b := NewPhaser(4)
	parties := registerN(t, b, 3)
	var done sync.WaitGroup
	done.Add(2)
	go func() { defer done.Done(); b.Wait(0) }()
	go func() { defer done.Done(); b.Wait(1) }()
	for phArrived(b) != 2 {
		time.Sleep(50 * time.Microsecond)
	}
	parties[2].Deregister() // the leaver is the last "arrival"
	done.Wait()
	if got := b.Phase(); got != 1 {
		t.Fatalf("Phase() = %d after absorbing deregister, want 1", got)
	}
	// The surviving pair still works.
	done.Add(2)
	go func() { defer done.Done(); b.Wait(0) }()
	go func() { defer done.Done(); b.Wait(1) }()
	done.Wait()
}

// TestPhaserDeregisterFreesSlotBeforeRelease: a waiter released by the
// round a Deregister resolves registers at once and must be handed the
// departed slot — omp.Team.Resize shrinks and grows back to back
// and relies on slots allocating in tid order.
func TestPhaserDeregisterFreesSlotBeforeRelease(t *testing.T) {
	const iters = 20000
	b := NewPhaser(3)
	parties := registerN(t, b, 2)
	stayer, leaver := parties[0], parties[1]
	wrong := 0
	for i := 0; i < iters; i++ {
		got := make(chan *Party)
		go func() {
			stayer.Wait()
			p, err := b.Register()
			if err != nil {
				t.Errorf("iteration %d: Register: %v", i, err)
			}
			got <- p
		}()
		for phArrived(b) == 0 {
			runtime.Gosched()
		}
		leaver.Deregister() // resolves the stayer's round
		if leaver = <-got; leaver == nil {
			return
		}
		if leaver.ID() != 1 {
			// Deregister has returned by now, so slot 1 is free.
			wrong++
			leaver.Deregister()
			var err error
			if leaver, err = b.Register(); err != nil || leaver.ID() != 1 {
				t.Fatalf("iteration %d: retry got %v, %v; want slot 1", i, leaver, err)
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d re-registrations after a release were handed a slot other than the departed one", wrong, iters)
	}
}

// TestPhaserMidRoundJoinerDeregistersBeforeWaiting: a mid-round
// registration pre-claims an arrival; deregistering before ever
// waiting must withdraw the claim without resolving the round.
func TestPhaserMidRoundJoinerDeregistersBeforeWaiting(t *testing.T) {
	b := NewPhaser(4)
	registerN(t, b, 2)
	done := make(chan struct{})
	go func() { b.Wait(0); close(done) }()
	for phArrived(b) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	c, err := b.Register()
	if err != nil {
		t.Fatal(err)
	}
	c.Deregister()
	select {
	case <-done:
		t.Fatal("withdrawing a claim resolved the round")
	case <-time.After(10 * time.Millisecond):
	}
	b.Wait(1)
	<-done
	if got := b.Registered(); got != 2 {
		t.Fatalf("Registered() = %d, want 2", got)
	}
}

func TestPhaserDeadlineTimesOutAndPoisons(t *testing.T) {
	b := NewPhaser(4)
	parties := registerN(t, b, 2)
	_ = parties
	err := b.WaitDeadline(0, 5*time.Millisecond) // party 1 never arrives
	if err == nil {
		t.Fatal("WaitDeadline with a missing peer returned nil")
	}
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("err = %v, want ErrWaitTimeout", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.ID != 0 || te.Barrier != "phaser" {
		t.Fatalf("TimeoutError = %+v", te)
	}
	if !b.Poisoned() {
		t.Fatal("phaser not poisoned after timeout")
	}
	if _, err := b.Register(); !errors.Is(err, ErrPhaserPoisoned) {
		t.Fatalf("Register on poisoned phaser: err = %v, want ErrPhaserPoisoned", err)
	}
}

func TestPhaserDeadlineCompletesInTime(t *testing.T) {
	b := NewPhaser(2)
	parties := registerN(t, b, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		parties[1].Wait()
	}()
	if err := b.WaitDeadline(0, time.Second); err != nil {
		t.Fatalf("WaitDeadline: %v", err)
	}
	wg.Wait()
	if b.Poisoned() {
		t.Fatal("completed bounded wait poisoned the phaser")
	}
}

// TestPhaserRegisterAfterResolvingCAS registers a party between a
// round's resolving CAS and the release that follows it. Register must
// not return before the release shows, and the new party's first Wait
// must then wait for the party already registered.
func TestPhaserRegisterAfterResolvingCAS(t *testing.T) {
	b := NewPhaser(2)
	registerN(t, b, 1)
	// Party 0 resolves round 0 alone: the CAS lands, the sense flip has
	// not happened yet.
	w := b.state.V.Load()
	e, _, n := phUnpack(w)
	if !b.state.V.CompareAndSwap(w, phPack(e+1, 0, n)) {
		t.Fatal("state moved under the test")
	}
	b.slots[0].gen = 1
	joined := make(chan *Party, 1)
	go func() {
		p, err := b.Register()
		if err != nil {
			t.Error(err)
		}
		joined <- p
	}()
	for {
		if _, _, n2 := phUnpack(b.state.V.Load()); n2 == n+1 {
			break // the registration CAS landed
		}
		runtime.Gosched()
	}
	select {
	case <-joined:
		t.Fatal("Register returned before the resolved round's release")
	case <-time.After(20 * time.Millisecond):
	}
	b.resolve(0, 0)
	p := <-joined
	released := make(chan struct{})
	go func() {
		p.Wait()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("the new party passed round 1 without party 0")
	case <-time.After(20 * time.Millisecond):
	}
	b.Wait(0)
	<-released
}

// TestPhaserMidRoundRegisterAfterRoundResolves lets the other parties
// resolve the round a mid-round registration joined between its
// membership CAS and its return. Register must still return, and the
// new party must then take part in the following rounds.
func TestPhaserMidRoundRegisterAfterRoundResolves(t *testing.T) {
	b := NewPhaser(3)
	parties := registerN(t, b, 2)
	waited := make(chan struct{})
	go func() {
		b.Wait(0)
		close(waited)
	}()
	for {
		if _, a, _ := phUnpack(b.state.V.Load()); a == 1 {
			break // party 0 has arrived at round 0
		}
		runtime.Gosched()
	}
	id, err := b.join()
	if err != nil {
		t.Fatal(err)
	}
	if !b.slots[id].pending {
		t.Fatal("a registration during round 0 did not claim an arrival")
	}
	b.Wait(1) // the last arrival: round 0 resolves without the newcomer
	<-waited
	admitted := make(chan struct{})
	go func() {
		b.admit(id)
		close(admitted)
	}()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Register did not return after the round it joined resolved")
	}
	p := &Party{ph: b, id: id}
	p.Wait() // its claimed round 0, already resolved
	const episodes = 50
	parties = append(parties, p)
	RunIDs(b, partyIDs(parties), func(id int) {
		for e := 0; e < episodes; e++ {
			b.Wait(id)
		}
	})
	if got := b.Phase(); got != 1+episodes {
		t.Fatalf("Phase() = %d, want %d", got, 1+episodes)
	}
}

// TestPhaserChurnReuse exercises many rounds with registration churn
// between them: the generation counters and the wrapping 16-bit epoch
// must stay consistent across slot reuse.
func TestPhaserChurnReuse(t *testing.T) {
	const steady, episodes = 3, 300
	b := NewPhaser(steady + 2)
	parties := registerN(t, b, steady)
	stop := make(chan struct{})
	var churns atomic.Uint64
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, err := b.Register()
			if err != nil {
				t.Errorf("churn Register: %v", err)
				return
			}
			p.Wait() // ride one round as a full participant
			p.Deregister()
			churns.Add(1)
		}
	}()
	RunIDs(b, partyIDs(parties), func(id int) {
		for e := 0; e < episodes; e++ {
			b.Wait(id)
		}
		// Leave instead of just going silent: a fixed barrier would
		// wedge the churner here; deregistering hands the rounds over.
		parties[id].Deregister()
	})
	close(stop)
	churnWG.Wait()
	if b.Phase() < episodes {
		t.Fatalf("Phase() = %d, want >= %d", b.Phase(), episodes)
	}
	regs, deregs := b.MembershipCounts()
	want := churns.Load()
	if regs < want+steady || deregs < want {
		t.Fatalf("MembershipCounts = (%d, %d), want >= (%d, %d)", regs, deregs, want+steady, want)
	}
}

// TestPhaserEpochWrap drives more rounds than the 16-bit packed epoch
// can hold; generation distance never exceeding 1 makes the wrap safe.
func TestPhaserEpochWrap(t *testing.T) {
	if testing.Short() {
		t.Skip("70k episodes")
	}
	const episodes = 1<<16 + 1024
	b := NewPhaser(2)
	parties := registerN(t, b, 2)
	RunIDs(b, partyIDs(parties), func(id int) {
		for e := 0; e < episodes; e++ {
			b.Wait(id)
		}
	})
	if got := b.Phase(); got != episodes {
		t.Fatalf("Phase() = %d, want %d", got, episodes)
	}
}

func TestPhaserWatchdogMembershipAware(t *testing.T) {
	b := NewPhaser(4)
	parties := registerN(t, b, 3)
	wd := NewWatchdog(b, WatchdogConfig{Deadline: 5 * time.Millisecond})
	parties[2].Deregister()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wd.Wait(0) // party 1 stalls; 2 is deregistered
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, stalled := wd.Check()
		if stalled {
			if len(st.Missing) != 1 || st.Missing[0] != 1 {
				t.Errorf("Missing = %v, want [1] (slot 2 deregistered, slot 3 never registered)", st.Missing)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never reported the stall")
		}
		time.Sleep(time.Millisecond)
	}
	wd.Wait(1)
	wg.Wait()
}

// TestWatchdogMembershipDelegation: a phaser's membership is reachable
// through its watchdog; a fixed barrier's watchdog has none, and all of
// its participants are members.
func TestWatchdogMembershipDelegation(t *testing.T) {
	b := NewPhaser(4)
	registerN(t, b, 2)
	wd := NewWatchdog(b, WatchdogConfig{Deadline: time.Second})
	m, ok := Unwrap[Membership](wd)
	if !ok {
		t.Fatal("no Membership behind the watchdog")
	}
	if got := m.Registered(); got != 2 {
		t.Fatalf("watchdog Registered() = %d, want 2", got)
	}
	if !m.IsMember(0) || m.IsMember(2) {
		t.Fatal("watchdog IsMember does not reach the phaser")
	}
	fixed := NewWatchdog(NewCentral(3), WatchdogConfig{Deadline: time.Second})
	if _, ok := Unwrap[Membership](fixed); ok {
		t.Fatal("fixed watchdog reports elastic membership")
	}
	if got := fixed.Participants(); got != 3 {
		t.Fatalf("fixed watchdog Participants() = %d, want 3", got)
	}
}

func TestPhaserWaitUnregisteredPanics(t *testing.T) {
	b := NewPhaser(2)
	registerN(t, b, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Wait on an unregistered slot did not panic")
		}
	}()
	b.Wait(1)
}

func TestPhaserDoubleDeregisterPanics(t *testing.T) {
	b := NewPhaser(2)
	p := registerN(t, b, 1)[0]
	p.Deregister()
	defer func() {
		if recover() == nil {
			t.Fatal("double Deregister did not panic")
		}
	}()
	p.Deregister()
}

func TestPhaserSpinAndParkCounters(t *testing.T) {
	b := NewPhaser(2, WithWaitPolicy(SpinParkWait()))
	parties := registerN(t, b, 2)
	b.EnableSpinCounts()
	RunIDs(b, partyIDs(parties), func(id int) {
		for e := 0; e < 50; e++ {
			if id == 1 {
				time.Sleep(100 * time.Microsecond) // make 0 wait
			}
			b.Wait(id)
		}
	})
	spins0, _ := b.SpinCounts(0)
	spins1, _ := b.SpinCounts(1)
	if spins0+spins1 == 0 {
		t.Error("no spins recorded across 50 skewed episodes")
	}
}

func TestPhaserSlotPadded(t *testing.T) {
	if got := unsafe.Sizeof(phaserSlot{}); got%cacheLine != 0 {
		t.Fatalf("phaserSlot is %d bytes, want a multiple of %d", got, cacheLine)
	}
	slots := make([]phaserSlot, 3)
	for i := 1; i < len(slots); i++ {
		a := uintptr(unsafe.Pointer(&slots[i-1]))
		c := uintptr(unsafe.Pointer(&slots[i]))
		if c-a < cacheLine {
			t.Fatalf("phaser slots %d bytes apart, want >= %d", c-a, cacheLine)
		}
	}
}

func TestPhaserSteadyStateDoesNotAllocate(t *testing.T) {
	b := NewPhaser(4)
	parties := registerN(t, b, 4)
	ids := partyIDs(parties)
	RunIDs(b, ids, func(id int) {
		for e := 0; e < 10; e++ {
			b.Wait(id)
		}
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	RunIDs(b, ids, func(id int) {
		for e := 0; e < 2000; e++ {
			b.Wait(id)
		}
	})
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 200 {
		t.Errorf("phaser: %d allocations over 8000 Waits — hot path allocates", got)
	}
}

func TestPhaserPackedWordRoundTrips(t *testing.T) {
	for _, tc := range [][3]uint32{
		{0, 0, 0},
		{1, 2, 3},
		{phEpochMask, phCountMask, phCountMask},
		{1 << 15, 12345, 54321},
	} {
		e, a, n := phUnpack(phPack(tc[0], tc[1], tc[2]))
		if e != tc[0]&phEpochMask || a != tc[1]&phCountMask || n != tc[2]&phCountMask {
			t.Fatalf("pack/unpack(%v) = (%d,%d,%d)", tc, e, a, n)
		}
	}
}
