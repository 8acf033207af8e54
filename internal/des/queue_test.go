package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// Equivalence of the compacting event queue with a lazy one. refKernel is
// the kernel as it was before dead records left the queue: a binary heap
// in which a cancelled record stays until it is popped and skipped. The
// same seeded scenario drives both kernels, and everything it can observe
// must match: the firing log with each event's time and schedule order,
// Events(), Now() and every Run/RunUntil result.

// step is what a scenario process does when it resumes: sleep d (under
// SleepWhile when idle is set), park for good, or finish.
type step struct {
	d     Duration
	idle  func() bool
	park  bool
	final bool
}

// kernel is the surface the scenario drives.
type kernel interface {
	Now() Time
	Events() uint64
	Schedule(at Time, fn func()) (cancel func())
	ScheduleFunc(at Time, fn func())
	spawn(next func() step)
	RunUntil(deadline Time) error
	Run() error
}

// envKernel is the real kernel; it counts the cancels that compacted.
type envKernel struct {
	*Env
	compactions *int
}

func (k envKernel) Schedule(at Time, fn func()) func() {
	cancel := k.Env.Schedule(at, fn)
	return func() {
		dead := k.dead
		cancel()
		if k.dead < dead {
			*k.compactions++
		}
	}
}

func (k envKernel) spawn(next func() step) {
	k.Spawn("scripted", func(p *Proc) {
		for {
			switch s := next(); {
			case s.final:
				return
			case s.park:
				p.Park()
			case s.idle != nil:
				p.SleepWhile(s.d, s.idle)
			default:
				p.Sleep(s.d)
			}
		}
	})
}

type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	proc      func() step // resumes a process
	idle      func() bool
	every     Duration
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

type refKernel struct {
	now      Time
	seq      uint64
	q        refHeap
	executed uint64
	nprocs   int
}

func (k *refKernel) Now() Time      { return k.now }
func (k *refKernel) Events() uint64 { return k.executed }

func (k *refKernel) push(ev *refEvent) *refEvent {
	if ev.at < k.now {
		ev.at = k.now
	}
	ev.seq = k.seq
	k.seq++
	heap.Push(&k.q, ev)
	return ev
}

func (k *refKernel) Schedule(at Time, fn func()) func() {
	ev := k.push(&refEvent{at: at, fn: fn})
	return func() { ev.cancelled = true }
}

func (k *refKernel) ScheduleFunc(at Time, fn func()) { k.push(&refEvent{at: at, fn: fn}) }

func (k *refKernel) spawn(next func() step) {
	k.nprocs++
	k.push(&refEvent{at: k.now, proc: next})
}

// resume runs a process until it blocks again, as Proc's primitives would.
func (k *refKernel) resume(next func() step) {
	switch s := next(); {
	case s.final:
		k.nprocs--
	case s.park:
	case s.idle != nil:
		k.push(&refEvent{at: k.now.Add(s.d), proc: next, idle: s.idle, every: s.d})
	default:
		k.push(&refEvent{at: k.now.Add(s.d), proc: next})
	}
}

func (k *refKernel) Run() error { return k.RunUntil(math.MaxInt64) }

func (k *refKernel) RunUntil(deadline Time) error {
	for {
		if len(k.q) == 0 {
			if k.nprocs > 0 {
				return fmt.Errorf("des: deadlock: %d process(es) blocked with no pending events", k.nprocs)
			}
			return nil
		}
		if k.q[0].at > deadline {
			return nil
		}
		ev := heap.Pop(&k.q).(*refEvent)
		if ev.cancelled {
			continue
		}
		k.now = ev.at
		k.executed++
		switch {
		case ev.idle != nil && ev.idle():
			ev.at = k.now.Add(ev.every)
			k.push(ev)
		case ev.proc != nil:
			k.resume(ev.proc)
		default:
			ev.fn()
		}
	}
}

// scenario drives k with a random mix seeded by seed and returns what it
// observed. Handles are kept and cancelled at random, often long after
// their event fired or after an earlier cancel; bursts of 1 s timers are
// cancelled wholesale, which is what makes the real queue compact. Bursts
// at the current instant, from callbacks, processes and between runs, land
// on the real queue's ready list ahead of and behind heap records at the
// same time, and are cancelled there too; some RunUntil deadlines lie below
// Now(), so a run stops with records due at the current instant pending.
func scenario(k kernel, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var handles []func()
	tags := 0
	procs := 0
	note := func(tag int) { log = append(log, fmt.Sprintf("%d@%v #%d", tag, k.Now(), k.Events())) }
	var act func()
	act = func() {
		tag := tags
		tags++
		switch r := rng.Intn(24); {
		case r < 7:
			at := k.Now().Add(Duration(rng.Intn(1500)) * time.Millisecond)
			handles = append(handles, k.Schedule(at, func() {
				note(tag)
				if rng.Intn(3) == 0 {
					act()
				}
			}))
		case r < 12:
			if len(handles) > 0 {
				handles[rng.Intn(len(handles))]()
			}
		case r < 16:
			k.ScheduleFunc(k.Now().Add(Duration(rng.Intn(40))*time.Millisecond), func() {
				note(tag)
				if rng.Intn(2) == 0 {
					act()
				}
			})
		case r < 18:
			n := 20 + rng.Intn(80)
			for i := 0; i < n; i++ {
				handles = append(handles, k.Schedule(k.Now().Add(time.Second), func() { note(tag) }))
			}
			for _, c := range handles[len(handles)-rng.Intn(n+1):] {
				c()
			}
		case r < 20:
			n := 1 + rng.Intn(40)
			for i := 0; i < n; i++ {
				handles = append(handles, k.Schedule(k.Now(), func() {
					note(tag)
					if rng.Intn(4) == 0 {
						act()
					}
				}))
			}
			for _, c := range handles[len(handles)-rng.Intn(n+1):] {
				c()
			}
		case r < 22:
			k.ScheduleFunc(k.Now(), func() {
				note(tag)
				if rng.Intn(3) == 0 {
					act()
				}
			})
		default:
			if procs >= 12 {
				return
			}
			procs++
			left := rng.Intn(30)
			k.spawn(func() step {
				note(tag)
				for i := rng.Intn(3); i > 0; i-- {
					act()
				}
				d := Duration(rng.Intn(21)) * time.Millisecond
				switch left--; {
				case left < 0 && rng.Intn(4) == 0:
					return step{park: true}
				case left < 0:
					return step{final: true}
				case d > 0 && rng.Intn(4) == 0:
					quiet := rng.Intn(5)
					return step{d: d, idle: func() bool { quiet--; return quiet >= 0 }}
				}
				return step{d: d}
			})
		}
	}
	for round := 0; round < 60; round++ {
		for i := rng.Intn(6); i > 0; i-- {
			act()
		}
		deadline := k.Now().Add(Duration(rng.Intn(200)-20) * time.Millisecond)
		if rng.Intn(4) == 0 {
			deadline = k.Now() - Time(1+rng.Intn(1000))
		}
		err := k.RunUntil(deadline)
		log = append(log, fmt.Sprintf("RunUntil(%v) = %v at %v, %d events", deadline, err, k.Now(), k.Events()))
	}
	err := k.Run()
	log = append(log, fmt.Sprintf("Run() = %v at %v, %d events", err, k.Now(), k.Events()))
	return log
}

func TestCompactingQueueMatchesLazyHeap(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 40; seed++ {
		ref := scenario(&refKernel{}, seed)
		e := NewEnv()
		got := scenario(envKernel{e, &compactions}, seed)
		e.Shutdown()
		if !reflect.DeepEqual(got, ref) {
			for i := range ref {
				if i >= len(got) || got[i] != ref[i] {
					t.Fatalf("seed %d, entry %d: compacting queue %q, lazy heap %q", seed, i, got[min(i, len(got)-1)], ref[i])
				}
			}
			t.Fatalf("seed %d: compacting queue logged %d entries, lazy heap %d", seed, len(got), len(ref))
		}
	}
	if compactions == 0 {
		t.Fatal("no scenario compacted the queue")
	}
}

// FuzzQueueMatchesLazyHeap runs the scenario for any seed against the
// reference lazy heap.
func FuzzQueueMatchesLazyHeap(f *testing.F) {
	for seed := int64(41); seed <= 48; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		ref := scenario(&refKernel{}, seed)
		e := NewEnv()
		got := scenario(envKernel{e, new(int)}, seed)
		e.Shutdown()
		for i := range ref {
			if i >= len(got) || got[i] != ref[i] {
				t.Fatalf("seed %d, entry %d: queue %q, lazy heap %q", seed, i, got[min(i, len(got)-1)], ref[i])
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("seed %d: queue logged %d entries, lazy heap %d", seed, len(got), len(ref))
		}
	})
}

// TestDeadHeadLeavesClockAtLastLiveEvent: a cancelled record at the head
// of the heap is dropped without moving the clock, so RunUntil leaves
// Now() at the last live event, and a record scheduled for that instant
// afterwards still fires there. A dead record ahead of a live one at the
// same time does not keep the live one from firing at its time.
func TestDeadHeadLeavesClockAtLastLiveEvent(t *testing.T) {
	ms := Time(time.Millisecond)
	for _, k := range []kernel{&refKernel{}, envKernel{NewEnv(), new(int)}} {
		var log []string
		note := func(s string) func() { return func() { log = append(log, fmt.Sprintf("%s@%v", s, k.Now())) } }
		k.Schedule(1*ms, note("a"))
		k.Schedule(5*ms, note("dead"))()
		k.Schedule(7*ms, note("dead"))()
		k.Schedule(7*ms, note("b"))
		if err := k.RunUntil(6 * ms); err != nil {
			t.Fatal(err)
		}
		if k.Now() != 1*ms || k.Events() != 1 {
			t.Fatalf("%T: RunUntil(6ms) left Now() = %v after %d events, want 1ms after 1", k, k.Now(), k.Events())
		}
		k.ScheduleFunc(k.Now(), note("c"))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if want := []string{"a@1ms", "c@1ms", "b@7ms"}; !reflect.DeepEqual(log, want) {
			t.Fatalf("%T: fired %v, want %v", k, log, want)
		}
		if ek, ok := k.(envKernel); ok {
			ek.Shutdown()
		}
	}
}

// TestCompactSweepsReadyList: cancels at the current instant compact the
// ready list as well as the heap, and the list keeps its order. The one
// dead record compaction keeps is the heap's latest when the heap holds a
// dead record, and the list's last otherwise. When it is all that is left,
// with a process parked for good, a RunUntil whose deadline lies below
// Now() still stops cleanly, and Run reports the deadlock.
func TestCompactSweepsReadyList(t *testing.T) {
	for _, c := range []struct {
		heapDead bool
		live     []int // records at the instant left uncancelled
	}{
		{false, []int{3, 20}},
		{true, []int{3, 20}},
		{false, nil},
	} {
		e := NewEnv()
		e.Spawn("parked", func(p *Proc) { p.Park() })
		e.RunUntil(0) // the process parks; the drained queue reports it
		var fired []int
		var cancels []func()
		if c.heapDead {
			cancels = append(cancels, e.Schedule(Time(time.Second), func() { t.Fatal("cancelled event fired") }))
		}
		// compactFloor+1 cancels, the last of which compacts.
		n := compactFloor + 1 + len(c.live) - len(cancels)
		first := len(cancels)
		for i := 0; i < n; i++ {
			i := i
			cancels = append(cancels, e.Schedule(0, func() { fired = append(fired, i) }))
		}
		compactions := 0
		for i, cancel := range cancels {
			if slices.Contains(c.live, i-first) {
				continue
			}
			dead := e.dead
			cancel()
			if e.dead < dead {
				compactions++
			}
		}
		// The live records and one dead, on the list unless the heap held one.
		ready, wantReady := len(e.queue.ready)-e.queue.head, len(c.live)+1
		if c.heapDead {
			wantReady--
		}
		if compactions != 1 || e.queue.len() != len(c.live)+1 || ready != wantReady {
			t.Fatalf("%+v: %d compactions leave %d records, %d of them ready; want 1 leaving %d, %d ready",
				c, compactions, e.queue.len(), ready, len(c.live)+1, wantReady)
		}
		if err := e.RunUntil(e.Now() - 1); err != nil || len(fired) != 0 {
			t.Fatalf("%+v: RunUntil below Now() = %v, fired %v", c, err, fired)
		}
		if err := e.Run(); err == nil {
			t.Fatalf("%+v: Run with a parked process returned nil", c)
		}
		if !slices.Equal(fired, c.live) {
			t.Fatalf("%+v: fired %v", c, fired)
		}
		e.Shutdown()
	}
}

// TestOnlyDeadRecordsPastDeadline pins the edge compaction must keep: a
// queue holding only cancelled records, some later than the deadline, ends
// RunUntil cleanly, even with a process parked for good; draining it with
// Run then reports the deadlock. One more cancel than the floor compacts
// the real queue down to the spawn and the one dead record it keeps, which
// must be the latest: the timers span 0-2 s around a 1 s deadline.
func TestOnlyDeadRecordsPastDeadline(t *testing.T) {
	compactions := 0
	for _, k := range []kernel{&refKernel{}, envKernel{NewEnv(), &compactions}} {
		k.spawn(func() step { return step{park: true} })
		var cancels []func()
		for i := 0; i <= compactFloor; i++ {
			at := Time(i) * Time(2*time.Second) / compactFloor
			cancels = append(cancels, k.Schedule(at, func() { t.Fatal("cancelled event fired") }))
		}
		for _, c := range cancels {
			c()
		}
		if ek, ok := k.(envKernel); ok && (ek.queue.len() != 2 || compactions != 1) {
			t.Fatalf("queue holds %d records after %d compactions, want 2 after 1", ek.queue.len(), compactions)
		}
		if err := k.RunUntil(Time(time.Second)); err != nil {
			t.Fatalf("%T: RunUntil over dead records = %v, want nil", k, err)
		}
		if err := k.Run(); err == nil {
			t.Fatalf("%T: Run with a parked process returned nil", k)
		}
		if ek, ok := k.(envKernel); ok {
			ek.Shutdown()
		}
	}
}

// TestQueueHoldsOnlyLiveEvents arms and cancels 1 s timers against k live
// events: the queue never holds more than 2k records plus the floor.
func TestQueueHoldsOnlyLiveEvents(t *testing.T) {
	for _, k := range []int{1, 8, 100, 1000} {
		e := NewEnv()
		nop := func() {}
		for i := 0; i < k-1; i++ {
			var tick func()
			tick = func() { e.ScheduleFunc(e.Now().Add(time.Microsecond), tick) }
			e.ScheduleFunc(Time(i), tick)
		}
		peak := 0
		e.Spawn("arm", func(p *Proc) {
			for i := 0; i < 4*(k+compactFloor); i++ {
				cancel := e.Schedule(e.Now().Add(time.Second), nop)
				cancel()
				peak = max(peak, e.queue.len())
				p.Sleep(time.Microsecond)
			}
			e.Halt()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if bound := 2*k + compactFloor; peak > bound {
			t.Fatalf("k=%d: queue peaked at %d records, bound %d", k, peak, bound)
		}
		e.Shutdown()
	}
}

func TestScheduleCancelAllocatesOnlyItsHandle(t *testing.T) {
	e := NewEnv()
	nop := func() {}
	cycle := func() {
		cancel := e.Schedule(e.Now().Add(time.Second), nop)
		cancel()
	}
	for i := 0; i < 1000; i++ {
		cycle() // grow the queue and the pool to their steady size
	}
	if n := testing.AllocsPerRun(1000, cycle); n > 1 {
		t.Fatalf("Schedule+cancel allocates %v per cycle, want at most the handle closure", n)
	}
}

// TestRunUntilAllocatesNothing steps a self-rescheduling callback through
// many RunUntil calls, the stepped-run idiom of the open-loop driver.
func TestRunUntilAllocatesNothing(t *testing.T) {
	e := NewEnv()
	var tick func()
	tick = func() { e.ScheduleFunc(e.Now().Add(time.Microsecond), tick) }
	e.ScheduleFunc(0, tick)
	step := func() {
		if err := e.RunUntil(e.Now().Add(10 * time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("RunUntil allocates %v per call, want 0", n)
	}
}
