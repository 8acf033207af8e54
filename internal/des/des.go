// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel provides virtual time, an event queue, coroutine-backed
// simulated processes, and FIFO resources (used to model CPUs and other
// serially shared hardware). Exactly one goroutine — the Run caller or a
// single simulated process — runs at any instant, so simulated code
// needs no locking and every run is reproducible: events that share a
// timestamp fire in the order they were scheduled.
//
// A simulated process is an ordinary function executing on its own
// coroutine. It advances virtual time only through the blocking primitives
// on *Proc (Sleep, Acquire, FIFO.Get, …); pure computation between those
// calls is instantaneous in virtual time. This lets functional behaviour
// (moving real bytes, probing real hash tables) be written as straight-line
// Go while the timing model stays explicit.
//
// # Scheduling fast path
//
// Each process is a runtime coroutine (iter.Pull), not a goroutine parked
// on a channel, and there is no dedicated scheduler goroutine. The event
// loop runs on whichever coroutine last blocked: a process that calls
// Sleep pops and executes events itself until one of them resumes it (no
// switch at all for a self-wake) or resumes another process. In the
// second case it names the target in Env.handoff and yields to Run's
// goroutine, a trampoline that resumes the target: two coroutine switches,
// with no scheduler or futex involved. Event records are pooled and carry
// either a bare callback or a process pointer, so the hot Sleep/WakeOne
// paths allocate nothing. None of this changes virtual-time results:
// events still fire in (time, schedule-order) order, only the coroutine
// executing the loop differs.
//
// A panic inside a process reaches Run's caller with the same value, since
// iter.Pull re-raises it in whoever resumed the coroutine; the process's
// original stack is lost. A process that exits through runtime.Goexit (as
// t.Fatal does) stays parked for good instead, so the Goexit does not
// unwind Run's caller.
//
// Only live events stay in the queue. Most timers are disarmed long before
// they are due (every non-blocking remote read arms one), so a cancel
// handle counts the dead records it leaves behind, and once they outnumber
// the live ones the queue drops them and re-heapifies in place. Since
// (time, sequence) is a total order, any heap of the same live records
// pops them in the same order.
//
// A hand-off still costs two coroutine switches, a few hundred nanoseconds
// of host time against tens of nanoseconds for a callback, so the
// invariant above the kernel is that a process resumes only where it needs
// process context. Per-cell and per-tick work runs as callbacks instead,
// and every callback form takes the sequence numbers the process would
// have taken, so event order and Events() do not change when a process
// loop becomes a state machine:
//
//   - WaitQueue.WaitFunc, FIFO.OnItem and FIFO.OnSpace park a callback
//     where a process would block in Wait, Get or Put;
//   - Resource.AcquireFunc queues a callback in the same FIFO as processes
//     blocked in Acquire, and Release grants it with the same event;
//   - Proc.Park and Env.ResumeAt let a state machine working on a
//     process's behalf resume it at its final charge end, in the slot the
//     process's own Sleep would have used;
//   - Proc.SleepWhile re-arms a poller's tick in the loop while the pass it
//     would run has nothing to do.
//
// Env.Handoffs counts the switches that remain.
package des

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"netmem/internal/obs"
)

// Time is an absolute virtual timestamp measured from the start of the
// simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for callers that want a single import.
type Duration = time.Duration

// String formats the timestamp as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled occurrence: either a callback (fn) run in scheduler
// context or the resumption of a blocked process (proc). Records are pooled
// on the Env; gen disarms stale cancel handles after a record is recycled.
// Cancelling marks the record dead in O(1); a dead record is skipped when
// popped, or dropped earlier when Env.compact sweeps the queue.
type event struct {
	at        Time
	seq       uint64 // tie-breaker: schedule order
	gen       uint64 // bumped on recycle; cancel handles check it
	fn        func()
	proc      *Proc
	idle      func() bool // SleepWhile: re-arm instead of resuming proc while true
	every     Duration    // SleepWhile's re-arm interval
	cancelled bool
}

// before reports whether ev fires ahead of o: earlier time first, schedule
// order breaking ties.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventQueue is a 4-ary min-heap of pooled event records. Events are never
// removed from the middle (dead records leave in bulk, by compact), so no
// per-element index bookkeeping is needed, and the shallow 4-ary layout
// roughly halves the levels touched per sift compared to a binary heap.
type eventQueue struct {
	a []*event
}

func (q *eventQueue) len() int { return len(q.a) }

func (q *eventQueue) push(ev *event) {
	a := append(q.a, ev)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
	q.a = a
}

func (q *eventQueue) pop() *event {
	a := q.a
	n := len(a) - 1
	top := a[0]
	last := a[n]
	a[n] = nil
	q.a = a[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// siftDown places ev, which belongs at index i or below, at its heap
// position in the subtree rooted at i.
func (q *eventQueue) siftDown(i int, ev *event) {
	a := q.a
	n := len(a)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a[j].before(a[min]) {
				min = j
			}
		}
		if !a[min].before(ev) {
			break
		}
		a[i] = a[min]
		i = min
	}
	a[i] = ev
}

// Env is a simulation environment: the event queue, the clock, and the
// bookkeeping that hands control between the event loop and at most one
// simulated process at a time. Create one with NewEnv; an Env must not be
// shared across real OS threads while Run is in progress.
type Env struct {
	now      Time
	queue    eventQueue
	dead     int // cancelled records still in queue
	seq      uint64
	pool     []*event // free list of recycled event records
	handoff  *Proc    // the process Run's trampoline resumes next; nil ends the run
	deadline Time     // the current run stops before any later event
	runErr   error    // outcome of the current run
	inProc   bool     // true while a simulated process is executing
	nprocs   int      // live (spawned, not finished) processes
	procs    []*Proc  // every unfinished process, daemons included
	halted   bool
	shutdown bool   // Shutdown has begun: parked processes exit
	executed uint64 // events fired over the environment's lifetime
	handoffs uint64 // resumptions that switched coroutines

	obs *obs.Tracer // nil = observability disabled

	seed int64
	rng  *rand.Rand // lazily created; all simulation randomness draws here
}

// DefaultSeed seeds an environment's random stream when Seed is never
// called, so unseeded runs are still reproducible.
const DefaultSeed int64 = 1

// Seed fixes the environment's random stream. Call before any simulated
// activity draws randomness; reseeding mid-run restarts the stream. Because
// exactly one goroutine runs at a time and events fire in deterministic
// order, every consumer of Rand sees the same draw sequence on identical
// runs — this is what makes fault campaigns replayable.
func (e *Env) Seed(seed int64) {
	e.seed = seed
	e.rng = rand.New(rand.NewSource(seed))
}

// SeedValue returns the seed the environment's random stream started from.
func (e *Env) SeedValue() int64 {
	if e.rng == nil {
		return DefaultSeed
	}
	return e.seed
}

// Rand returns the environment-owned random stream, creating it with
// DefaultSeed on first use. Simulation code must draw randomness only from
// here (or from generators derived from SeedValue): a caller-supplied
// rand.Rand shared with non-simulated code would break determinism.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.Seed(DefaultSeed)
	}
	return e.rng
}

// SetTracer attaches an observability tracer; nil detaches it. The DES
// kernel and every layer above emit events and metrics through it.
func (e *Env) SetTracer(t *obs.Tracer) { e.obs = t }

// Tracer returns the attached tracer (nil when observability is off). All
// tracer methods are nil-safe, but hot paths should test for nil before
// building event arguments.
func (e *Env) Tracer() *obs.Tracer { return e.obs }

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Events returns the number of events fired (popped and executed, cancelled
// ones excluded) over the environment's lifetime. Benchmarks divide this by
// wall-clock time for an events/sec figure.
func (e *Env) Events() uint64 { return e.executed }

// Handoffs returns the number of process resumptions whose target was not
// the process driving the event loop: each one is a yield to Run's
// trampoline and a resumption of the target, two coroutine switches. A
// self-wake (a process popping its own resumption) is not a hand-off. Like
// Events, the count is deterministic.
func (e *Env) Handoffs() uint64 { return e.handoffs }

// totalHandoffs sums Handoffs over every Env in the process.
var totalHandoffs atomic.Uint64

// TotalHandoffs returns the coroutine hand-offs of every Env in the
// process so far, for harnesses that time runs whose Env they never see:
// the difference across a run is that run's hand-off count, provided no
// other simulation runs concurrently.
func TotalHandoffs() uint64 { return totalHandoffs.Load() }

// alloc takes an event record from the pool, or makes one.
func (e *Env) alloc() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped record to the pool, disarming outstanding
// cancel handles via the generation bump.
func (e *Env) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.idle = nil
	ev.cancelled = false
	e.pool = append(e.pool, ev)
}

// schedule enqueues a pooled record at the given time (clamped to now),
// stamped with the next sequence number. The caller fills in fn or proc.
func (e *Env) schedule(at Time) *event {
	if at < e.now {
		at = e.now
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	return ev
}

// scheduleProc enqueues the resumption of p at the given time. This is the
// allocation-free path behind Sleep and the wait-queue wakes.
func (e *Env) scheduleProc(at Time, p *Proc) {
	e.schedule(at).proc = p
}

// ScheduleFunc is Schedule without a cancel handle: callers that never
// cancel (the ATM cell pumps) avoid the closure the handle costs. fn should
// be a long-lived function value (a pre-bound method), not a fresh closure,
// or the allocation simply moves to the caller.
func (e *Env) ScheduleFunc(at Time, fn func()) {
	e.schedule(at).fn = fn
}

// Schedule arranges for fn to run in scheduler context at time at (clamped
// to now if in the past). It returns a cancel function; cancelling after
// the event has fired is a no-op. A cancelled event leaves the queue by
// the time dead records outnumber live ones. fn must not block — it runs
// inside the event loop, on whichever coroutine drives it. To start
// blocking work, Spawn a process instead.
func (e *Env) Schedule(at Time, fn func()) (cancel func()) {
	ev := e.schedule(at)
	ev.fn = fn
	gen := ev.gen
	return func() {
		if ev.gen == gen && !ev.cancelled {
			ev.cancelled = true
			e.dead++
			if e.dead > compactFloor && e.dead > e.queue.len()-e.dead {
				e.compact()
			}
		}
	}
}

// compactFloor is the number of dead records the queue holds before a
// cancel may compact it, so a near-empty queue is not swept on every
// cancel.
const compactFloor = 32

// compact drops the queue's dead records, recycling them, and re-heapifies
// the rest in place. The latest dead record stays: RunUntil stops at a
// dead head later than its deadline, and that record stands in for every
// dropped one, so a queue left holding only dead records past the deadline
// still ends the run without a deadlock report.
func (e *Env) compact() {
	a := e.queue.a
	var last *event
	n := 0
	for _, ev := range a {
		switch {
		case !ev.cancelled:
			a[n] = ev
			n++
		case last == nil:
			last = ev
		case last.before(ev):
			e.recycle(last)
			last = ev
		default:
			e.recycle(ev)
		}
	}
	e.dead = 0
	if last != nil {
		a[n] = last
		n++
		e.dead = 1
	}
	clear(a[n:])
	e.queue.a = a[:n]
	for i := (n - 2) >> 2; i >= 0; i-- {
		e.queue.siftDown(i, a[i])
	}
}

// After schedules fn to run d from now. See Schedule.
func (e *Env) After(d Duration, fn func()) (cancel func()) {
	return e.Schedule(e.now.Add(d), fn)
}

// Proc is a simulated process. All blocking primitives must be called from
// the process's own coroutine (the function passed to Spawn); calling them
// from anywhere else corrupts the simulation and panics where detectable.
type Proc struct {
	env      *Env
	name     string
	next     func() (struct{}, bool) // runs the coroutine until it yields or ends
	yield    func(struct{}) bool     // suspends the coroutine back to next's caller
	woken    bool                    // set by the waker for wait-queue hand-offs
	daemon   bool
	finished bool
	slot     int // index in env.procs while unfinished
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a process that runs fn, beginning at the current virtual
// time (after already-scheduled events at this time). It may be called from
// scheduler context or from another process.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon is Spawn for perpetual service loops (link pumps, kernel
// drain loops). Daemons blocked with no pending events are normal — they
// are waiting for future work — so they are excluded from Run's deadlock
// check.
func (e *Env) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Env) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{env: e, name: name, daemon: daemon, slot: len(e.procs)}
	e.procs = append(e.procs, p)
	if !daemon {
		e.nprocs++
	}
	if e.obs != nil {
		e.obs.Count("des.proc.spawned", 1)
		e.obs.Instant("sched", "des", "spawn "+name, time.Duration(e.now))
	}
	p.start(func(yield func(struct{}) bool) {
		p.yield = yield
		p.body(fn)
	})
	e.scheduleProc(e.now, p)
	return p
}

// shutdownPanic unwinds a parked process under Shutdown: block panics
// with it and the process's body recovers it. It is not zero-sized, so
// its address is unique.
var shutdownPanic = new(struct{ byte })

// body runs fn on the process's coroutine. It returns to whoever resumed
// the coroutine last: Run's trampoline, which then drives the loop onward,
// or Shutdown. A process that never started returns without running fn.
func (p *Proc) body(fn func(*Proc)) {
	e := p.env
	returned := false
	defer func() {
		r := recover()
		p.finished = true
		// Swap p out of the unfinished list.
		last := e.procs[len(e.procs)-1]
		last.slot = p.slot
		e.procs[p.slot] = last
		e.procs[len(e.procs)-1] = nil
		e.procs = e.procs[:len(e.procs)-1]
		if !p.daemon {
			e.nprocs--
		}
		if r != nil && r != shutdownPanic {
			panic(r) // iter.Pull re-raises it in Run's caller
		}
		if e.obs != nil && !e.shutdown {
			e.obs.Instant("sched", "des", "exit "+p.name, time.Duration(e.now))
		}
		if !returned && r == nil {
			// runtime.Goexit (t.Fatal inside simulated test code): iter.Pull
			// would re-raise it in the trampoline, so yield instead and stay
			// parked for good. The trampoline sees a finished process.
			p.yield(struct{}{})
		}
	}()
	if !e.shutdown {
		fn(p)
	}
	returned = true
}

// block parks the calling process: it drives the event loop until some
// event resumes a process. If that is the caller itself, block returns at
// once with no switch; otherwise the caller names the target for Run's
// trampoline and yields, and returns when an event resumes it later. Under
// Shutdown the process unwinds instead, whether it was parked when
// Shutdown began or blocks again from a deferred call while it unwinds.
func (p *Proc) block() {
	e := p.env
	if !e.shutdown {
		if next := e.loop(p); next != p {
			e.handoff = next
			p.yield(struct{}{})
		}
	}
	if e.shutdown {
		panic(shutdownPanic)
	}
}

// Sleep advances the process's virtual time by d (d <= 0 yields to other
// work scheduled at the current instant).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleProc(p.env.now.Add(d), p)
	p.block()
}

// SleepWhile is a polling loop's Sleep: it sleeps d, and then sleeps d again
// for as long as idle() reports that the pass the process would run on
// waking has nothing to do. idle runs in scheduler context at each tick; it
// must not block and must have no effect beyond what the skipped pass would
// have had. An idle tick costs no coroutine switch: the event loop re-arms
// the tick at now+d with the next sequence number, exactly what the
// process's own Sleep(d) after a no-op pass would have taken, so event
// order and Events() are as if the process had woken every d. d must be
// positive.
func (p *Proc) SleepWhile(d Duration, idle func() bool) {
	if d <= 0 {
		panic("des: SleepWhile interval must be positive")
	}
	ev := p.env.schedule(p.env.now.Add(d))
	ev.proc, ev.idle, ev.every = p, idle, d
	p.block()
}

// Park blocks the process with nothing scheduled for it. It resumes only
// when an event scheduled by ResumeAt fires: a callback state machine doing
// work on the process's behalf parks its owner and schedules the owner's
// resumption as its final event, in the slot the owner's own Sleep would
// have used.
func (p *Proc) Park() { p.block() }

// ResumeAt schedules the resumption of p, parked by Park, at time t
// (clamped to now), taking the next sequence number just as p.Sleep would.
func (e *Env) ResumeAt(t Time, p *Proc) { e.scheduleProc(t, p) }

// SleepUntil blocks the process until virtual time t; it returns at once
// when t has already passed.
func (p *Proc) SleepUntil(t Time) {
	if now := p.Now(); now < t {
		p.Sleep(t.Sub(now))
	}
}

// Run executes events until the queue is empty or Halt is called. Processes
// blocked on never-signalled conditions are reported as a deadlock error if
// any remain when the queue drains.
func (e *Env) Run() error {
	return e.run(math.MaxInt64)
}

// RunUntil executes events with timestamps <= deadline, leaving the rest of
// the simulation intact so it can be resumed with another Run call. The
// clock is left at min(deadline, time of last executed event) — it does not
// jump to the deadline if the queue drains first.
func (e *Env) RunUntil(deadline Time) error {
	return e.run(deadline)
}

// Halt stops the simulation after the current event completes. Safe to call
// from simulated code.
func (e *Env) Halt() { e.halted = true }

func (e *Env) run(deadline Time) error {
	if e.inProc {
		panic("des: Run from process context")
	}
	if e.shutdown {
		panic("des: Run after Shutdown")
	}
	e.halted = false
	e.deadline = deadline
	e.runErr = nil
	// The trampoline: resume each process the loop hands control to. A
	// process that yields has named the next one in e.handoff, cleared at
	// once so no stale pointer keeps a process, and through it the Env,
	// reachable; a finished one leaves the loop to be driven from here.
	for p := e.loop(nil); p != nil; {
		p.next()
		if p.finished {
			p = e.loop(nil)
		} else {
			p, e.handoff = e.handoff, nil
		}
	}
	return e.runErr
}

// Shutdown unwinds every process still parked after a run, daemons
// included, and discards the pending events, so the coroutines exit and
// the Env, with everything its processes and events reference, can be
// collected. Shutdown resumes each process where it is parked, and the
// blocking call it is parked in panics with a private value that the
// process's body recovers: its deferred calls run without driving the
// event loop, and a blocking call one of them makes unwinds at once. Call
// it from the goroutine that called Run, after the last run; the Env
// cannot run again.
func (e *Env) Shutdown() {
	if e.inProc {
		panic("des: Shutdown from process context")
	}
	e.shutdown = true
	for len(e.procs) > 0 {
		e.procs[len(e.procs)-1].next()
	}
	e.queue.a, e.pool, e.dead = nil, nil, 0
}

// Stalled names the unfinished non-daemon processes that no pending event
// will resume: after a run drains, these are the ones parked on a
// condition nobody is left to signal.
func (e *Env) Stalled() []string {
	pending := make(map[*Proc]bool)
	for _, ev := range e.queue.a {
		if ev.proc != nil {
			pending[ev.proc] = true
		}
	}
	var names []string
	for _, p := range e.procs {
		if !p.daemon && !pending[p] {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// loop is the event loop, driven by a blocked process (self) or by Run's
// trampoline (self == nil). It executes callbacks until an event resumes a
// process and returns that process, or returns nil once the run ends
// (halt, the deadline, or a drained queue), with the outcome in runErr. A
// parked process stays parked until a later Run resumes it. Exactly one
// coroutine executes loop at any instant, so Env state needs no locking;
// every coroutine switch orders memory on both sides.
func (e *Env) loop(self *Proc) *Proc {
	e.inProc = false // whoever enters the loop left process context
	for {
		if e.halted {
			return nil
		}
		if e.queue.len() == 0 {
			if e.nprocs > 0 {
				e.runErr = fmt.Errorf("des: deadlock: %d process(es) blocked with no pending events", e.nprocs)
			}
			return nil
		}
		if e.queue.a[0].at > e.deadline {
			return nil
		}
		ev := e.queue.pop()
		if ev.cancelled {
			e.dead--
			e.recycle(ev)
			continue
		}
		if ev.at < e.now {
			panic("des: time went backwards")
		}
		e.now = ev.at
		e.executed++
		if p := ev.proc; p != nil {
			if ev.idle != nil && !p.finished && ev.idle() {
				// An idle SleepWhile tick: re-arm the record in place with
				// the sequence number the process's next Sleep would take.
				ev.at = e.now.Add(ev.every)
				ev.seq = e.seq
				e.seq++
				e.queue.push(ev)
				continue
			}
			e.recycle(ev)
			if p.finished {
				// Stray wakeup for a process that exited abnormally
				// (Goexit while it still had a pending event).
				continue
			}
			e.inProc = true
			if p != self {
				e.handoffs++
				totalHandoffs.Add(1)
			}
			return p
		}
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
}
