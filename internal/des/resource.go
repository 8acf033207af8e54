package des

import "time"

// Resource models a serially shared piece of hardware — a CPU, a bus, a
// controller — with a fixed number of service slots and a FIFO queue of
// waiters. A waiter is a blocked process (Acquire) or a one-shot callback
// (AcquireFunc); both queue in the same FIFO and a slot passes to either
// with the same event, so a callback state machine charging a CPU on a
// process's behalf takes the sequence numbers the process would have. It
// also keeps a busy-time integral so experiments can report utilisation
// (Figure 3 reports server CPU occupancy this way).
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	// Waiter queue: a slice consumed from whead, reset when it empties, so
	// the backing array is reused instead of reallocated on every hand-off.
	waiters []waiter
	whead   int

	busy       Duration // accumulated slot-busy time (capacity slots ⇒ up to capacity× wall time)
	lastChange Time
}

// NewResource creates a resource with the given number of service slots.
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{env: env, name: name, capacity: capacity, lastChange: env.now}
}

// Name returns the diagnostic name.
func (r *Resource) Name() string { return r.name }

func (r *Resource) account() {
	now := r.env.now
	r.busy += Duration(now.Sub(r.lastChange).Nanoseconds() * int64(r.inUse))
	r.lastChange = now
}

// sample emits the resource's occupancy and queue depth as trace counter
// tracks (no-op unless event tracing is on).
func (r *Resource) sample() {
	if tr := r.env.obs; tr.EventsEnabled() {
		at := time.Duration(r.env.now)
		tr.Counter(r.name+".busy", at, float64(r.inUse))
		tr.Counter(r.name+".queue", at, float64(len(r.waiters)-r.whead))
	}
}

// claim takes a free slot when one is free and nobody is queued for it.
func (r *Resource) claim() bool {
	if r.inUse < r.capacity && len(r.waiters) == r.whead {
		r.account()
		r.inUse++
		r.sample()
		return true
	}
	return false
}

// enqueue parks w at the back of the waiter queue.
func (r *Resource) enqueue(w waiter, label string) {
	r.waiters = append(r.waiters, w)
	if tr := r.env.obs; tr != nil {
		tr.Count("des.resource.contended", 1)
		tr.Instant(r.name, "des", "block "+label, time.Duration(r.env.now))
		r.sample()
	}
}

// Acquire blocks until a slot is free and claims it. Waiters are served in
// FIFO order.
func (r *Resource) Acquire(p *Proc) {
	if r.claim() {
		return
	}
	r.enqueue(waiter{p: p}, p.name)
	p.woken = false
	for !p.woken {
		p.block()
	}
	if tr := r.env.obs; tr != nil {
		tr.Instant(r.name, "des", "grant "+p.name, time.Duration(r.env.now))
	}
}

// AcquireFunc claims a free slot at once and reports true, or queues fn
// behind the current waiters and reports false. A queued fn is scheduled
// when Release hands it the slot, at the instant and with the sequence
// number a process blocked in Acquire would have resumed with; it then
// holds the slot and must Release it. fn should be a long-lived function
// value; see ScheduleFunc.
func (r *Resource) AcquireFunc(fn func()) bool {
	if r.claim() {
		return true
	}
	r.enqueue(waiter{fn: fn}, "callback")
	return false
}

// Release frees a slot, handing it to the longest waiter if any.
func (r *Resource) Release() {
	r.account()
	r.inUse--
	if r.inUse < 0 {
		panic("des: release of idle resource " + r.name)
	}
	if len(r.waiters) > r.whead {
		next := r.waiters[r.whead]
		r.waiters[r.whead] = waiter{}
		r.whead++
		if r.whead == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.whead = 0
		}
		r.inUse++ // slot passes directly to next
		if next.fn != nil {
			if tr := r.env.obs; tr != nil {
				tr.Instant(r.name, "des", "grant callback", time.Duration(r.env.now))
			}
		}
		r.env.wake(next)
	}
	r.sample()
}

// Use acquires a slot, holds it for d of virtual time, and releases it.
// This is the common "charge this work to this CPU" idiom.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// BusyTime returns the accumulated slot-busy time up to the current instant.
func (r *Resource) BusyTime() Duration {
	r.account()
	return r.busy
}

// ResetBusyTime zeroes the busy-time integral (used between experiment
// phases, e.g. after warmup).
func (r *Resource) ResetBusyTime() {
	r.account()
	r.busy = 0
}

// Utilization returns busy time divided by elapsed time since the given
// start, as a fraction of total capacity.
func (r *Resource) Utilization(since Time) float64 {
	elapsed := r.env.now.Sub(since)
	if elapsed <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(elapsed) / float64(r.capacity)
}

// WaitQueue is a condition-variable-like rendezvous: processes Wait on it,
// and other code (process or scheduler context) Wakes them in FIFO order.
// A wake with no waiter is NOT remembered (unlike a semaphore); use FIFO
// for buffered hand-off.
//
// Besides blocked processes, a waiter may be a one-shot callback (WaitFunc)
// run in scheduler context. A woken callback is scheduled at the current
// instant exactly like a woken process's resumption, so replacing a daemon
// process with a callback consumer does not perturb event ordering.
type WaitQueue struct {
	env *Env
	// Consumed from head, reset when drained; see Resource.waiters.
	waiters []waiter
	head    int
}

// waiter is one parked consumer: a blocked process or a one-shot callback.
type waiter struct {
	p  *Proc
	fn func()
}

// wake schedules a dequeued waiter at the current instant: the process's
// resumption, or the callback in its place.
func (e *Env) wake(w waiter) {
	if w.p != nil {
		w.p.woken = true
		e.scheduleProc(e.now, w.p)
	} else {
		e.ScheduleFunc(e.now, w.fn)
	}
}

// NewWaitQueue creates an empty wait queue.
func NewWaitQueue(env *Env) *WaitQueue { return &WaitQueue{env: env} }

// Len reports the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) - q.head }

// Wait blocks the calling process until a Wake is directed at it.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters = append(q.waiters, waiter{p: p})
	if tr := q.env.obs; tr.EventsEnabled() {
		tr.Instant("proc:"+p.name, "des", "block", time.Duration(q.env.now))
	}
	p.woken = false
	for !p.woken {
		p.block()
	}
	if tr := q.env.obs; tr.EventsEnabled() {
		tr.Instant("proc:"+p.name, "des", "wake", time.Duration(q.env.now))
	}
}

// WaitFunc parks fn as a one-shot waiter: the next Wake that reaches it
// schedules fn at the current instant and forgets it. Re-register to keep
// listening. fn should be a long-lived function value; see ScheduleFunc.
func (q *WaitQueue) WaitFunc(fn func()) {
	q.waiters = append(q.waiters, waiter{fn: fn})
}

// WakeOne unblocks the longest-waiting consumer, if any, reporting whether
// one was woken.
func (q *WaitQueue) WakeOne() bool {
	if len(q.waiters) == q.head {
		return false
	}
	next := q.waiters[q.head]
	q.waiters[q.head] = waiter{}
	q.head++
	if q.head == len(q.waiters) {
		q.waiters = q.waiters[:0]
		q.head = 0
	}
	if next.p != nil {
		next.p.woken = true
		q.env.scheduleProc(q.env.now, next.p)
	} else {
		q.env.ScheduleFunc(q.env.now, next.fn)
	}
	return true
}

// WakeAll unblocks every waiter in FIFO order and returns how many.
func (q *WaitQueue) WakeAll() int {
	n := len(q.waiters)
	for q.WakeOne() {
	}
	return n
}
