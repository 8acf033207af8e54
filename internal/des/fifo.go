package des

// FIFO is a bounded first-in-first-out queue of items with blocking Put and
// Get, modelling hardware queues (ATM controller TX/RX FIFOs) and kernel
// message queues. Capacity <= 0 means unbounded.
//
// Put blocks while the queue is full; Get blocks while it is empty. Both
// are served in FIFO order per side. TryPut/TryGet never block, for
// hardware that drops on overflow instead of exerting backpressure.
//
// Items live in a power-of-two ring that doubles only when full, so a
// steady stream through the queue allocates nothing.
type FIFO[T any] struct {
	env      *Env
	name     string
	capacity int
	ring     []T // len is zero or a power of two
	head     int // index of the oldest item
	n        int // queued items
	getters  *WaitQueue
	putters  *WaitQueue

	// Drops counts TryPut failures, for fault-injection experiments.
	Drops int
}

// NewFIFO creates a queue with the given capacity (<= 0 for unbounded).
func NewFIFO[T any](env *Env, name string, capacity int) *FIFO[T] {
	return &FIFO[T]{
		env:      env,
		name:     name,
		capacity: capacity,
		getters:  NewWaitQueue(env),
		putters:  NewWaitQueue(env),
	}
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return f.n }

// Cap reports the capacity (<= 0 for unbounded).
func (f *FIFO[T]) Cap() int { return f.capacity }

func (f *FIFO[T]) full() bool { return f.capacity > 0 && f.n >= f.capacity }

// push appends item to the ring, doubling it first when it is full.
func (f *FIFO[T]) push(item T) {
	if f.n == len(f.ring) {
		ring := make([]T, max(4, 2*len(f.ring)))
		k := copy(ring, f.ring[f.head:])
		copy(ring[k:], f.ring[:f.head])
		f.ring, f.head = ring, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = item
	f.n++
}

// pop removes and returns the oldest item; the ring must not be empty.
func (f *FIFO[T]) pop() T {
	var zero T
	item := f.ring[f.head]
	f.ring[f.head] = zero
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	return item
}

// Full reports whether a Put would block (or a TryPut would drop).
func (f *FIFO[T]) Full() bool { return f.full() }

// OnItem parks fn as a one-shot getter: it is scheduled (at the instant of
// the wake) when an item becomes available for it, with the same queue
// position and event ordering a process blocked in Get would have. The
// callback must TryGet itself and re-register if it wants more.
func (f *FIFO[T]) OnItem(fn func()) { f.getters.WaitFunc(fn) }

// OnSpace parks fn as a one-shot putter: it is scheduled when queue space
// frees up for it, ordered exactly like a process blocked in Put. The
// callback must re-check Full (another putter may race it at the same
// instant) and re-register if still full.
func (f *FIFO[T]) OnSpace(fn func()) { f.putters.WaitFunc(fn) }

// Put appends item, blocking while the queue is full.
func (f *FIFO[T]) Put(p *Proc, item T) {
	for f.full() {
		f.putters.Wait(p)
	}
	f.push(item)
	f.getters.WakeOne()
}

// TryPut appends item if there is room and reports whether it did; on a
// full queue the item is counted as dropped.
func (f *FIFO[T]) TryPut(item T) bool {
	if f.full() {
		f.Drops++
		return false
	}
	f.push(item)
	f.getters.WakeOne()
	return true
}

// Get removes and returns the oldest item, blocking while the queue is
// empty.
func (f *FIFO[T]) Get(p *Proc) T {
	for f.n == 0 {
		f.getters.Wait(p)
	}
	item := f.pop()
	f.putters.WakeOne()
	return item
}

// TryGet removes and returns the oldest item without blocking.
func (f *FIFO[T]) TryGet() (T, bool) {
	if f.n == 0 {
		var zero T
		return zero, false
	}
	item := f.pop()
	f.putters.WakeOne()
	return item, true
}
