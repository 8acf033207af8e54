package rmem

import (
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
)

// Control transfer. Data arrival never involves the destination process;
// when a request asks for notification (and the segment's mode allows it)
// the kernel runs the paper's integrated control-transfer path: mark the
// segment's file descriptor ready and post the signal (NotifyPost, charged
// here in the receive path), then — when the destination process picks the
// event up — a context switch and signal-handler dispatch (charged on the
// consumer side). The three components sum to Table 2's 260 µs.

// maybeNotify applies the descriptor's notification control flag to the
// request's notify bit and, if control transfer is wanted, posts a
// notification.
func (m *Manager) maybeNotify(p *des.Proc, s *Segment, src int, op Op, off, count int, reqBit bool) {
	want := false
	switch s.mode {
	case NotifyAlways:
		want = true
	case NotifyNever:
		want = false
	case NotifyConditional:
		want = reqBit
	}
	if !want {
		return
	}
	m.Node.UseCPU(p, cluster.CatControl, m.Node.P.NotifyPost)
	s.Notifies++
	if tr := m.Node.Env.Tracer(); tr != nil {
		tr.Count("rmem.notify.posted", 1)
		if tr.EventsEnabled() {
			tr.Instant(m.track, "rmem", "notify "+op.String(), time.Duration(m.Node.Env.Now()))
		}
	}
	s.notes.TryPut(Notification{Src: src, Op: op, Offset: off, Count: count, At: m.Node.Env.Now()})
}

// AwaitNotification blocks the calling process until a notification is
// available on the segment's descriptor (the analogue of a blocking read
// on the segment's fd) and returns it, charging the consumer side of the
// control transfer: the context switch to this process plus signal-handler
// dispatch.
func (s *Segment) AwaitNotification(p *des.Proc) Notification {
	note := s.notes.Get(p)
	s.m.Node.UseCPU(p, cluster.CatControl, s.m.Node.P.ContextSwitch+s.m.Node.P.HandlerDispatch)
	s.m.notifyDelivered(note)
	return note
}

// notifyDelivered records the control-transfer delivery latency: post at
// the destination kernel to pickup by the destination process.
func (m *Manager) notifyDelivered(note Notification) {
	if tr := m.Node.Env.Tracer(); tr != nil {
		tr.Count("rmem.notify.delivered", 1)
		tr.Observe("rmem.notify.latency", m.Node.Env.Now().Sub(note.At))
	}
}

// PollNotification is the non-blocking variant (fcntl-style O_NDELAY read
// of the descriptor): it returns immediately, reporting whether a
// notification was pending. The consumer-side control-transfer cost is
// charged only when one is actually delivered.
func (s *Segment) PollNotification(p *des.Proc) (Notification, bool) {
	note, ok := s.notes.TryGet()
	if ok {
		s.m.Node.UseCPU(p, cluster.CatControl, s.m.Node.P.ContextSwitch+s.m.Node.P.HandlerDispatch)
		s.m.notifyDelivered(note)
	}
	return note, ok
}

// PendingNotifications reports queued, unconsumed notifications.
func (s *Segment) PendingNotifications() int { return s.notes.Len() }

// OnNotify registers fn as the segment's signal handler: a dedicated
// daemon consumes notifications and invokes fn for each, exactly like a
// user-specified signal handler procedure. fn runs in a simulated process
// on the segment's node and may block.
func (s *Segment) OnNotify(fn func(p *des.Proc, note Notification)) {
	env := s.m.Node.Env
	env.SpawnDaemon(fmt.Sprintf("seg%d.%d.sighandler", s.m.Node.ID, s.id), func(p *des.Proc) {
		for {
			fn(p, s.AwaitNotification(p))
		}
	})
}

// ---------------------------------------------------------------------------
// Local access. Single-word local accesses are atomic with respect to
// remote accesses involving that word (§3.1.2): the simulation kernel
// serializes all memory operations, and these helpers provide the timed
// local path so experiments can compare local and remote access cost.

// localAccessCost charges the local-access time for n bytes (one
// LocalWordAccess per cell-sized chunk — the paper's 15×-faster figure is
// for a one-cell unit).
func (s *Segment) localAccessCost(p *des.Proc, n int) {
	chunks := s.m.Node.P.CellsFor(n)
	s.m.Node.UseCPU(p, cluster.CatClient, des.Duration(chunks)*s.m.Node.P.LocalWordAccess)
}

// ReadLocal copies n bytes at off out of the segment with local-access
// timing. The returned buffer comes from the manager's pool
// (Manager.Buffers); callers may Put it back when done to make repeated
// reads allocation-free.
func (s *Segment) ReadLocal(p *des.Proc, off, n int) []byte {
	s.localAccessCost(p, n)
	out := s.m.bufs.Get(n)
	copy(out, s.buf[off:off+n])
	return out
}

// WriteLocal copies data into the segment at off with local-access timing.
func (s *Segment) WriteLocal(p *des.Proc, off int, data []byte) {
	s.localAccessCost(p, len(data))
	copy(s.buf[off:], data)
	s.MarkWritten(off, len(data))
}

// ReadWord reads the big-endian 4-byte word at off (must be aligned).
func (s *Segment) ReadWord(p *des.Proc, off int) uint32 {
	if off%4 != 0 {
		panic(ErrUnaligned)
	}
	s.localAccessCost(p, 4)
	return be32(s.buf[off:])
}

// WriteWord writes the big-endian 4-byte word at off (must be aligned).
// Word writes are the paper's single-writer/multi-reader synchronization
// primitive: a flag word updated atomically with respect to remote reads.
func (s *Segment) WriteWord(p *des.Proc, off int, v uint32) {
	if off%4 != 0 {
		panic(ErrUnaligned)
	}
	s.localAccessCost(p, 4)
	putbe32(s.buf[off:], v)
	s.MarkWritten(off, 4)
}

// CASLocal atomically compares-and-swaps the big-endian word at off against
// the segment owner's own memory, returning whether the swap took. It is
// the local half of the CAS meta-instruction: §3.1.2's atomicity of
// single-word local accesses with respect to remote accesses extends to a
// local read-modify-write, provided the access cost is charged up front —
// the simulation kernel serializes memory operations, and after the CPU
// charge returns there is no blocking point between the compare and the
// swap. A co-located client (a consensus proposer sharing a machine with
// an acceptor, say) uses this instead of routing a CAS through its own
// network interface.
func (s *Segment) CASLocal(p *des.Proc, off int, old, new uint32) bool {
	if off%4 != 0 {
		panic(ErrUnaligned)
	}
	s.localAccessCost(p, 4)
	if be32(s.buf[off:]) != old {
		return false
	}
	putbe32(s.buf[off:], new)
	s.MarkWritten(off, 4)
	return true
}
