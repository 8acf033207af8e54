package consensus

import (
	"bytes"

	"netmem/internal/des"
	"netmem/internal/rmem"
)

// Acceptor is one member of a consensus group: an exported rmem segment
// holding the per-slot control words and value cells, plus a heartbeat
// word for lease watchdogs. It runs no protocol code — the struct exists
// only to export the memory and to hand its coordinates to proposers.
// Everything the agreement path does to this machine happens in the
// kernel receive path of one-sided operations.
type Acceptor struct {
	M   *rmem.Manager
	Cfg Config
	Seg *rmem.Segment

	// Incarnation the segment was exported under; proposers fence their
	// imports with it so a restarted (amnesiac) acceptor NAKs with
	// ErrStaleGeneration instead of silently re-voting from empty state.
	Epoch uint16

	// onLearn, when set, is invoked after a co-located proposer deposits
	// a learned cell with the local fast path — the local analogue of the
	// notify bit a remote learn write carries.
	onLearn func(p *des.Proc, slot int)
}

// NewAcceptor exports the acceptor segment on m's machine and starts its
// heartbeat. Proposers are granted read, write, and CAS rights; the learn
// cell carries the notify bit, so the segment's notification mode stays
// conditional — prepare and accept traffic wakes nobody.
func NewAcceptor(p *des.Proc, m *rmem.Manager, cfg Config) *Acceptor {
	cfg.fill()
	a := &Acceptor{M: m, Cfg: cfg, Epoch: m.Incarnation()}
	a.Seg = m.Export(p, cfg.SegSize())
	a.Seg.SetDefaultRights(rmem.RightRead | rmem.RightWrite | rmem.RightCAS)
	rmem.StartHeartbeat(m, a.Seg, cfg.hbOff(), leaseInterval)
	return a
}

// Node returns the acceptor's machine id.
func (a *Acceptor) Node() int { return a.M.Node.ID }

// OnLearn registers the co-located replica's apply hook for learn writes
// that take the local fast path (remote learns arrive as notifications on
// Seg instead).
func (a *Acceptor) OnLearn(fn func(p *des.Proc, slot int)) { a.onLearn = fn }

// Learned reads slot's learned cell from local memory, returning the
// chosen ballot (0 if the slot is still open) and the value with its
// logical-slot prefix stripped. Only meaningful on the acceptor's own
// machine. A learned cell left over from the physical slot's previous
// occupant reads as open.
func (a *Acceptor) Learned(p *des.Proc, slot int) (Ballot, []byte) {
	buf := a.Seg.ReadLocal(p, a.Cfg.learnedOff(slot), a.Cfg.cellSize())
	defer a.M.Buffers().Put(buf)
	b := Ballot(be32(buf))
	if b == 0 || be32(buf[4:]) != uint32(slot) {
		return 0, nil
	}
	return b, bytes.Clone(buf[8:])
}

// Group is the wiring record for one consensus cell: the shared Config
// plus every member acceptor. Harnesses build it once at boot and hand it
// to proposers and replicas.
type Group struct {
	Cfg  Config
	Accs []*Acceptor
}

// NewGroup fills cfg from the number of acceptor managers given and
// exports one acceptor per manager.
func NewGroup(p *des.Proc, cfg Config, ms ...*rmem.Manager) *Group {
	if cfg.Acceptors <= 0 {
		cfg.Acceptors = len(ms)
	}
	cfg.fill()
	g := &Group{Cfg: cfg}
	for _, m := range ms {
		g.Accs = append(g.Accs, NewAcceptor(p, m, cfg))
	}
	return g
}

// be32 mirrors rmem's big-endian word codec for cell stamps.
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putbe32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
