package atm

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/model"
)

// Interface is a host-network interface (the TCA-100 stand-in): two bounded
// cell FIFOs, one per direction, accessed a word at a time by the host CPU.
// The interface itself has no DMA and no processing; all intelligence is in
// host software, exactly as on the paper's hardware.
type Interface struct {
	Node int // owning node id (also this interface's receive VCI)
	TX   *des.FIFO[Cell]
	RX   *des.FIFO[Cell]

	// CellsSent / CellsReceived count cells through this interface, for
	// traffic accounting.
	CellsSent     int64
	CellsReceived int64
}

// NewInterface creates an interface with the model's FIFO depths.
func NewInterface(env *des.Env, p *model.Params, node int) *Interface {
	return &Interface{
		Node: node,
		TX:   des.NewFIFO[Cell](env, fmt.Sprintf("nic%d.tx", node), p.TxFIFOCells),
		RX:   des.NewFIFO[Cell](env, fmt.Sprintf("nic%d.rx", node), p.RxFIFOCells),
	}
}

// applyVerdict runs one surviving-or-not cell through the engine's verdict
// for the named link, calling deliver for every copy that should arrive
// now. held carries reorder state between calls: a held-back cell is
// released right after the next cell on the link. Returns the updated held
// state and whether the cell was dropped.
func applyVerdict(eng *faults.Engine, link string, held *Cell, c Cell, deliver func(Cell)) (*Cell, bool) {
	v := eng.Judge(link)
	if v.Drop {
		return held, true
	}
	if v.CorruptByte >= 0 && v.CorruptByte < PayloadSize {
		c.Payload[v.CorruptByte] ^= 0x80 // cells are values; the sender's copy is untouched
	}
	if v.HoldOne && held == nil {
		cc := c
		return &cc, false
	}
	deliver(c)
	if v.Duplicate {
		deliver(c)
	}
	if held != nil {
		deliver(*held)
		held = nil
	}
	return held, false
}

// Link is one unidirectional cell pipe from a TX FIFO to an RX FIFO with
// serialization (bandwidth) and propagation delay. DirectLink wires two
// interfaces back-to-back, the paper's switchless testbed topology.
type Link struct {
	env  *des.Env
	p    *model.Params
	eng  *faults.Engine // nil = no campaign on this link
	pump *cellPump

	// CellsCarried counts cells delivered, for utilisation accounting.
	CellsCarried int64
	// CellsDropped counts fault-injected losses (including flap and
	// overflow drops).
	CellsDropped int64

	// Observability counter keys, fixed at construction.
	keyCells, keyDropped string
}

// cellPump drives one link hop — source FIFO, wire delay, fault verdicts,
// deposit into a routed destination FIFO — entirely from scheduler context.
// A multi-cell backlog rides one pooled event record as a train: each
// delivery pops the next cell and re-schedules itself, with no process
// wake-ups anywhere on the hop.
//
// Timing is identical to the daemon-process pump it replaces. Every state
// transition consumes exactly the events its process equivalent did: a
// wake when the source refills (one event), the wire time per cell (one
// event), and a wake per stall on a full destination (one event). Cells
// are still delivered one per event at their exact per-cell times — a
// train never lumps deliveries, because receiver-side CPU contention is
// sensitive to arrival instants.
type cellPump struct {
	env   *des.Env
	name  string
	src   *des.FIFO[Cell]
	delay des.Duration
	eng   *faults.Engine
	held  *Cell // reorder state: one cell held back by the engine

	route     func(Cell) *des.FIFO[Cell] // destination for a cell; nil = discard (already counted)
	carried   func()                     // account one delivered cell
	droppedFn func()                     // account one fault-injected loss
	overflow  func()                     // account one overflow shed (DropOnOverflow)

	cur     Cell    // the cell on the wire while a delivery event is in flight
	pending [3]Cell // verdict-approved copies awaiting deposit (cell, duplicate, released hold)
	npend   int
	flushed int // copies of pending already deposited

	// Pre-bound event functions, allocated once per pump.
	wakeFn, deliverFn, spaceFn func()
	stageFn                    func(Cell)
}

func newCellPump(env *des.Env, name string, src *des.FIFO[Cell], delay des.Duration, eng *faults.Engine, route func(Cell) *des.FIFO[Cell]) *cellPump {
	cp := &cellPump{env: env, name: name, src: src, delay: delay, eng: eng, route: route}
	cp.wakeFn = cp.next
	cp.deliverFn = cp.deliver
	cp.spaceFn = cp.flush
	cp.stageFn = cp.stage
	return cp
}

// next begins the next cell's wire cycle: take a queued cell and hold the
// wire for its serialization time, or park until the source refills. This
// mirrors the daemon's `c := src.Get(pr); pr.Sleep(delay)`.
func (cp *cellPump) next() {
	c, ok := cp.src.TryGet()
	if !ok {
		cp.src.OnItem(cp.wakeFn)
		return
	}
	cp.cur = c
	// A campaign delay window stretches this cell's wire time; the pump is
	// serial per link, so delayed cells still arrive in FIFO order.
	d := cp.delay + des.Duration(cp.eng.ExtraDelay(cp.name))
	cp.env.ScheduleFunc(cp.env.Now().Add(d), cp.deliverFn)
}

// deliver fires when the cell has finished its wire time: judge it, stage
// the surviving copies, and flush them into the destination.
func (cp *cellPump) deliver() {
	if cp.eng.PartitionDrop(cp.cur.VCI.Src(), cp.cur.VCI.Dst()) {
		cp.droppedFn()
		cp.next()
		return
	}
	var dropped bool
	cp.held, dropped = applyVerdict(cp.eng, cp.name, cp.held, cp.cur, cp.stageFn)
	if dropped {
		cp.droppedFn()
	}
	cp.flush()
}

// stage queues one verdict-approved copy for deposit. applyVerdict emits at
// most three: the cell, a duplicate, and a released held-back cell.
func (cp *cellPump) stage(c Cell) {
	cp.pending[cp.npend] = c
	cp.npend++
}

// flush deposits staged copies in order. A full destination (backpressure
// mode) parks the pump on the destination's putter queue — the train stalls
// exactly where a daemon blocked in Put would — and resumes here.
func (cp *cellPump) flush() {
	for cp.flushed < cp.npend {
		c := cp.pending[cp.flushed]
		dst := cp.route(c)
		if dst == nil {
			cp.flushed++ // unroutable; route already accounted for it
			continue
		}
		if cp.eng.DropOnOverflow() {
			if !dst.TryPut(c) {
				cp.overflow()
			} else {
				cp.carried()
			}
			cp.flushed++
			continue
		}
		if dst.Full() {
			dst.OnSpace(cp.spaceFn)
			return
		}
		dst.TryPut(c) // known non-full; wakes the destination's getter
		cp.carried()
		cp.flushed++
	}
	cp.npend, cp.flushed = 0, 0
	cp.next()
}

// start arms the pump: park on the (empty) source like a freshly spawned
// daemon blocked in its first Get.
func (cp *cellPump) start() { cp.next() }

// newPump wires this link's hop from src to dst with the given
// post-serialization delay added to the wire time.
func (l *Link) newPump(name string, src *des.FIFO[Cell], dst *des.FIFO[Cell], extra des.Duration) {
	l.keyCells = "atm." + name + ".cells"
	l.keyDropped = "atm." + name + ".dropped"
	cp := newCellPump(l.env, name, src, l.p.CellWireTime()+extra, l.eng,
		func(Cell) *des.FIFO[Cell] { return dst })
	cp.carried = func() {
		l.CellsCarried++
		if tr := l.env.Tracer(); tr != nil {
			tr.Count(l.keyCells, 1)
			tr.Counter(l.keyCells, time.Duration(l.env.Now()), float64(l.CellsCarried))
		}
	}
	cp.droppedFn = l.dropped
	cp.overflow = func() {
		l.eng.Count(faults.KindOverflow)
		l.dropped()
	}
	l.pump = cp
	cp.start()
}

// dropped accounts one lost cell on this link.
func (l *Link) dropped() {
	l.CellsDropped++
	if tr := l.env.Tracer(); tr != nil {
		tr.Count(l.keyDropped, 1)
	}
}

// DirectLink connects interfaces a and b with a full-duplex lossless link.
// It returns the two unidirectional halves (a→b, b→a).
func DirectLink(env *des.Env, p *model.Params, a, b *Interface) (ab, ba *Link) {
	return DirectLinkEngine(env, p, a, b, nil)
}

// DirectLinkEngine is DirectLink with a fault-campaign engine attached to
// both halves. Each half judges cells under its own link name
// ("link<a>-><b>" and "link<b>-><a>"), so a campaign can fault one
// direction only.
func DirectLinkEngine(env *des.Env, p *model.Params, a, b *Interface, eng *faults.Engine) (ab, ba *Link) {
	ab = &Link{env: env, p: p, eng: eng}
	ba = &Link{env: env, p: p, eng: eng}
	ab.newPump(fmt.Sprintf("link%d->%d", a.Node, b.Node), a.TX, b.RX, p.PropagationDelay)
	ba.newPump(fmt.Sprintf("link%d->%d", b.Node, a.Node), b.TX, a.RX, p.PropagationDelay)
	return ab, ba
}

// Switch is an output-queued cell switch. Each attached interface gets an
// input pump that routes on VCI (VCI = destination node) to the output
// queue of the destination port; an output pump serializes cells onto the
// destination interface. Cut-through latency is the model's SwitchLatency.
type Switch struct {
	env   *des.Env
	p     *model.Params
	ports []*swPort // by node id; nil where no interface is attached
	eng   *faults.Engine

	// CellsUnroutable counts cells that arrived for a VCI with no attached
	// port. The fabric still discards them (there is nowhere to send them),
	// but invisibly losing traffic made misconfigured VCIs look like
	// network faults; the counter (and the "atm.sw.unroutable" obs key)
	// makes them diagnosable.
	CellsUnroutable int64
}

type swPort struct {
	nic *Interface
	out *des.FIFO[Cell]
}

// NewSwitch creates an empty switch.
func NewSwitch(env *des.Env, p *model.Params) *Switch {
	return &Switch{env: env, p: p}
}

// SetEngine attaches a fault-campaign engine. Call before Attach; the
// switch's hop pumps judge cells under the "sw.in<N>" and "sw.tx<N>" link
// names.
func (s *Switch) SetEngine(eng *faults.Engine) { s.eng = eng }

// Attach connects an interface to the switch. All attachments must happen
// before the simulation delivers traffic to the new port.
func (s *Switch) Attach(nic *Interface) {
	port := &swPort{
		nic: nic,
		out: des.NewFIFO[Cell](s.env, fmt.Sprintf("sw.out%d", nic.Node), s.p.RxFIFOCells),
	}
	if n := nic.Node + 1; n > len(s.ports) {
		s.ports = append(s.ports, make([]*swPort, n-len(s.ports))...)
	}
	s.ports[nic.Node] = port

	// Input side: host→switch link (serialization) plus VCI routing.
	inName := fmt.Sprintf("sw.in%d", nic.Node)
	in := newCellPump(s.env, inName, nic.TX,
		s.p.CellWireTime()+s.p.PropagationDelay+s.p.SwitchLatency, s.eng,
		func(c Cell) *des.FIFO[Cell] {
			if d := c.VCI.Dst(); d < len(s.ports) && s.ports[d] != nil {
				return s.ports[d].out
			}
			s.CellsUnroutable++
			if tr := s.env.Tracer(); tr != nil {
				tr.Count("atm.sw.unroutable", 1)
			}
			return nil
		})
	in.carried = func() {}
	in.droppedFn = func() {}
	in.overflow = func() { s.eng.Count(faults.KindOverflow) }
	in.start()
	// Output side: switch→host link.
	txName := fmt.Sprintf("sw.tx%d", nic.Node)
	tx := newCellPump(s.env, txName, port.out,
		s.p.CellWireTime()+s.p.PropagationDelay, s.eng,
		func(Cell) *des.FIFO[Cell] { return nic.RX })
	tx.carried = func() {}
	tx.droppedFn = func() {}
	tx.overflow = func() { s.eng.Count(faults.KindOverflow) }
	tx.start()
}
