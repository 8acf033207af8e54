// Package cluster provides the workstation-cluster substrate: simulated
// nodes (DECstation-class machines) with a CPU, an ATM host interface, and
// a minimal in-kernel network layer that sends and receives frames by
// programmed I/O and dispatches received frames to registered protocol
// handlers. Higher layers (the remote-memory model, the RPC baseline, the
// file service) build on these nodes.
package cluster

import (
	"fmt"
	"time"

	"netmem/internal/atm"
	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/model"
)

// CPU accounting categories. Figure 3 decomposes server activity into data
// reception, control transfer, procedure invocation, and data reply; every
// CPU charge carries one of these tags so experiments can report the same
// breakdown.
const (
	CatClient  = "client"  // work on behalf of the local user/application
	CatRx      = "rx"      // data reception: drain, validate, deposit
	CatReply   = "reply"   // data reply: fetch and transmit response data
	CatControl = "control" // control transfer: notification, scheduling
	CatProc    = "proc"    // invoked procedure (server code proper)
)

// Handler consumes a frame delivered to a node. It runs in the context of
// the node's RX drain daemon — the moral equivalent of interrupt level —
// and charges any further processing to the node's CPU itself. A handler
// that needs to perform long-running work should hand off to a spawned
// process rather than stall the drain loop.
//
// The handler is the only part of the receive path that runs in process
// context. Cells are taken, charged and reassembled by callbacks; the
// daemon resumes once per frame, at its last cell's charge end, in the
// event its own Sleep would have used, so every callback step takes the
// sequence numbers the per-cell process loop did.
type Handler func(p *des.Proc, src int, frame []byte)

// Node is one simulated workstation.
type Node struct {
	ID  int
	Env *des.Env
	P   *model.Params

	// CPU is the single processor; all software costs are charged here.
	CPU *des.Resource

	// NIC is the ATM host interface.
	NIC *atm.Interface

	handlers map[byte]Handler
	perCell  map[byte]func(first []byte) des.Duration
	reasm    *atm.Reassembler
	txLock   *des.Resource // serializes frame transmission (one PIO at a time)
	txBuf    []byte        // scratch for proto byte + frame (guarded by txLock)
	txCells  []atm.Cell    // scratch cell array for segmentation (guarded by txLock)

	// surch is the per-cell surcharge of the frame each source has in
	// flight to this node, -1 when none. A source sends whole frames one
	// at a time under its txLock, so it has at most one frame in flight,
	// and every node ID fits the VCI's source byte.
	surch [256]des.Duration

	// Cell-path state machines. tx (guarded by txLock) pushes the cells of
	// txCells, txCell being the current one; rx drains rxCell.
	tx, rx   cellCharge
	txCell   int
	rxCell   atm.Cell
	txPutFn  func() // pre-bound txPut
	rxNextFn func() // pre-bound rxNext

	// Accounting.
	BytesSent      int64 // frame payload bytes handed to SendFrame
	FramesSent     int64
	FramesReceived int64

	// Faults records catastrophic receive-path events (corrupt frames,
	// frames for unregistered protocols). The cluster treats these as the
	// paper does — rare, catastrophic — so experiments check this is empty.
	Faults []error

	// CPUAcct breaks down accumulated CPU busy time by category.
	CPUAcct map[string]des.Duration

	// failed marks a crashed machine: its interface drops everything.
	failed bool

	// Cached observability keys (avoid fmt.Sprintf on hot paths).
	cpuTrack string            // span track for CPU work, e.g. "node0.cpu"
	cpuKeys  map[string]string // category → counter name "cpu.node0.<cat>"
	nicTxKey string
	nicRxKey string
}

// cpuKey returns the obs counter name for a CPU accounting category.
func (n *Node) cpuKey(cat string) string {
	k, ok := n.cpuKeys[cat]
	if !ok {
		k = fmt.Sprintf("cpu.node%d.%s", n.ID, cat)
		n.cpuKeys[cat] = k
	}
	return k
}

// Fail crashes the node: from now on arriving cells are discarded and the
// machine originates no traffic (daemons should check Failed). The paper
// regards data loss as catastrophic but machine crashes as a fact of life
// (§3.7); the communication primitives surface a crashed peer as timeouts.
func (n *Node) Fail() { n.failed = true }

// Recover brings a crashed node back (its kernel state is as it was; real
// recovery protocols are a service-level concern, §3.7).
func (n *Node) Recover() { n.failed = false }

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool { return n.failed }

// UseCPU charges d of CPU time to the given accounting category. With a
// tracer attached, the busy interval is also recorded as a span on the
// node's CPU track, a per-category counter metric (Figure 3's server
// occupancy breakdown reads these), and the CPU-utilization timeline.
func (n *Node) UseCPU(p *des.Proc, cat string, d des.Duration) {
	n.CPU.Acquire(p)
	start := n.Env.Now()
	p.Sleep(d)
	n.release(cat, start, d)
}

// release ends a CPU charge of d begun at start: it frees the CPU and
// accounts the busy interval to cat.
func (n *Node) release(cat string, start des.Time, d des.Duration) {
	n.CPU.Release()
	n.CPUAcct[cat] += d
	if tr := n.Env.Tracer(); tr != nil {
		at := time.Duration(start)
		tr.Span(n.cpuTrack, "cpu", cat, at, d)
		tr.Count(n.cpuKey(cat), int64(d))
		tr.Usage(n.cpuTrack, at, d)
	}
}

// ResetCPUAcct clears the accounting breakdown (between experiment phases).
func (n *Node) ResetCPUAcct() {
	n.CPUAcct = make(map[string]des.Duration)
	n.CPU.ResetBusyTime()
}

// RegisterProto installs the handler for frames whose first byte is id.
// Protocol ids are assigned by the packages that own them (rmem, rpc, …).
func (n *Node) RegisterProto(id byte, h Handler) {
	n.RegisterProtoEx(id, h, nil)
}

// RegisterProtoEx additionally installs a per-cell receive surcharge: for
// every cell of a frame of this protocol, perCell(firstCellBody) of extra
// CPU is charged in the drain loop, pipelined with arrival. The remote
// memory model uses this for its per-cell deposit cost — data is copied
// into the destination address space as cells arrive, not after the whole
// frame lands. firstCellBody is the frame's first cell payload after the
// protocol byte.
func (n *Node) RegisterProtoEx(id byte, h Handler, perCell func(first []byte) des.Duration) {
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("cluster: node %d: duplicate protocol %d", n.ID, id))
	}
	n.handlers[id] = h
	if perCell != nil {
		n.perCell[id] = perCell
	}
}

// SendFrame transmits a frame (with proto prepended) to node dst, charging
// the calling process's CPU for the per-cell programmed I/O. It returns
// when the last cell has been accepted by the TX FIFO — like the paper's
// WRITE, local completion "only guarantees that the data has been accepted
// by the network".
func (n *Node) SendFrame(p *des.Proc, dst int, proto byte, cat string, frame []byte) {
	n.SendFrameEx(p, dst, proto, cat, frame, 0)
}

// SendFrameEx is SendFrame with an additional per-cell CPU charge,
// interleaved with the pushes. Reply paths that fetch data from memory as
// they transmit (the kernel's block-READ service loop) use this so the
// fetch pipelines with the wire instead of serializing ahead of it.
//
// Each cell is charged to the CPU and pushed into the TX FIFO in order.
// All but the last run as callbacks while the caller stays parked; the
// caller resumes at the last cell's charge end and pushes that cell
// itself.
func (n *Node) SendFrameEx(p *des.Proc, dst int, proto byte, cat string, frame []byte, perCell des.Duration) {
	// One frame at a time per machine: concurrent senders would otherwise
	// interleave their cells on the same virtual circuit and corrupt
	// reassembly at the destination. The kernel's transmit path holds the
	// controller for the duration of the PIO, exactly as Ultrix would.
	n.txLock.Acquire(p)
	defer n.txLock.Release()
	n.txBuf = append(n.txBuf[:0], proto)
	n.txBuf = append(n.txBuf, frame...)
	n.txCells = atm.SegmentInto(n.txCells, atm.MakeVCI(dst, n.ID), n.txBuf)
	cells := n.txCells
	n.tx.owner, n.tx.cat, n.tx.cost = p, cat, n.P.CellPushTx+perCell
	n.txCell = 0
	n.tx.last = len(cells) == 1
	n.tx.begin()
	p.Park()
	n.tx.end()
	n.NIC.TX.Put(p, cells[len(cells)-1])
	n.NIC.CellsSent++
	n.BytesSent += int64(len(frame))
	n.FramesSent++
	if tr := n.Env.Tracer(); tr != nil {
		tr.Count(n.nicTxKey, int64(len(cells)))
		tr.Count("cluster.frames.sent", 1)
	}
}

// txDone ends a non-final cell's charge and pushes the cell.
func (n *Node) txDone() {
	n.tx.end()
	n.txPut()
}

// txPut pushes the current cell into the TX FIFO, waiting for space while
// it is full, and starts the next cell's charge.
func (n *Node) txPut() {
	if n.NIC.TX.Full() {
		n.NIC.TX.OnSpace(n.txPutFn)
		return
	}
	n.NIC.TX.TryPut(n.txCells[n.txCell])
	n.NIC.CellsSent++
	n.txCell++
	n.tx.last = n.txCell == len(n.txCells)-1
	n.tx.begin()
}

// drain is the per-node RX daemon. Cells are taken, charged and
// reassembled by callbacks (rxNext, then the rx charge); the daemon
// resumes only at the charge end of a frame's last cell, to complete the
// frame and run its handler in process context.
func (n *Node) drain(p *des.Proc) {
	n.rx.owner = p
	for {
		n.rxNext()
		p.Park()
		n.rx.end()
		n.dispatch(p, n.rxCell)
	}
}

// rxNext takes cells off the RX FIFO until one has to wait: for a cell to
// arrive, for the CPU, or for its drain charge to end.
func (n *Node) rxNext() {
	for {
		c, ok := n.NIC.RX.TryGet()
		if !ok {
			n.NIC.RX.OnItem(n.rxNextFn)
			return
		}
		if n.failed {
			continue // a dead machine absorbs cells silently
		}
		n.NIC.CellsReceived++
		if tr := n.Env.Tracer(); tr != nil {
			tr.Count(n.nicRxKey, 1)
		}
		// The surcharge function sees the stored cell, not c: a slice of
		// c handed to a function value would move c to the heap, one
		// allocation per received cell.
		n.rxCell = c
		src := c.VCI.Src()
		sur := n.surch[src]
		if sur < 0 {
			// First cell of a frame: its body starts with the protocol
			// byte, which decides the per-cell deposit surcharge.
			sur = 0
			if f, ok := n.perCell[c.Payload[0]]; ok {
				sur = f(n.rxCell.Payload[1:])
			}
			n.surch[src] = sur
		}
		n.rx.cost, n.rx.last = n.P.CellDrainRx+sur, c.Last
		n.rx.begin()
		return
	}
}

// rxDone ends a non-final cell's charge and deposits it for reassembly.
func (n *Node) rxDone() {
	n.rx.end()
	n.reasm.Add(n.rxCell) // only a last cell completes a frame
	n.rxNext()
}

// cellCharge is one cell's CPU charge run as callbacks: claim the CPU or
// queue for it, hold it for cost, and at the charge end call done or, for
// a frame's last cell, resume the parked owner process. Each step takes
// the event the owner's UseCPU would have (its grant, its Sleep), so the
// charge orders exactly as a per-cell process loop did.
type cellCharge struct {
	n      *Node
	owner  *des.Proc
	cat    string
	cost   des.Duration
	start  des.Time
	last   bool
	done   func() // ends a non-final cell's charge
	holdFn func() // pre-bound hold
}

// begin claims the CPU for the charge, or queues for it.
func (c *cellCharge) begin() {
	if c.n.CPU.AcquireFunc(c.holdFn) {
		c.hold()
	}
}

// hold runs once the CPU is held and schedules the charge end.
func (c *cellCharge) hold() {
	c.start = c.n.Env.Now()
	end := c.start.Add(c.cost)
	if c.last {
		c.n.Env.ResumeAt(end, c.owner)
		return
	}
	c.n.Env.ScheduleFunc(end, c.done)
}

// end frees the CPU and accounts the charge.
func (c *cellCharge) end() { c.n.release(c.cat, c.start, c.cost) }

// dispatch completes the frame whose last cell is c and hands it to its
// protocol's handler.
func (n *Node) dispatch(p *des.Proc, c atm.Cell) {
	frame, _, err := n.reasm.Add(c) // a last cell always completes its frame
	n.surch[c.VCI.Src()] = -1
	if err != nil {
		// Within the cluster, loss/corruption is catastrophic (§3);
		// record it so experiments can fail loudly on inspection.
		n.Faults = append(n.Faults, fmt.Errorf("node %d: %w", n.ID, err))
		return
	}
	n.FramesReceived++
	if len(frame) == 0 {
		n.reasm.Recycle(frame)
		return
	}
	h, ok := n.handlers[frame[0]]
	if !ok {
		n.Faults = append(n.Faults, fmt.Errorf("node %d: no handler for protocol %d", n.ID, frame[0]))
		n.reasm.Recycle(frame)
		return
	}
	h(p, c.VCI.Src(), frame[1:])
	// Handlers copy anything they keep (the reliable reply cache and
	// RPC results are built frames, not views of this one), so the
	// reassembly buffer can be reused for the next frame.
	n.reasm.Recycle(frame)
}

// KernelCall charges the CPU for a standard system-call entry/exit.
func (n *Node) KernelCall(p *des.Proc) {
	n.UseCPU(p, CatClient, n.P.KernelCall)
}

// Cluster is a set of nodes wired by a common topology.
type Cluster struct {
	Env   *des.Env
	P     *model.Params
	Nodes []*Node

	// Switch is non-nil when the topology uses one.
	Switch *atm.Switch
}

// Option configures cluster construction.
type Option func(*options)

type options struct {
	forceSwitch bool
	eng         *faults.Engine
}

// WithSwitch forces a switched topology even for two nodes (the paper's
// testbed is switchless; larger clusters need the switch).
func WithSwitch() Option { return func(o *options) { o.forceSwitch = true } }

// WithFaultEngine runs the cluster under a fault campaign: every link and
// switch hop consults the engine per cell, and the campaign's crash
// schedule is bound to the nodes' Fail/Recover.
func WithFaultEngine(eng *faults.Engine) Option { return func(o *options) { o.eng = eng } }

// New builds an n-node cluster. Two nodes are connected back-to-back (the
// paper's "pair of DECstations connected to a switchless ATM network")
// unless WithSwitch is given; three or more nodes always go through a
// switch.
func New(env *des.Env, p *model.Params, n int, opts ...Option) *Cluster {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	c := &Cluster{Env: env, P: p}
	for i := 0; i < n; i++ {
		node := &Node{
			ID:       i,
			Env:      env,
			P:        p,
			CPU:      des.NewResource(env, fmt.Sprintf("node%d.cpu", i), 1),
			NIC:      atm.NewInterface(env, p, i),
			handlers: make(map[byte]Handler),
			perCell:  make(map[byte]func([]byte) des.Duration),
			reasm:    atm.NewReassembler(),
			txLock:   des.NewResource(env, fmt.Sprintf("node%d.tx", i), 1),
			CPUAcct:  make(map[string]des.Duration),
			cpuTrack: fmt.Sprintf("node%d.cpu", i),
			cpuKeys:  make(map[string]string),
			nicTxKey: fmt.Sprintf("nic.node%d.tx.cells", i),
			nicRxKey: fmt.Sprintf("nic.node%d.rx.cells", i),
		}
		for s := range node.surch {
			node.surch[s] = -1
		}
		node.txPutFn, node.rxNextFn = node.txPut, node.rxNext
		node.tx = cellCharge{n: node, done: node.txDone}
		node.rx = cellCharge{n: node, cat: CatRx, done: node.rxDone}
		node.tx.holdFn, node.rx.holdFn = node.tx.hold, node.rx.hold
		env.SpawnDaemon(fmt.Sprintf("node%d.rxdrain", i), node.drain)
		c.Nodes = append(c.Nodes, node)
	}
	switch {
	case n == 2 && !o.forceSwitch:
		atm.DirectLinkEngine(env, p, c.Nodes[0].NIC, c.Nodes[1].NIC, o.eng)
	default:
		c.Switch = atm.NewSwitch(env, p)
		c.Switch.SetEngine(o.eng)
		for _, node := range c.Nodes {
			c.Switch.Attach(node.NIC)
		}
	}
	for _, node := range c.Nodes {
		node := node
		o.eng.BindNode(node.ID, node.Fail, node.Recover)
	}
	return c
}
