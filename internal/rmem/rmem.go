// Package rmem implements the paper's contribution: a communication model
// based on remote network memory. Processes export segments — contiguous
// pieces of their virtual memory — which other nodes import and then access
// directly with non-blocking WRITE, READ, and compare-and-swap (CAS)
// meta-instructions at specified offsets. Segments are protected by rights
// and generation numbers; data transfer is completely decoupled from
// control transfer, which is an optional, separately-costed notification.
//
// The structure mirrors the paper's software emulation: meta-instructions
// trap into the kernel (a fixed MetaTrap charge), the kernel validates the
// access against descriptor tables, and cells flow through the ATM
// interface. On the receiving side the kernel deposits data directly into
// the destination process's memory with no involvement from that process —
// unless notification was requested, in which case the full Ultrix
// signal-path cost (Table 2's 260 µs) is charged and a notification record
// becomes readable from the segment's notifier, the analogue of the
// paper's per-segment file descriptor.
package rmem

import (
	"errors"
	"fmt"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/reliable"
)

// Proto is the cluster protocol id for remote-memory traffic.
const Proto byte = 0x01

// MsgRegisterCap is the largest WRITE that travels through the shared
// message registers (and hence in a single cell). The paper's hardware
// moves 10 4-byte words; our framing leaves room for 8 words plus the
// header in one 48-byte cell payload. Timing is per-cell, so Table 2 is
// unaffected by the 8-byte difference.
const MsgRegisterCap = 32

// MaxBlock is the largest single block transfer; bigger transfers are
// chunked by callers (the file service never exceeds 8 KiB anyway).
const MaxBlock = 32 * 1024

// Rights is the access mask a segment grants an importer.
type Rights uint8

const (
	// RightRead permits remote READ.
	RightRead Rights = 1 << iota
	// RightWrite permits remote WRITE.
	RightWrite
	// RightCAS permits remote compare-and-swap.
	RightCAS

	// RightsAll grants everything.
	RightsAll = RightRead | RightWrite | RightCAS
	// RightsNone revokes everything.
	RightsNone Rights = 0
)

// NotifyMode is the per-descriptor notification control flag (§3.1.1): the
// host chooses whether an arriving request notifies the destination
// process always, never, or only when the request's notify bit is set.
type NotifyMode uint8

const (
	// NotifyConditional notifies iff the request's notify bit is set.
	NotifyConditional NotifyMode = iota
	// NotifyAlways notifies on every arriving request.
	NotifyAlways
	// NotifyNever suppresses all notification.
	NotifyNever
)

// Op identifies a remote operation kind in notifications and accounting.
type Op uint8

const (
	OpWrite Op = iota + 1
	OpRead
	OpCAS
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpCAS:
		return "CAS"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Errors surfaced by the model. Remote failures arrive as NACKs and are
// mapped back to these.
var (
	ErrNoRights  = errors.New("rmem: access rights do not permit this operation")
	ErrBounds    = errors.New("rmem: offset/count outside segment")
	ErrStale     = errors.New("rmem: stale descriptor generation")
	ErrRevoked   = errors.New("rmem: segment revoked")
	ErrInhibited = errors.New("rmem: segment write-inhibited")
	ErrTimeout   = errors.New("rmem: operation timed out")
	ErrTooBig    = errors.New("rmem: transfer exceeds maximum size")
	ErrUnaligned = errors.New("rmem: word operation requires 4-byte alignment")

	// ErrStaleGeneration reports a fenced request that reached an exporter
	// which has restarted since the descriptor was leased: the epoch the
	// import carries no longer matches the exporter's incarnation. Unlike a
	// silent timeout, the typed NACK tells the requester its whole view of
	// the peer is stale and a re-import through the name service is needed.
	ErrStaleGeneration = errors.New("rmem: exporter restarted; descriptor lease fenced")
)

// nack codes on the wire.
const (
	nackNoRights = iota + 1
	nackBounds
	nackStale
	nackRevoked
	nackInhibited
	nackStaleGen
)

func nackErr(code byte) error {
	switch code {
	case nackNoRights:
		return ErrNoRights
	case nackBounds:
		return ErrBounds
	case nackStale:
		return ErrStale
	case nackRevoked:
		return ErrRevoked
	case nackInhibited:
		return ErrInhibited
	case nackStaleGen:
		return ErrStaleGeneration
	}
	return fmt.Errorf("rmem: unknown NACK code %d", code)
}

func errNack(err error) byte {
	switch {
	case errors.Is(err, ErrNoRights):
		return nackNoRights
	case errors.Is(err, ErrBounds):
		return nackBounds
	case errors.Is(err, ErrStale):
		return nackStale
	case errors.Is(err, ErrRevoked):
		return nackRevoked
	case errors.Is(err, ErrInhibited):
		return nackInhibited
	case errors.Is(err, ErrStaleGeneration):
		return nackStaleGen
	}
	return 0xff
}

// Notification is one control-transfer event delivered to a segment's
// notifier: who touched the segment, how, and where. The destination
// process typically reads the just-written request arguments out of the
// segment memory at [Offset, Offset+Count).
type Notification struct {
	Src    int // requesting node
	Op     Op
	Offset int
	Count  int
	At     des.Time // arrival time at the destination kernel
}

// Segment is an exported, pinned region of a process's virtual memory.
// Remote nodes address it by (descriptor id, generation).
type Segment struct {
	m   *Manager
	id  uint16
	gen uint16
	buf []byte

	defaultRights Rights
	nodeRights    map[int]Rights

	mode      NotifyMode
	inhibited bool
	revoked   bool

	notes    *des.FIFO[Notification]
	nwaiters *des.WaitQueue

	stamps *writeStamps // host-side write tracking; nil = untracked

	// Stats.
	RemoteWrites, RemoteReads, RemoteCAS int64
	Notifies                             int64
}

// ID returns the descriptor id.
func (s *Segment) ID() uint16 { return s.id }

// Gen returns the descriptor's generation number.
func (s *Segment) Gen() uint16 { return s.gen }

// Size returns the segment length in bytes.
func (s *Segment) Size() int { return len(s.buf) }

// Bytes exposes the backing memory. This is the *local* process's own
// view of its exported memory — reading it carries no simulated cost.
// Simulated-process code that wants local-access timing should use
// ReadLocal/WriteLocal.
func (s *Segment) Bytes() []byte { return s.buf }

// SetNotifyMode sets the descriptor's notification control flag.
func (s *Segment) SetNotifyMode(m NotifyMode) { s.mode = m }

// SetRights grants rights to a specific node, overriding the default.
func (s *Segment) SetRights(node int, r Rights) {
	if s.nodeRights == nil {
		s.nodeRights = make(map[int]Rights)
	}
	s.nodeRights[node] = r
}

// SetDefaultRights sets the rights for nodes with no specific grant.
func (s *Segment) SetDefaultRights(r Rights) { s.defaultRights = r }

func (s *Segment) rightsFor(node int) Rights {
	if r, ok := s.nodeRights[node]; ok {
		return r
	}
	return s.defaultRights
}

// SetWriteInhibit toggles the segment write-inhibit flag, the paper's
// synchronization mechanism (4): while set, incoming remote WRITEs and
// CASes are refused with a NACK.
func (s *Segment) SetWriteInhibit(v bool) { s.inhibited = v }

// WriteInhibited reports the flag.
func (s *Segment) WriteInhibited() bool { return s.inhibited }

// Manager is the per-node kernel component of the model: descriptor
// tables, pending-operation bookkeeping, and the protocol handler. One
// Manager exists per cluster node.
type Manager struct {
	Node *cluster.Node

	exports map[uint16]*Segment
	nextSeg uint16
	nextGen uint16 // monotonically increasing per export (§4.1)

	pending map[uint32]*pendingOp
	nextReq uint32

	// WriteFaults records NACKs received for fire-and-forget WRITEs, which
	// have no requester to deliver the error to.
	WriteFaults []error

	// track is this node's trace track for meta-instruction spans.
	track string

	// Reliability layer (§3.7, opt-in per import). relSend allocates
	// outgoing (generation, sequence) identities; relDedup enforces
	// at-most-once on arriving reliable requests; pendingAcks tracks
	// reliable WRITEs awaiting their WRACK.
	relCfg      reliable.Config
	relSend     *reliable.Sender
	relDedup    *reliable.Dedup
	pendingAcks map[uint32]*ackWait
	relDefault  bool

	// Lease epoch (§3.7 recovery). incarnation counts kernel restarts;
	// fenced requests carrying a different epoch are refused with
	// ErrStaleGeneration before they can touch the new incarnation's
	// memory. fenceDefault opts new imports into carrying the epoch.
	incarnation  uint16
	fenceDefault bool

	// bufs recycles read-result buffers (seqlock snapshots, local reads);
	// see Buffers.
	bufs BufPool
}

// ackWait is an outstanding reliable WRITE awaiting acknowledgement.
type ackWait struct {
	done bool
	err  error
	q    *des.WaitQueue
}

// NewManager creates the kernel component on a node and registers its
// protocol handler.
func NewManager(node *cluster.Node) *Manager {
	m := &Manager{
		Node:    node,
		exports: make(map[uint16]*Segment),
		nextSeg: 1,
		pending: make(map[uint32]*pendingOp),
		track:   fmt.Sprintf("node%d.rmem", node.ID),
		relCfg: reliable.Config{
			Timeout:    node.P.RetryTimeout,
			MaxBackoff: node.P.RetryBackoffMax,
			MaxRetries: node.P.RetryLimit,
		},
		relSend:     reliable.NewSender(),
		relDedup:    reliable.NewDedup(),
		pendingAcks: make(map[uint32]*ackWait),
	}
	node.RegisterProtoEx(Proto, m.handle, func(first []byte) des.Duration {
		if len(first) == 0 {
			return 0
		}
		switch first[0] & kindMask {
		case kindWrite, kindReadReply:
			// Data-bearing frames pay the translation-walk + copy cost for
			// every cell as it arrives.
			return node.P.DepositPerCell
		}
		return 0
	})
	return m
}

// Export pins size bytes of the caller's memory and installs a descriptor,
// charging the kernel's segment-creation cost (descriptor, generation
// number, pinning, translation entries). The new segment grants no remote
// rights until SetRights/SetDefaultRights.
func (m *Manager) Export(p *des.Proc, size int) *Segment {
	return m.exportAt(p, m.allocID(), size)
}

// ExportWellKnown is Export at a fixed descriptor id, used to bootstrap
// services that need segments at agreed addresses (the name service).
// It panics if the id is in use.
func (m *Manager) ExportWellKnown(p *des.Proc, id uint16, size int) *Segment {
	if _, busy := m.exports[id]; busy {
		panic(fmt.Sprintf("rmem: node %d: well-known segment %d already exported", m.Node.ID, id))
	}
	return m.exportAt(p, id, size)
}

func (m *Manager) allocID() uint16 {
	for {
		id := m.nextSeg
		m.nextSeg++
		if m.nextSeg == 0 { // skip 0: reserved as "no segment"
			m.nextSeg = 1
		}
		if _, busy := m.exports[id]; !busy {
			return id
		}
	}
}

func (m *Manager) exportAt(p *des.Proc, id uint16, size int) *Segment {
	// "Each time a segment is exported, the kernel assigns it a
	// monotonically increasing generation number" (§4.1). There are enough
	// bits that wrap-around is slow relative to clerks' deletion
	// propagation.
	m.nextGen++
	s := &Segment{
		m:        m,
		id:       id,
		gen:      m.nextGen,
		buf:      make([]byte, size),
		notes:    des.NewFIFO[Notification](m.Node.Env, fmt.Sprintf("seg%d.%d.notes", m.Node.ID, id), 0),
		nwaiters: des.NewWaitQueue(m.Node.Env),
	}
	m.exports[id] = s
	m.Node.UseCPU(p, cluster.CatClient, m.Node.P.SegmentCreate)
	return s
}

// Revoke makes the segment unavailable: subsequent remote requests carry a
// stale generation (or hit a revoked slot) and are NACKed. Charges the
// kernel teardown cost (unpin, purge translations).
func (m *Manager) Revoke(p *des.Proc, s *Segment) {
	s.revoked = true
	delete(m.exports, s.id)
	m.Node.UseCPU(p, cluster.CatClient, m.Node.P.SegmentTeardown)
}

// Lookup returns the exported segment with the given id, if live.
func (m *Manager) Lookup(id uint16) (*Segment, bool) {
	s, ok := m.exports[id]
	return s, ok
}

// SetReliableDefault makes imports installed after this call reliable (or
// not) by default; individual imports can still override with
// Import.SetReliable. Services opt whole managers in through their own
// options (dfs.WithReliable, nameserver.Config.Reliable, …).
func (m *Manager) SetReliableDefault(v bool) { m.relDefault = v }

// SetRetryPolicy overrides the manager's retry policy (defaults come from
// the model's RetryTimeout/RetryBackoffMax/RetryLimit).
func (m *Manager) SetRetryPolicy(cfg reliable.Config) { m.relCfg = cfg }

// BumpGeneration starts a new sender incarnation, as after a crash and
// restart: receivers discard any of the previous incarnation's frames
// still in flight, and outstanding ack waits are abandoned. netmem binds
// this to a fault campaign's node-recovery events.
func (m *Manager) BumpGeneration() {
	m.relSend.Bump()
	for seq, aw := range m.pendingAcks {
		delete(m.pendingAcks, seq)
		aw.err = ErrTimeout
		aw.done = true
		aw.q.WakeAll()
	}
}

// Incarnation returns the node's current lease epoch: the number of kernel
// restarts this Manager has been through. Fenced imports carry the epoch
// they were leased under; a mismatch is refused with ErrStaleGeneration.
func (m *Manager) Incarnation() uint16 { return m.incarnation }

// SetFenceDefault makes imports installed after this call carry the lease
// epoch (or not) by default; individual imports can override with
// Import.SetFence. Fenced small WRITEs may grow by two bytes on the wire —
// the price of restart fencing — so the calibrated experiments leave it
// off.
func (m *Manager) SetFenceDefault(v bool) { m.fenceDefault = v }

// Restart models a cold reboot of the node's kernel: every export is torn
// down (volatile descriptor tables do not survive), the id and generation
// counters reset — exactly the collision hazard that makes generation
// numbers alone insufficient across a reboot — and the incarnation number
// advances, fencing every descriptor leased by the previous life with
// ErrStaleGeneration. Outstanding local operations are abandoned with
// ErrTimeout and the reliability sender starts a new generation. No CPU is
// charged: the work happens while the machine is down. netmem.WithRecovery
// binds this to a fault campaign's node-recovery events.
func (m *Manager) Restart() {
	m.incarnation++
	for id, s := range m.exports {
		s.revoked = true
		delete(m.exports, id)
	}
	m.nextSeg = 1
	m.nextGen = 0
	for req, po := range m.pending {
		delete(m.pending, req)
		po.err = ErrTimeout
		po.done = true
		po.q.WakeAll()
	}
	m.BumpGeneration()
	if tr := m.Node.Env.Tracer(); tr != nil {
		tr.Count("rmem.restarts", 1)
	}
}

// Import installs a descriptor for a remote segment into the local kernel
// tables and returns the handle used to issue meta-instructions. The
// (node, id, gen, size) tuple normally comes from the name service.
func (m *Manager) Import(p *des.Proc, node int, id, gen uint16, size int) *Import {
	m.Node.UseCPU(p, cluster.CatClient, m.Node.P.ImportInstall)
	return &Import{m: m, node: node, segID: id, gen: gen, size: size, cat: cluster.CatClient,
		rel: m.relDefault, fence: m.fenceDefault}
}

// Import is an installed descriptor for a remote segment: the "descriptor
// register" named by meta-instructions.
type Import struct {
	m     *Manager
	node  int
	segID uint16
	gen   uint16
	size  int
	stale bool
	swap  bool   // byte-order conversion on transfers (§3.6)
	cat   string // CPU accounting category for operations on this import
	rel   bool   // route operations through the reliability layer
	fence bool   // carry the exporter-incarnation epoch on requests
	epoch uint16 // exporter incarnation this descriptor was leased under
}

// SetFence makes this descriptor's requests carry the exporter-incarnation
// epoch (the lease); SetEpoch records which incarnation the lease was
// taken from — the name service stamps it from the registry record, and
// direct wirings use the exporter's Manager.Incarnation(). A restarted
// exporter refuses mismatched epochs with ErrStaleGeneration instead of
// letting a stale descriptor silently time out — or worse, silently land
// in whatever the new incarnation exported under the recycled (id, gen).
func (i *Import) SetFence(v bool) { i.fence = v }

// SetEpoch records the exporter incarnation this descriptor was leased
// under (only consulted when the descriptor is fenced).
func (i *Import) SetEpoch(e uint16) { i.epoch = e }

// Fenced reports whether requests carry the lease epoch.
func (i *Import) Fenced() bool { return i.fence }

// Epoch returns the recorded exporter incarnation.
func (i *Import) Epoch() uint16 { return i.epoch }

// SetReliable routes this descriptor's operations through the reliability
// layer (§3.7): WRITEs block until acknowledged and retransmit on timeout,
// READ/CAS retransmit their requests, and the remote kernel applies each
// request at most once. Reliable small WRITEs grow from one cell to two
// (the 6-byte identity displaces payload past the 32-byte register cap's
// cell budget) — the price of an ack'd write. Unreliable imports are
// byte-for-byte identical to the calibrated model.
func (i *Import) SetReliable(v bool) { i.rel = v }

// Reliable reports whether operations use the reliability layer.
func (i *Import) Reliable() bool { return i.rel }

// SetByteOrderSwap marks this descriptor as crossing a byte-order
// boundary: writes are swapped word-wise as they deposit remotely, and
// read replies are swapped as they deposit locally — the LANCE-style
// in-transfer conversion of §3.6. Word sizes and floating-point formats
// beyond endianness would need presentation conversion, as the paper
// notes.
func (i *Import) SetByteOrderSwap(v bool) { i.swap = v }

// SetAccountCategory changes the CPU accounting category charged for
// operations issued through this descriptor. The default is client work;
// a server answering requests through remote writes tags its reply
// imports as reply work so Figure 3's breakdown attributes it correctly.
func (i *Import) SetAccountCategory(cat string) { i.cat = cat }

// Node returns the remote node the descriptor points at.
func (i *Import) Node() int { return i.node }

// ManagerNode returns the local node this descriptor is installed on.
func (i *Import) ManagerNode() *cluster.Node { return i.m.Node }

// SegID returns the remote descriptor id.
func (i *Import) SegID() uint16 { return i.segID }

// Gen returns the generation the descriptor was imported at.
func (i *Import) Gen() uint16 { return i.gen }

// Size returns the remote segment size.
func (i *Import) Size() int { return i.size }

// MarkStale poisons the descriptor locally: subsequent operations fail at
// the source with ErrStale, "allowing the source a chance to recover"
// (§4.1) — typically by re-importing through the name service.
func (i *Import) MarkStale() { i.stale = true }

// Stale reports whether the descriptor has been poisoned.
func (i *Import) Stale() bool { return i.stale }

// pendingOp tracks an outstanding READ or CAS awaiting its reply.
type pendingOp struct {
	op      Op
	dst     *Segment // READ: local segment the data lands in
	doff    int
	swap    bool
	done    bool
	err     error
	success bool     // CAS result
	start   des.Time // issue time at the requester (latency metrics)
	at      des.Time
	q       *des.WaitQueue

	// Reliability: the encoded request frame and routing info kept for
	// retransmission (nil frame = unreliable, no retries).
	relFrame []byte
	relDst   int
	relCat   string
	relBase  des.Duration // size-scaled per-attempt timeout base
}
