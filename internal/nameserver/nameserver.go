// Package nameserver implements the paper's simple segment name service
// (§4): a logically centralized registry of exported segment names that is
// physically a distributed collection of clerks, one per machine, with no
// central server. Clerks communicate exclusively through the remote-memory
// primitives — lookups are remote reads of other clerks' registries.
//
// Each clerk exports a well-known registry segment organized as an
// open-addressed hash table. Every clerk uses the same hash function, so
// an importing clerk can usually locate a name on the exporting machine
// with a single remote read of the corresponding bucket. On a probe miss
// (hash collision on the remote side) the clerk follows a configurable
// policy: keep probing with remote reads, transfer control immediately, or
// probe a few times and then transfer control — exactly the three options
// §4.2 enumerates.
package nameserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/lrpc"
	"netmem/internal/rmem"
)

// Well-known descriptor ids, reserved on every machine so the name service
// can bootstrap itself (§4.1: "certain well-known segment names have been
// reserved on each machine").
const (
	// RegistrySeg holds the clerk's hash-table registry of local exports.
	RegistrySeg uint16 = 0x0100
	// RequestSeg receives control-transfer lookup requests (one slot per
	// peer node); writes to it carry the notify bit.
	RequestSeg uint16 = 0x0101
	// ReplySeg receives records written back by remote clerks answering a
	// control-transfer lookup (one slot per peer node).
	ReplySeg uint16 = 0x0102
)

// The clerk boots before any other exports on its node, so its three
// well-known segments carry the kernel's first three generation numbers.
// Peers install descriptors against these without a handshake.
const (
	registryGen uint16 = 1
	requestGen  uint16 = 2
	replyGen    uint16 = 3
)

// MaxName is the longest registrable name. The limit keeps a registry
// record (flag + generation + location + name) within a single ATM cell's
// worth of remote read, which is what makes one-probe lookups cheap —
// §4.3: "the information that is retrieved on a lookup operation fits in a
// single ATM cell".
const MaxName = 20

// record layout inside the registry (all big-endian):
//
//	word 0: flag       (0 = empty, 1 = valid, 2 = tombstone)
//	word 1: epoch(16) | generation(16)  (exporter incarnation | segment generation)
//	word 2: segID(16) | owner node(16)
//	word 3: segment size
//	bytes 16..35: name, NUL-padded
//
// The epoch rides in word 1's previously-zero high half, so the record
// size — and with it Table 3's one-cell lookup calibration — is unchanged.
//
// 36 bytes are read remotely per probe; buckets are padded to a 40-byte
// stride for alignment.
const (
	recRead   = 36
	recStride = 40

	flagEmpty     = 0
	flagValid     = 1
	flagTombstone = 2
)

// DefaultBuckets is the default registry hash-table size (prime).
const DefaultBuckets = 509

// request/reply slot layout for control-transfer lookups.
const (
	reqSlotSize = 24 // name (20) + pad
	repSlotSize = 40 // flag word (4) + record (36)
)

// Errors.
var (
	ErrNotFound  = errors.New("nameserver: name not found")
	ErrExists    = errors.New("nameserver: name already exported")
	ErrTableFull = errors.New("nameserver: registry full")
	ErrBadName   = errors.New("nameserver: invalid name")
	ErrNoHint    = errors.New("nameserver: name not cached and no hint node supplied")
	// ErrPeerFenced reports a lookup routed at a peer the recovery layer
	// has declared dead; the caller should wait for a rebind instead of
	// burning a timeout against a machine known to be down.
	ErrPeerFenced = errors.New("nameserver: peer is fenced (declared dead)")
	// ErrNotReady reports an operation issued before the clerk's boot
	// process has exported its well-known segments. Boot is asynchronous
	// (clerks spawn at machine start), so early callers see this instead
	// of a crash and should retry with capped backoff rather than assume
	// the name service always boots first.
	ErrNotReady = errors.New("nameserver: clerk still booting")
)

// LookupPolicy selects how a clerk resolves a remote probe miss (§4.2's
// three options).
type LookupPolicy int

const (
	// ProbeForever keeps issuing remote reads on successive buckets until
	// the record is found or the table is exhausted (the paper's choice:
	// "that gives us the best performance" — control transfer only pays
	// off past about seven collisions).
	ProbeForever LookupPolicy = iota
	// ControlTransfer immediately asks the remote clerk to do the lookup
	// via a remote write with notification.
	ControlTransfer
	// ProbeThenTransfer probes ProbeLimit buckets, then transfers control.
	ProbeThenTransfer
)

// Config tunes a clerk.
type Config struct {
	Buckets      int          // registry buckets; 0 ⇒ DefaultBuckets
	Policy       LookupPolicy // remote lookup policy; default ProbeForever
	ProbeLimit   int          // probes before transfer under ProbeThenTransfer; 0 ⇒ 7
	RefreshEvery des.Duration // cache refresh period; 0 ⇒ no periodic daemon
}

func (c *Config) fill() {
	if c.Buckets <= 0 {
		c.Buckets = DefaultBuckets
	}
	if c.ProbeLimit <= 0 {
		c.ProbeLimit = 7
	}
}

// Record is the parsed form of a registry entry.
type Record struct {
	Name  string
	Node  int
	Seg   uint16
	Gen   uint16
	Epoch uint16 // exporter incarnation the segment was exported under
	Size  int
}

// Clerk is the per-machine name-service agent. It is trusted and
// privileged; its clients are kernels, reached through local RPC.
type Clerk struct {
	cfg Config
	m   *rmem.Manager
	srv *lrpc.Server

	registry *rmem.Segment // well-known exported hash table (local exports)
	request  *rmem.Segment // control-transfer request slots
	reply    *rmem.Segment // control-transfer reply slots

	peerReg map[int]*rmem.Import // imported peer registries
	peerReq map[int]*rmem.Import // imported peer request segments
	peerRep map[int]*rmem.Import // imported peer reply segments

	// cache holds imported (remote) name records; local exports live in
	// the registry segment itself.
	cache map[string]Record
	// kernelImports tracks the rmem descriptors handed out per name so a
	// refresh can poison them when the record goes stale (§4.1: purged
	// "from the name cache and from the kernel's tables").
	kernelImports map[string][]*rmem.Import

	// fenced marks peers the recovery layer has declared dead: the refresh
	// daemon skips their records and lookups routed at them fail fast with
	// ErrPeerFenced instead of a timeout storm.
	fenced map[int]bool

	// Stats.
	RemoteProbes     int64 // remote reads issued for lookups
	ControlTransfers int64 // lookups resolved via control transfer
	CacheHits        int64
	CacheMisses      int64
	Purged           int64 // cache entries dropped by refresh
	FencedSkips      int64 // refresh probes suppressed against fenced peers
}

// New creates the clerk on m's node, exports its well-known segments, and
// installs descriptors for every peer's well-known segments. Peer clerks
// are created at boot on every machine (paper: "name clerks are created at
// boot time"), so the well-known ids and first-generation numbers are
// architectural constants and need no handshake.
func New(m *rmem.Manager, peers []int, cfg Config) *Clerk {
	cfg.fill()
	c := &Clerk{
		cfg:           cfg,
		m:             m,
		srv:           lrpc.NewServer(m.Node, "nameserver"),
		peerReg:       make(map[int]*rmem.Import),
		peerReq:       make(map[int]*rmem.Import),
		peerRep:       make(map[int]*rmem.Import),
		cache:         make(map[string]Record),
		kernelImports: make(map[string][]*rmem.Import),
		fenced:        make(map[int]bool),
	}
	c.srv.Register("ADDNAME", c.addName)
	c.srv.Register("LOOKUPNAME", c.lookupName)
	c.srv.Register("DELETENAME", c.deleteName)

	env := m.Node.Env
	env.Spawn(fmt.Sprintf("nsclerk%d.boot", m.Node.ID), func(p *des.Proc) {
		c.registry = m.ExportWellKnown(p, RegistrySeg, cfg.Buckets*recStride)
		c.registry.SetDefaultRights(rmem.RightRead | rmem.RightWrite | rmem.RightCAS)
		c.request = m.ExportWellKnown(p, RequestSeg, 256*reqSlotSize)
		c.request.SetDefaultRights(rmem.RightWrite)
		c.reply = m.ExportWellKnown(p, ReplySeg, 256*repSlotSize)
		c.reply.SetDefaultRights(rmem.RightWrite)
		for _, peer := range peers {
			if peer == m.Node.ID {
				continue
			}
			c.peerReg[peer] = m.Import(p, peer, RegistrySeg, registryGen, cfg.Buckets*recStride)
			c.peerReq[peer] = m.Import(p, peer, RequestSeg, requestGen, 256*reqSlotSize)
			c.peerRep[peer] = m.Import(p, peer, ReplySeg, replyGen, 256*repSlotSize)
		}
		c.request.OnNotify(c.serveControlLookup)
		if cfg.RefreshEvery > 0 {
			env.SpawnDaemon(fmt.Sprintf("nsclerk%d.refresh", m.Node.ID), func(rp *des.Proc) {
				for {
					rp.Sleep(cfg.RefreshEvery)
					c.RefreshNow(rp)
				}
			})
		}
	})
	return c
}

// Node returns the clerk's node.
func (c *Clerk) Node() *cluster.Node { return c.m.Node }

// hash is the identical-everywhere bucket function (§4.2: "each clerk uses
// the same hash function ... information about a particular name will be
// in the same position on all the clerks").
func (c *Clerk) hash(name string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(c.cfg.Buckets))
}

func validName(name string) error {
	if name == "" || len(name) > MaxName || strings.IndexByte(name, 0) >= 0 {
		return ErrBadName
	}
	return nil
}

// ---------------------------------------------------------------------------
// Registry records.

func packRecord(buf []byte, r Record, flag uint32) {
	binary.BigEndian.PutUint32(buf[0:], flag)
	binary.BigEndian.PutUint32(buf[4:], uint32(r.Epoch)<<16|uint32(r.Gen))
	binary.BigEndian.PutUint32(buf[8:], uint32(r.Seg)<<16|uint32(r.Node)&0xffff)
	binary.BigEndian.PutUint32(buf[12:], uint32(r.Size))
	for i := 0; i < MaxName; i++ {
		if i < len(r.Name) {
			buf[16+i] = r.Name[i]
		} else {
			buf[16+i] = 0
		}
	}
}

func parseRecord(buf []byte) (flag uint32, r Record) {
	flag = binary.BigEndian.Uint32(buf[0:])
	gw := binary.BigEndian.Uint32(buf[4:])
	r.Gen = uint16(gw)
	r.Epoch = uint16(gw >> 16)
	loc := binary.BigEndian.Uint32(buf[8:])
	r.Seg = uint16(loc >> 16)
	r.Node = int(loc & 0xffff)
	r.Size = int(binary.BigEndian.Uint32(buf[12:]))
	name := buf[16 : 16+MaxName]
	if i := strings.IndexByte(string(name), 0); i >= 0 {
		name = name[:i]
	}
	r.Name = string(name)
	return flag, r
}
