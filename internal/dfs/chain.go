package dfs

import (
	"encoding/binary"
	"fmt"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/rmem"
)

// Replica chains. A chain is the file service's one replication path: the
// primary pushes changed data buckets down an ordered chain (primary →
// R1 → … → Rk) with plain rmem WRITEs, the most-advanced member takes
// over when the primary dies, and any clerk holding a read token may
// READ any member's exported segment directly. A hot standby is the
// one-member chain (primary–backup as a chain of length one, van Renesse
// & Schneider, OSDI 2004) whose clerks keep no token cache, so nobody
// reads from it. Every bucket is framed as a remotely-readable seqlock
// record [ver | bucket | ver]: cells land FIFO per path, so a reader that
// races a landing frame sees head ≠ tail and falls back to the primary —
// no CAS, no server CPU, anywhere, ever, on the replica read path.
//
// Freshness is a version watermark: the primary exports a chain-state
// segment carrying a per-bucket version word (epoch in the high 32 bits);
// a read token's grant stamps the current value as the reader's floor
// (tokens.RWClient.SetChain) and a frame older than the floor is refused.
// Staleness between a write deposit and the next chain push is closed by
// the write token's recall fan-out: the writer marks the bucket's recall
// word and poisons a side word next to every member's frame before its
// grant returns, so a lagging replica cannot serve the pre-write bytes.
// The poison word lives OUTSIDE the seqlock frame: a recall never
// destroys the (acknowledged, possibly dirty) record the member holds,
// so TakeOver still grafts it after a crash.

// chainHdr is the chain segment's header: five geometry words (attr,
// name, link, data, dir bucket counts), the replica-set epoch, the
// member's position in the chain, and its 64-bit applied version
// (maintained by its forwarder; failover READs it to pick the most
// advanced member).
const chainHdr = 40

// chainHdrEpoch / chainHdrPos / ChainAppliedOff locate the header words.
const (
	chainHdrEpoch   = 20
	chainHdrPos     = 24
	ChainAppliedOff = 32
)

// chainStride is one bucket slot: a 4-byte poison word (recall side
// channel — not part of the relayed seqlock value) followed by the
// seqlock frame [ver u64 | record | ver u64]. Frame versions are 64-bit
// with the replica-set epoch in the high half, so they stay monotone
// across failover epochs for any realizable push count.
const chainStride = 4 + 8 + dataStride + 8

// chainPrefixLen covers the poison word plus the frame head — the slice a
// relayer re-checks (and re-pushes) after its downstream write completes,
// so an in-flight relay can never silently undo a recall poison landing
// between its snapshot and its completion.
const chainPrefixLen = 12

// ChainFrameLen is the length of one framed bucket — what a clerk READs
// to serve a block from a replica (poison word included).
const ChainFrameLen = chainStride

// ChainFrameOff returns the offset of bucket tok's slot (poison word
// first) in a chain member's exported segment.
func ChainFrameOff(tok int) int { return chainHdr + tok*chainStride }

// ChainHeadOff and ChainTailOff are the offsets of the frame's head and
// tail version words within a bucket slot.
const (
	ChainHeadOff = 4
	ChainTailOff = chainStride - 8
)

// ChainFramePrefix returns how many leading bytes of a bucket slot hold
// the first need bytes of its block: the poison word, the frame head, the
// record header and need record bytes. A whole-block read takes the whole
// slot, tail word included.
func ChainFramePrefix(need int) int {
	if need >= fstore.BlockSize {
		return ChainFrameLen
	}
	return chainPrefixLen + recHdr + need
}

// chainStateHdr is the chain-state header: epoch, member count, bucket
// count, reserved. Then per-bucket state entries, then per-member
// applied-version ack words.
const chainStateHdr = 16

// chainStateStride is one bucket's state entry:
//
//	+0  ver u64 — published frame version (epoch<<32 | seq), the floor a
//	    read grant stamps
//	+8  R u32 — recall marker, written by a writer's grant-time recall
//	    before it poisons the members
//	+12 D u32 — deposit marker, written (same value as R) when the writer
//	    downgrades/releases; R == D means the write-behind deposit is in
//	    the primary's data area
//	+16 C u32 — clean marker, written by the primary when a push carrying
//	    the post-deposit bytes has landed without a newer recall racing it
//	+20 pad
//
// A reader may stamp a floor only when R == D == C: any outstanding or
// not-yet-repushed recall refuses the stamp, so a version the primary
// aborted (a push that raced a recall) can never pass a reader's floor.
const chainStateStride = 24

// ChainStateVerOff returns the offset of bucket tok's state entry in the
// primary's chain-state segment — the READ a read token's grant performs
// to stamp its freshness watermark (version + recall markers, one read).
func ChainStateVerOff(tok int) int { return chainStateHdr + chainStateStride*tok }

// Offsets of the recall markers within a bucket's state entry.
const (
	ChainStateROff = 8  // recall marker (written at write grant)
	ChainStateDOff = 12 // deposit marker (written at downgrade/release)
	chainStateCOff = 16 // clean marker (written by the primary's push)
)

// ChainStateAckOff returns the offset of member i's applied-version ack
// word in a chain-state segment laid out for `buckets` data buckets.
func ChainStateAckOff(buckets, i int) int {
	return chainStateHdr + chainStateStride*buckets + 8*i
}

// chainStateSize sizes the chain-state segment.
func chainStateSize(buckets, members int) int {
	return chainStateHdr + chainStateStride*buckets + 8*members
}

// ParseChainFrame validates one bucket slot against a reader's token
// watermark and returns the block's first need bytes (fewer when the block
// is shorter). Only the slot's first ChainFramePrefix(need) bytes and its
// tail word are looked at, so a reader may fetch just those. A frame is
// served only when the poison word is clear (no outstanding recall on this
// member), the seqlock words agree and are even (no landing write), the
// version is at least minVer (at least as fresh as the token grant), and
// the record inside actually holds (h, block). Anything else returns
// false: the caller falls back to the primary.
func ParseChainFrame(frame []byte, h fstore.Handle, block int64, minVer uint64, need int) ([]byte, uint64, bool) {
	if len(frame) < chainStride {
		return nil, 0, false
	}
	if binary.BigEndian.Uint32(frame) != 0 {
		return nil, 0, false // recall poison
	}
	head := binary.BigEndian.Uint64(frame[ChainHeadOff:])
	tail := binary.BigEndian.Uint64(frame[ChainTailOff:])
	if head == 0 || head != tail || head%2 != 0 || head < minVer {
		return nil, head, false
	}
	rec := frame[12 : 12+dataStride]
	flag, key, sub, n := getHdr(rec)
	if (flag != flagValid && flag != flagDirty) || key != h || int64(sub) != block {
		return nil, head, false
	}
	if n < 0 || n > fstore.BlockSize {
		return nil, head, false
	}
	return append([]byte(nil), rec[recHdr:recHdr+min(n, need)]...), head, true
}

// ChainReplica is one member of a shard's replica chain: a node that
// exports one chain segment shaped like the primary's data area (framed),
// runs a forwarder daemon relaying landed frames to the next member, and
// acks its applied version upstream. Between acks it burns no cycles —
// propagation into it is pure data transfer (§3.1).
type ChainReplica struct {
	m   *rmem.Manager
	geo Geometry
	seg *rmem.Segment

	shadowVer []uint64             // per-bucket version as of the last forward pass
	filter    *bucketFilter        // frames the forward pass must revisit
	snap      []byte               // relay snapshot buffer, reused per relay
	prefix    [chainPrefixLen]byte // post-relay prefix re-push buffer
	ackWord   [8]byte              // applied-version ack buffer
	next      *rmem.Import         // downstream member's chain segment; nil = tail
	ack       *rmem.Import         // primary's chain-state segment (ack words)
	ackOff    int
	epoch     uint32
	applied   uint64
	running   bool
	stopped   bool
	onSplice  func(p *des.Proc)

	// Stats.
	Forwarded int64 // frames relayed downstream
	Acked     int64 // ack words written upstream
	Restored  int64 // dirty buckets grafted by TakeOver
	Spliced   int64 // downstream members dropped after push failures
	Repaired  int64 // post-relay prefix re-pushes (poison races caught)
}

// NewChainReplica exports the chain segment on m's node. The geometry
// must match the primary's (AttachChain stamps it; TakeOver verifies).
func NewChainReplica(p *des.Proc, m *rmem.Manager, geo Geometry) *ChainReplica {
	geo.fill()
	cr := &ChainReplica{m: m, geo: geo, shadowVer: make([]uint64, geo.DataBuckets)}
	cr.seg = m.Export(p, chainHdr+geo.DataBuckets*chainStride)
	// Upstream WRITEs frames in, clerks READ them out, write-token recall
	// WRITEs poison words — no CAS ever.
	cr.seg.SetDefaultRights(rmem.RightRead | rmem.RightWrite)
	cr.filter = newBucketFilter(cr.seg, nil, chainHdr, chainStride, geo.DataBuckets)
	return cr
}

// ChainSeg exposes the chain segment's coordinates.
func (cr *ChainReplica) ChainSeg() (id, gen uint16, size int) {
	return cr.seg.ID(), cr.seg.Gen(), cr.seg.Size()
}

// Node returns the member's node; Manager its memory manager.
func (cr *ChainReplica) Node() *cluster.Node    { return cr.m.Node }
func (cr *ChainReplica) Manager() *rmem.Manager { return cr.m }

// Applied returns the member's applied version watermark (epoch in the
// high 32 bits); Epoch the replica-set epoch it last saw.
func (cr *ChainReplica) Applied() uint64 { return cr.applied }
func (cr *ChainReplica) Epoch() uint32   { return cr.epoch }

// OnSplice installs the callback fired (once) when a downstream push
// fails — the shard tier re-chains around the dead member and proposes
// the new chain membership as a decree.
func (cr *ChainReplica) OnSplice(fn func(p *des.Proc)) { cr.onSplice = fn }

// wire points the member at its downstream neighbour and its upstream
// ack slot. Called by the primary's AttachChain (and again on a splice
// or promote re-chain).
func (cr *ChainReplica) wire(next, ack *rmem.Import, ackOff int, epoch uint32) {
	cr.next, cr.ack, cr.ackOff, cr.epoch = next, ack, ackOff, epoch
}

// start spawns the forwarder daemon (idempotent across re-chains).
func (cr *ChainReplica) start(interval des.Duration) {
	if cr.running {
		return
	}
	cr.running = true
	// A quiet pass still refreshes the epoch from the header, so the idle
	// check does too.
	idle := func() bool {
		if cr.m.Node.Failed() || cr.stopped {
			return false
		}
		cr.readEpoch()
		return cr.filter.quiet()
	}
	cr.m.Node.Env.SpawnDaemon(fmt.Sprintf("dfs.chain.%d", cr.m.Node.ID), func(p *des.Proc) {
		for {
			p.SleepWhile(interval, idle)
			if cr.m.Node.Failed() || cr.stopped {
				return
			}
			cr.forwardPass(p)
		}
	})
}

// readEpoch refreshes the member's replica-set epoch from its header.
func (cr *ChainReplica) readEpoch() {
	cr.epoch = binary.BigEndian.Uint32(cr.seg.Bytes()[chainHdrEpoch:])
}

// forwardPass relays every stable new frame downstream, advances the
// member's applied watermark (header word — one-sided READable by the
// failover prober), and acks its applied version into the primary's
// chain-state segment. A frame is relayed only when its poison word is
// clear and its seqlock words agree and are even: a landing upstream
// write or a recall poison is skipped and picked up on a later pass.
//
// The relay itself can race a recall: the poison campaign writes the
// members in chain order, so a poison can land HERE before the snapshot
// but at the DOWNSTREAM member before our (sleeping, retransmitting)
// relay completes — the relay would then silently clobber the downstream
// poison with a clean pre-write frame. So after the push returns, the
// local prefix (poison + head) is re-read: if it no longer matches the
// snapshot, whatever superseded it — a poison, a newer frame landing —
// is re-pushed as a prefix, restoring the downstream poison or tearing
// the downstream frame. The campaign's ordering guarantees the local
// prefix has changed by the time the racing relay completes.
//
// Only frames stored into since they were last settled are looked at
// (bucketFilter); a pass finding no store into the segment since the last
// full pass, which left nothing pending, returns at once.
func (cr *ChainReplica) forwardPass(p *des.Proc) {
	buf := cr.seg.Bytes()
	cr.readEpoch()
	f := cr.filter
	if !f.begin() {
		return
	}
	maxApplied := cr.applied
	changed := false
	for b := 0; b < cr.geo.DataBuckets; b++ {
		if !f.stale(b) {
			continue
		}
		at := f.now()
		lo := chainHdr + b*chainStride
		frame := buf[lo : lo+chainStride]
		if binary.BigEndian.Uint32(frame) != 0 {
			f.settle(b, at)
			continue // recall poison: not relayable, not servable
		}
		head := binary.BigEndian.Uint64(frame[4:])
		tail := binary.BigEndian.Uint64(frame[chainStride-8:])
		if head == 0 || head != tail || head%2 != 0 || head == cr.shadowVer[b] {
			f.settle(b, at)
			continue
		}
		if cr.next == nil {
			f.settle(b, at)
		} else {
			// Snapshot before the (reliable, sleeping) push: an upstream
			// frame landing mid-push must not tear the relayed copy.
			cr.snap = append(cr.snap[:0], frame...)
			if err := cr.next.WriteBlock(p, lo, cr.snap, false); err != nil {
				f.hold()
				cr.splice(p)
			} else {
				f.settle(b, at)
				cr.Forwarded++
				if tr := cr.m.Node.Env.Tracer(); tr != nil {
					tr.Count("dfs.chain.forwarded", 1)
				}
				// Post-relay re-check: did a poison (or a newer frame) land
				// here while the relay was in flight?
				if binary.BigEndian.Uint32(frame) != 0 ||
					binary.BigEndian.Uint64(frame[4:]) != head {
					copy(cr.prefix[:], frame)
					if err := cr.next.WriteBlock(p, lo, cr.prefix[:], false); err != nil {
						cr.splice(p)
					} else {
						cr.Repaired++
						if tr := cr.m.Node.Env.Tracer(); tr != nil {
							tr.Count("dfs.chain.repaired", 1)
						}
					}
				}
			}
		}
		cr.shadowVer[b] = head
		if head > maxApplied {
			maxApplied = head
		}
		changed = true
	}
	if changed || maxApplied != cr.applied {
		cr.applied = maxApplied
		binary.BigEndian.PutUint64(buf[ChainAppliedOff:], cr.applied)
		if cr.ack != nil {
			binary.BigEndian.PutUint64(cr.ackWord[:], cr.applied)
			if err := cr.ack.WriteBlock(p, cr.ackOff, cr.ackWord[:], false); err == nil {
				cr.Acked++
			}
		}
	}
}

// splice drops the dead downstream member and fires the re-chain hook.
func (cr *ChainReplica) splice(p *des.Proc) {
	cr.next = nil
	cr.Spliced++
	if tr := cr.m.Node.Env.Tracer(); tr != nil {
		tr.Count("dfs.chain.splices", 1)
	}
	if fn := cr.onSplice; fn != nil {
		cr.onSplice = nil
		fn(p)
	}
}

// TakeOver promotes the member to the live file service, run on the
// most-advanced member after the primary dies: a new server incarnation
// over the surviving store (fresh segment ids and generations, this
// node's epoch), with every stable *dirty* frame grafted into the new
// data area (still dirty, so the next Sync applies the write-behind the
// dead primary never flushed). A torn frame (head ≠ tail, or odd: a push
// was landing when the primary died) is skipped, and the store keeps that
// block's last synced bytes. The recall poison word is deliberately
// ignored: a poison marks the frame unservable to READERS, but the
// record under it is the last acknowledged write-behind state this
// member applied — destroying it on promotion would lose durable data
// the dead primary had already acked. The forwarder stops: this node is
// the chain head now.
func (cr *ChainReplica) TakeOver(p *des.Proc, store *fstore.Store, nodes int, opts ...ServerOption) (*Server, error) {
	buf := cr.seg.Bytes()
	if db := binary.BigEndian.Uint32(buf[12:]); db != 0 && int(db) != cr.geo.DataBuckets {
		return nil, fmt.Errorf("dfs: chain takeover: geometry mismatch (primary %d data buckets, replica %d)",
			db, cr.geo.DataBuckets)
	}
	cr.stopped = true
	srv := NewServer(p, cr.m, nodes, cr.geo, append([]ServerOption{WithStore(store)}, opts...)...)
	for b := 0; b < cr.geo.DataBuckets; b++ {
		lo := chainHdr + b*chainStride
		frame := buf[lo : lo+chainStride]
		head := binary.BigEndian.Uint64(frame[4:])
		tail := binary.BigEndian.Uint64(frame[chainStride-8:])
		if head == 0 || head != tail || head%2 != 0 {
			continue
		}
		rec := frame[12 : 12+dataStride]
		if flag, _, _, _ := getHdr(rec); flag != flagDirty {
			continue
		}
		copy(srv.storeData(b*dataStride, dataStride), rec[:dataStride])
		cr.Restored++
	}
	if tr := cr.m.Node.Env.Tracer(); tr != nil {
		tr.Count("dfs.chain.takeovers", 1)
		tr.Count("dfs.chain.restored", cr.Restored)
	}
	return srv, nil
}
