package dfs

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/hybrid"
	"netmem/internal/rmem"
)

// Server is the file-service machine: the file store plus its cache areas
// exported as remote memory segments, and the Hybrid-1 request channel
// that serves HY-mode calls, DX-mode cache misses, and metadata mutations.
type Server struct {
	m     *rmem.Manager
	Store *fstore.Store
	Geo   Geometry

	attr, name, link, data, dir, token *rmem.Segment

	hsrv     *hybrid.Server
	eager    []*rmem.Import // subscribed eager-update boards (§3.2)
	reliable bool           // WithReliableReplies: retransmitting outbound writes

	standby      *rmem.Import  // hot-standby mirror segment (AttachStandby)
	shadow       []byte        // data-area image as of the last mirror pass
	mirrorFilter *bucketFilter // data buckets the mirror pass must revisit
	guard        WriteGuard    // mutation gate (SetWriteGuard); nil allows all

	chainHead    *rmem.Import   // first chain member's segment (AttachChain)
	chainMembers []*rmem.Import // every member's segment, chain order (abort re-poison)
	chainState   *rmem.Segment  // exported version watermark / recall marker table
	chainShadow  []byte         // data-area image as of the last chain pass
	chainFilter  *bucketFilter  // data buckets the chain pass must revisit
	chainFrame   []byte         // framed-bucket snapshot buffer, reused per push
	chainSeq     uint64         // monotone frame version (epoch in high 32 bits)
	chainEpoch   uint32         // replica-set epoch
	chainDaemon  bool           // chain push daemon spawned

	// Stats.
	MissCalls    int64        // requests that reached the server procedure
	OpCounts     map[Op]int64 // per-op server procedure executions
	Synced       int64        // dirty blocks applied by Sync
	EagerPushes  int64        // attribute records pushed to subscribers
	Mirrored     int64        // data buckets pushed to the hot standby
	ChainPushes  int64        // framed buckets pushed down the replica chain
	ChainAborts  int64        // pushes aborted by a racing write-grant recall
	GuardDenials int64        // mutations refused by the write guard
}

// segRights grants clerks direct read/write/CAS access to a cache area.
const segRights = rmem.RightRead | rmem.RightWrite | rmem.RightCAS

// reqSlotCap bounds one request (an 8K write plus headers).
const reqSlotCap = fstore.BlockSize + 256

// NewServer builds the file service on m's node. nodes bounds the client
// population (slot allocation on the request channel).
func NewServer(p *des.Proc, m *rmem.Manager, nodes int, geo Geometry, opts ...ServerOption) *Server {
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	store := o.store
	if store == nil {
		store = fstore.New(func() int64 { return int64(m.Node.Env.Now()) })
	}
	geo.fill()
	s := &Server{
		m:        m,
		Store:    store,
		Geo:      geo,
		OpCounts: make(map[Op]int64),
	}
	export := func(size int) *rmem.Segment {
		seg := m.Export(p, size)
		seg.SetDefaultRights(segRights)
		return seg
	}
	s.attr = export(geo.AttrBuckets * attrStride)
	s.name = export(geo.NameBuckets * nameStride)
	s.link = export(geo.LinkBuckets * linkStride)
	s.data = export(geo.DataBuckets * dataStride)
	s.dir = export(geo.DirBuckets * dirStride)
	s.token = export(geo.DataBuckets * tokenStride)
	s.hsrv = hybrid.NewServer(p, m, nodes, reqSlotCap, s.serve)
	if o.reliable {
		s.reliable = true
		s.hsrv.SetReliable(true)
	}
	return s
}

// Areas returns the cache-area coordinates a clerk needs to import them:
// attr, name, link, data, dir, token — as (id, gen, size) triples.
func (s *Server) Areas() [6][3]int {
	pack := func(seg *rmem.Segment) [3]int {
		return [3]int{int(seg.ID()), int(seg.Gen()), seg.Size()}
	}
	return [6][3]int{
		pack(s.attr), pack(s.name), pack(s.link), pack(s.data), pack(s.dir), pack(s.token),
	}
}

// ReqChannel exposes the Hybrid-1 request segment coordinates.
func (s *Server) ReqChannel() (id, gen uint16, size int) { return s.hsrv.ReqSeg() }

// AttachClerk registers a clerk's reply segment on the request channel.
func (s *Server) AttachClerk(p *des.Proc, node int, segID, gen uint16, size int) {
	s.hsrv.AttachClient(p, node, segID, gen, size)
}

// Node returns the server's node (for CPU accounting in experiments).
func (s *Server) Node() *cluster.Node { return s.m.Node }

// DataDeposits counts remote writes landed in the data cache area — how a
// harness observes that a clerk's DX write deposit arrived without asking
// the server process anything.
func (s *Server) DataDeposits() int64 { return s.data.RemoteWrites }

// Deposits is DataDeposits: a lone server owns every handle h.
func (s *Server) Deposits(fstore.Handle) int64 { return s.DataDeposits() }

// Epoch returns the server's incarnation epoch — the lease value fenced
// clerks (WithFencing) stamp on every descriptor. A restarted server has a
// higher epoch, so operations against the dead incarnation fail fast with
// rmem.ErrStaleGeneration.
func (s *Server) Epoch() uint16 { return s.m.Incarnation() }

// ---------------------------------------------------------------------------
// Hot-standby mirroring. The only server state that cannot be rebuilt from
// the file store is write-behind data: dirty blocks that clerks deposited
// in the data area but Sync has not yet applied. AttachStandby mirrors
// exactly those buckets to a standby node with plain remote WRITEs — pure
// data transfer (§3.1): the standby's CPU is never interrupted, it just
// holds memory. On a primary crash, Standby.TakeOver grafts the mirrored
// dirty buckets into a fresh incarnation of the service.

// AttachStandby imports the standby's mirror segment, stamps its header,
// and spawns the mirror daemon pushing changed dirty buckets every
// interval. Call once, after warm-up, on the primary.
func (s *Server) AttachStandby(p *des.Proc, sb *Standby, interval des.Duration) {
	id, gen, size := sb.MirrorSeg()
	s.standby = s.m.Import(p, sb.Node().ID, id, gen, size)
	if s.reliable {
		s.standby.SetReliable(true)
	}
	hdr := make([]byte, mirrorHdr)
	binary.BigEndian.PutUint32(hdr[0:], uint32(s.Geo.AttrBuckets))
	binary.BigEndian.PutUint32(hdr[4:], uint32(s.Geo.NameBuckets))
	binary.BigEndian.PutUint32(hdr[8:], uint32(s.Geo.LinkBuckets))
	binary.BigEndian.PutUint32(hdr[12:], uint32(s.Geo.DataBuckets))
	binary.BigEndian.PutUint32(hdr[16:], uint32(s.Geo.DirBuckets))
	binary.BigEndian.PutUint32(hdr[20:], uint32(s.Epoch()))
	if err := s.standby.WriteBlock(p, 0, hdr, false); err != nil {
		s.m.WriteFaults = append(s.m.WriteFaults, fmt.Errorf("dfs: mirror header: %w", err))
	}
	s.shadow = append([]byte(nil), s.data.Bytes()...)
	s.mirrorFilter = newBucketFilter(s.data, nil, 0, dataStride, s.Geo.DataBuckets)
	s.m.Node.Env.SpawnDaemon(fmt.Sprintf("dfs.mirror.%d", s.m.Node.ID), func(p *des.Proc) {
		for {
			p.Sleep(interval)
			if s.m.Node.Failed() {
				return
			}
			s.mirrorPass(p)
		}
	})
}

// mirrorPass pushes every data bucket that changed since the last pass and
// involves dirty state — either it became dirty, or it was dirty and has
// since been applied (so the standby must not replay a stale block). Clean
// installs (warm-up, read misses) are reconstructible from the file store
// and are deliberately not mirrored: the steady-state mirror traffic is
// proportional to the write-behind window, not the cache size. Only
// buckets written since they were last settled are looked at (see
// bucketFilter).
func (s *Server) mirrorPass(p *des.Proc) {
	f := s.mirrorFilter
	if !f.begin() {
		return
	}
	buf := s.data.Bytes()
	for b := 0; b < s.Geo.DataBuckets; b++ {
		if !f.stale(b) {
			continue
		}
		lo := b * dataStride
		cur := buf[lo : lo+dataStride]
		old := s.shadow[lo : lo+dataStride]
		// Flags first: a clean bucket that was clean at the last push
		// compares no block bytes.
		curFlag := binary.BigEndian.Uint32(cur)
		oldFlag := binary.BigEndian.Uint32(old)
		if (curFlag != flagDirty && oldFlag != flagDirty) || bytes.Equal(cur, old) {
			f.settle(b, f.now())
			continue
		}
		if err := s.standby.WriteBlock(p, mirrorHdr+lo, cur, false); err != nil {
			s.m.WriteFaults = append(s.m.WriteFaults, fmt.Errorf("dfs: mirror bucket %d: %w", b, err))
			f.hold()
			return
		}
		copy(old, cur)
		f.settle(b, f.now())
		s.Mirrored++
		if tr := s.m.Node.Env.Tracer(); tr != nil {
			tr.Count("dfs.mirror.buckets", 1)
		}
	}
}

// ---------------------------------------------------------------------------
// Replica chain. AttachChain extends the standby mirror into an ordered
// read tier: the primary pushes every changed data bucket — clean warm
// installs included, because replicas serve reads — to the first chain
// member as a seqlock-framed record, and the members relay it onward
// (ChainReplica.forwardPass). The exported chain-state segment publishes a
// per-bucket (epoch, version) watermark that read-token grants stamp as
// their freshness floor, plus per-member ack words the failover prober
// compares to promote the most-advanced member.

// AttachChain wires the replica chain under this primary: exports the
// chain-state segment, stamps every member's header, points each member at
// its downstream neighbour and its ack slot, and spawns the push daemon.
// Call again (with a higher epoch) after a splice or a promotion to
// re-chain the survivors.
func (s *Server) AttachChain(p *des.Proc, epoch uint32, members []*ChainReplica, interval des.Duration) error {
	if len(members) == 0 {
		return fmt.Errorf("dfs: attach chain: no members")
	}
	buckets := s.Geo.DataBuckets
	st := s.m.Export(p, chainStateSize(buckets, len(members)))
	// Members WRITE ack words in; token grants READ watermarks out.
	st.SetDefaultRights(rmem.RightRead | rmem.RightWrite)
	s.chainState = st
	s.chainEpoch = epoch
	// Frame versions carry the epoch in their high 32 bits: monotone
	// across failover epochs for any realizable push count, and always
	// even (the sequence advances by 2) so a live version is never zero in
	// the low half either.
	s.chainSeq = uint64(epoch) << 32
	hdr := st.Bytes()
	binary.BigEndian.PutUint32(hdr[0:], epoch)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(members)))
	binary.BigEndian.PutUint32(hdr[8:], uint32(buckets))
	// Every bucket's floor starts at the epoch base: a surviving member's
	// old-epoch frame fails the floor of any token granted under this
	// chain until the new primary has re-pushed the bucket.
	for b := 0; b < buckets; b++ {
		binary.BigEndian.PutUint64(hdr[ChainStateVerOff(b):], uint64(epoch)<<32)
	}

	// Stamp each member's header and wire its forwarder. All chain plumbing
	// is retransmitting: a frame chunk silently lost between members would
	// otherwise leave head==tail around a stale body.
	mhdr := make([]byte, chainHdr)
	binary.BigEndian.PutUint32(mhdr[0:], uint32(s.Geo.AttrBuckets))
	binary.BigEndian.PutUint32(mhdr[4:], uint32(s.Geo.NameBuckets))
	binary.BigEndian.PutUint32(mhdr[8:], uint32(s.Geo.LinkBuckets))
	binary.BigEndian.PutUint32(mhdr[12:], uint32(buckets))
	binary.BigEndian.PutUint32(mhdr[16:], uint32(s.Geo.DirBuckets))
	stID, stGen, stSize := st.ID(), st.Gen(), st.Size()
	s.chainMembers = nil
	for i, cr := range members {
		id, gen, size := cr.ChainSeg()
		imp := s.m.Import(p, cr.Node().ID, id, gen, size)
		imp.SetReliable(true)
		binary.BigEndian.PutUint32(mhdr[chainHdrEpoch:], epoch)
		binary.BigEndian.PutUint32(mhdr[chainHdrPos:], uint32(i+1))
		if err := imp.WriteBlock(p, 0, mhdr, false); err != nil {
			return fmt.Errorf("dfs: chain header %d: %w", i, err)
		}
		if i == 0 {
			s.chainHead = imp
		}
		// Every member import is kept: an aborted push (one that raced a
		// write-grant recall) must be able to re-poison the whole chain,
		// not just the head.
		s.chainMembers = append(s.chainMembers, imp)
		var next *rmem.Import
		if i+1 < len(members) {
			nid, ngen, nsize := members[i+1].ChainSeg()
			next = cr.Manager().Import(p, members[i+1].Node().ID, nid, ngen, nsize)
			next.SetReliable(true)
		}
		ack := cr.Manager().Import(p, s.m.Node.ID, stID, stGen, stSize)
		ack.SetReliable(true)
		cr.wire(next, ack, ChainStateAckOff(buckets, i), epoch)
		cr.start(interval)
	}

	// A zero shadow (unlike the mirror's live snapshot): warm clean blocks
	// must reach the replicas too, since they serve reads, not just takeover.
	// A fresh filter leaves every bucket unsettled, so the next pass
	// compares everything against it.
	s.chainShadow = make([]byte, len(s.data.Bytes()))
	s.chainFilter = newBucketFilter(s.data, st, 0, dataStride, buckets)
	if !s.chainDaemon {
		s.chainDaemon = true
		s.chainFrame = make([]byte, chainStride)
		s.m.Node.Env.SpawnDaemon(fmt.Sprintf("dfs.chainpush.%d", s.m.Node.ID), func(p *des.Proc) {
			for {
				p.Sleep(interval)
				if s.m.Node.Failed() {
					return
				}
				s.chainPass(p)
			}
		})
	}
	return nil
}

// chainPass pushes every data bucket that changed — or that a resolved
// write-grant recall left poisoned — to the chain head as one framed
// record (poison word cleared) and publishes its new version in the
// chain-state table. The watermark is published only after the frame has
// landed at the head: a token granted at version v is always servable by
// a head that has caught up to v, and a lagging mid-chain member simply
// fails the floor check and the reader falls back to the primary.
//
// The recall markers gate every push. R != D means a writer recalled the
// bucket and its deposit has not landed yet: pushing now would clear the
// members' poison with pre-write bytes, so the bucket is skipped. R == D
// but C != R means the deposit is in (the D write rides the same
// writer→home circuit as the deposit, so FIFO ordering proves it landed
// first) and the bucket is re-pushed even when its bytes happen to be
// byte-identical — the push is what clears the poison. After the push
// lands, R is re-read: a recall that raced the push means the frame now
// sitting on the members may carry pre-recall bytes under a version a
// future floor would admit, so the push is aborted — the whole chain is
// re-poisoned in order and neither the version nor C is published. The
// aborted version number is thereby never admitted by any floor: floors
// are only stamped when R == D == C (tokens.RWClient.stampWatermark),
// and by then the published version exceeds every aborted one.
//
// The markers are read for every bucket on every pass that runs, but the
// bucket bytes are compared only when the data area was written under
// them since they were last settled (bucketFilter). A pass finding no
// write to the data area or the chain-state table since the last full
// pass, which left nothing pending, returns at once.
func (s *Server) chainPass(p *des.Proc) {
	f := s.chainFilter
	if !f.begin() {
		return
	}
	buf := s.data.Bytes()
	frame := s.chainFrame
	for b := 0; b < s.Geo.DataBuckets; b++ {
		st := s.chainState.Bytes() // remote marker writes land between sleeps
		entry := st[ChainStateVerOff(b):]
		r := binary.BigEndian.Uint32(entry[ChainStateROff:])
		d := binary.BigEndian.Uint32(entry[ChainStateDOff:])
		if r != d {
			f.hold()
			continue // recalled, deposit still in flight: keep the poison
		}
		cc := binary.BigEndian.Uint32(entry[chainStateCOff:])
		lo := b * dataStride
		cur := buf[lo : lo+dataStride]
		old := s.chainShadow[lo : lo+dataStride]
		at := f.now()
		if cc == r && (!f.stale(b) || bytes.Equal(cur, old)) {
			f.settle(b, at)
			continue
		}
		s.chainSeq += 2
		v := s.chainSeq
		// Snapshot into the frame before the (reliable, sleeping) push — a
		// deposit landing in this bucket mid-push must not tear the frame.
		// The leading zero word clears the members' recall poison.
		binary.BigEndian.PutUint32(frame, 0)
		binary.BigEndian.PutUint64(frame[4:], v)
		copy(frame[12:12+dataStride], cur)
		binary.BigEndian.PutUint64(frame[chainStride-8:], v)
		if err := s.chainHead.WriteBlock(p, ChainFrameOff(b), frame, false); err != nil {
			s.m.WriteFaults = append(s.m.WriteFaults, fmt.Errorf("dfs: chain bucket %d: %w", b, err))
			f.hold()
			return
		}
		st = s.chainState.Bytes()
		entry = st[ChainStateVerOff(b):]
		if binary.BigEndian.Uint32(entry[ChainStateROff:]) != r {
			// A recall landed while the push was in flight: the frame we just
			// planted may hold pre-recall bytes, and its version must never
			// become servable. Re-poison the whole chain in order (the same
			// head→tail discipline as the recall itself, so the forwarders'
			// post-relay re-checks hold) and publish nothing.
			f.hold()
			s.abortChainPush(p, b)
			continue
		}
		copy(old, frame[12:12+dataStride])
		f.settle(b, at)
		binary.BigEndian.PutUint64(entry[:8], v)
		binary.BigEndian.PutUint32(entry[chainStateCOff:], r)
		s.ChainPushes++
		if tr := s.m.Node.Env.Tracer(); tr != nil {
			tr.Count("dfs.chain.push", 1)
		}
	}
}

// abortChainPush re-poisons bucket b on every chain member after a push
// raced a write-grant recall. Ordered, acknowledged writes head→tail:
// any in-flight relay that clobbers a downstream poison completes after
// its local (upstream) poison landed, so the relayer's post-push
// re-check restores it.
func (s *Server) abortChainPush(p *des.Proc, b int) {
	s.ChainAborts++
	if tr := s.m.Node.Env.Tracer(); tr != nil {
		tr.Count("dfs.chain.abort", 1)
	}
	for _, imp := range s.chainMembers {
		// An unreachable member is not serving reads; skip and move on.
		_ = imp.WriteBlock(p, ChainFrameOff(b), chainPoison[:], false)
	}
}

// chainPoison is the recall poison word an aborted push re-plants. It is
// only ever read: WriteBlock copies what it sends before returning.
var chainPoison = [4]byte{0, 0, 0, 1}

// ChainState exposes the chain-state segment coordinates (watermark table
// + ack words) for clerks and the failover prober. HasChain reports
// whether a replica chain is attached.
func (s *Server) ChainState() (id, gen uint16, size int) {
	return s.chainState.ID(), s.chainState.Gen(), s.chainState.Size()
}
func (s *Server) HasChain() bool { return s.chainState != nil }

// ChainEpoch returns the replica-set epoch of the attached chain.
func (s *Server) ChainEpoch() uint32 { return s.chainEpoch }

// RemoteOps sums one-sided operations landed on every segment this server
// exports — the probe's evidence that a replica-served read touched the
// primary's memory system not at all.
func (s *Server) RemoteOps() int64 {
	var n int64
	for _, seg := range []*rmem.Segment{s.attr, s.name, s.link, s.data, s.dir, s.token, s.chainState} {
		if seg != nil {
			n += seg.RemoteReads + seg.RemoteWrites + seg.RemoteCAS
		}
	}
	return n
}

// MigrateBuckets implements shard rebalancing's data-transfer step with
// the paper's one-sided primitive. dst maps a resident bucket's key to the
// receiving server's imported data area (nil import, true = evict only;
// false = key did not move, leave the bucket alone). A moved dirty bucket
// is pushed whole to the receiver at the *same* bucket offset — both
// servers share one Geometry, so the offset is a pure function of the key —
// as a plain rmem WRITE: the receiver's CPU is never scheduled, cells land
// in its kernel drain loop. Clean residents carry no unreconstructible
// state (the shared store is authoritative) and are evicted to re-warm at
// the new owner. When clear is set, moved buckets are emptied locally: the
// donor must neither serve nor Sync a block it no longer owns.
func (s *Server) MigrateBuckets(p *des.Proc, dst func(fstore.Handle) (*rmem.Import, bool), clear bool) (pushed, cleared int, err error) {
	buf := s.data.Bytes()
	var snap []byte
	for b := 0; b < s.Geo.DataBuckets; b++ {
		lo := b * dataStride
		rec := buf[lo : lo+dataStride]
		flag, key, _, _ := getHdr(rec)
		if flag == flagEmpty {
			continue
		}
		imp, moved := dst(key)
		if !moved {
			continue
		}
		if flag == flagDirty && imp != nil {
			// Push a snapshot, not the live bucket: a reliable block write
			// sleeps awaiting per-chunk acks, and a frame depositing into
			// this bucket mid-push would tear the pushed record at a chunk
			// boundary.
			snap = append(snap[:0], rec...)
			if werr := imp.WriteBlock(p, lo, snap, false); werr != nil {
				return pushed, cleared, fmt.Errorf("dfs: migrate bucket %d: %w", b, werr)
			}
			pushed++
			if tr := s.m.Node.Env.Tracer(); tr != nil {
				tr.Count("dfs.migrate.buckets", 1)
			}
		}
		if clear {
			// The shadow copy is left alone: the next mirror pass sees the
			// dirty→empty transition and pushes the cleared bucket, so a
			// standby cannot replay a block the donor no longer owns.
			binary.BigEndian.PutUint32(s.storeData(lo, 4), flagEmpty)
			cleared++
		}
	}
	return pushed, cleared, nil
}

// ---------------------------------------------------------------------------
// Cache installation. The server fills its exported areas; clerks read
// them remotely. Install happens at warm-up and on every server procedure
// execution, so a served miss also populates the cache.

func (s *Server) installAttr(h fstore.Handle, a fstore.Attr) {
	off := s.Geo.attrOff(h)
	buf := s.attr.Bytes()[off:]
	putHdr(buf, flagValid, h, 0, attrLen)
	packAttr(buf[recHdr:], a)
}

// storeData returns n bytes of the data area at off for an owner store,
// marking them written so the pushers' bucket filters revisit them. Every
// store the server makes into its data area goes through here, called at
// the store with no blocking point before the bytes change.
func (s *Server) storeData(off, n int) []byte {
	s.data.MarkWritten(off, n)
	return s.data.Bytes()[off : off+n]
}

func (s *Server) dropAttr(h fstore.Handle) {
	off := s.Geo.attrOff(h)
	buf := s.attr.Bytes()[off:]
	if _, key, _, _ := getHdr(buf); key == h {
		binary.BigEndian.PutUint32(buf, flagEmpty)
	}
}

func (s *Server) installName(dir fstore.Handle, name string, child fstore.Handle, a fstore.Attr) {
	if len(name) > 20 {
		return // longer names always take the miss path
	}
	off := s.Geo.nameOff(dir, name)
	buf := s.name.Bytes()[off:]
	putHdr(buf, flagValid, dir, nameKeyHash(name), 20+8+attrLen)
	nb := buf[recHdr:]
	for i := 0; i < 20; i++ {
		if i < len(name) {
			nb[i] = name[i]
		} else {
			nb[i] = 0
		}
	}
	binary.BigEndian.PutUint64(nb[20:], child.U64())
	packAttr(nb[28:], a)
}

func (s *Server) dropName(dir fstore.Handle, name string) {
	if len(name) > 20 {
		return
	}
	off := s.Geo.nameOff(dir, name)
	buf := s.name.Bytes()[off:]
	if _, key, sub, _ := getHdr(buf); key == dir && sub == nameKeyHash(name) {
		binary.BigEndian.PutUint32(buf, flagEmpty)
	}
}

func (s *Server) installLink(h fstore.Handle, target string) {
	if len(target) > 64 {
		return
	}
	off := s.Geo.linkOff(h)
	buf := s.link.Bytes()[off:]
	putHdr(buf, flagValid, h, 0, len(target))
	copy(buf[recHdr:recHdr+64], make([]byte, 64))
	copy(buf[recHdr:], target)
}

func (s *Server) installData(h fstore.Handle, block int64, data []byte) {
	buf := s.storeData(s.Geo.dataOff(h, block), dataStride)
	putHdr(buf, flagValid, h, uint32(block), len(data))
	copy(buf[recHdr:recHdr+fstore.BlockSize], make([]byte, fstore.BlockSize))
	copy(buf[recHdr:], data)
}

func (s *Server) installDir(h fstore.Handle, chunk int64, data []byte) {
	off := s.Geo.dirOff(h, chunk)
	buf := s.dir.Bytes()[off:]
	putHdr(buf, flagValid, h, uint32(chunk), len(data))
	copy(buf[recHdr:recHdr+fstore.BlockSize], make([]byte, fstore.BlockSize))
	copy(buf[recHdr:], data)
}

func (s *Server) dropDir(h fstore.Handle) {
	// Directory contents changed: invalidate every chunk of this handle.
	for b := 0; b < s.Geo.DirBuckets; b++ {
		buf := s.dir.Bytes()[b*dirStride:]
		if flag, key, _, _ := getHdr(buf); flag != flagEmpty && key == h {
			binary.BigEndian.PutUint32(buf, flagEmpty)
		}
	}
}

// loadBlock installs the file block containing offset into the data cache
// and returns its contents.
func (s *Server) loadBlock(h fstore.Handle, block int64) ([]byte, error) {
	data, err := s.Store.Read(h, block*fstore.BlockSize, fstore.BlockSize)
	if err != nil {
		return nil, err
	}
	s.installData(h, block, data)
	return data, nil
}

// WarmFile loads a file's attributes, every data block, and (for
// symlinks) the target into the cache areas. WarmDir does the same for a
// directory's entries. The Figure 2/3 experiments run with 100 % server
// cache hit rates, exactly as the paper assumes.
func (s *Server) WarmFile(h fstore.Handle) error {
	a, err := s.Store.GetAttr(h)
	if err != nil {
		return err
	}
	s.installAttr(h, a)
	switch a.Type {
	case fstore.TypeFile:
		for b := int64(0); b*fstore.BlockSize < a.Size; b++ {
			if _, err := s.loadBlock(h, b); err != nil {
				return err
			}
		}
	case fstore.TypeSymlink:
		target, err := s.Store.ReadLink(h)
		if err != nil {
			return err
		}
		s.installLink(h, target)
	case fstore.TypeDir:
		return s.WarmDir(h)
	}
	return nil
}

// WarmDir loads a directory's serialized contents and per-entry lookup
// records into the cache areas.
func (s *Server) WarmDir(h fstore.Handle) error {
	ents, err := s.Store.ReadDir(h)
	if err != nil {
		return err
	}
	stream := serializeDir(ents)
	for c := int64(0); c*fstore.BlockSize < int64(len(stream)) || c == 0; c++ {
		lo := c * fstore.BlockSize
		hi := lo + fstore.BlockSize
		if hi > int64(len(stream)) {
			hi = int64(len(stream))
		}
		s.installDir(h, c, stream[lo:hi])
	}
	a, err := s.Store.GetAttr(h)
	if err != nil {
		return err
	}
	s.installAttr(h, a)
	for _, e := range ents {
		ea, err := s.Store.GetAttr(e.Handle)
		if err != nil {
			continue
		}
		s.installName(h, e.Name, e.Handle, ea)
	}
	return nil
}

// syncHandle applies dirty cached blocks belonging to one file.
func (s *Server) syncHandle(p *des.Proc, h fstore.Handle) error {
	for b := 0; b < s.Geo.DataBuckets; b++ {
		buf := s.data.Bytes()[b*dataStride:]
		flag, key, block, n := getHdr(buf)
		if flag != flagDirty || key != h {
			continue
		}
		s.m.Node.UseCPU(p, cluster.CatProc, ServiceTime(OpWrite, n))
		if _, err := s.Store.Write(key, int64(block)*fstore.BlockSize, buf[recHdr:recHdr+n]); err != nil {
			return fmt.Errorf("dfs: sync %v block %d: %w", key, block, err)
		}
		binary.BigEndian.PutUint32(s.storeData(b*dataStride, 4), flagValid)
		s.Synced++
	}
	return nil
}

// refreshCachedBlocks reloads every cached data block of h from the store
// (after a resize changed the file's extent).
func (s *Server) refreshCachedBlocks(h fstore.Handle) {
	for b := 0; b < s.Geo.DataBuckets; b++ {
		buf := s.data.Bytes()[b*dataStride:]
		if flag, key, block, _ := getHdr(buf); flag != flagEmpty && key == h {
			if _, err := s.loadBlock(h, int64(block)); err != nil {
				binary.BigEndian.PutUint32(s.storeData(b*dataStride, 4), flagEmpty)
			}
		}
	}
}

// Sync applies dirty data blocks (written directly into the cache by
// clerks) to the file store and clears their dirty flags — the write-
// behind step that needs no per-write control transfer. Returns the
// number of blocks applied.
func (s *Server) Sync(p *des.Proc) (int, error) {
	if !s.allowWrite(p) {
		// A fenced primary must not apply clerk deposits — the successor
		// has (or will have) the mirrored copies. Not an error: the sync
		// daemon keeps polling and resumes if the lease ever returns.
		return 0, nil
	}
	applied := 0
	for b := 0; b < s.Geo.DataBuckets; b++ {
		buf := s.data.Bytes()[b*dataStride:]
		flag, key, block, n := getHdr(buf)
		if flag != flagDirty {
			continue
		}
		// Applying a block is ordinary local file system work.
		s.m.Node.UseCPU(p, cluster.CatProc, ServiceTime(OpWrite, n))
		if _, err := s.Store.Write(key, int64(block)*fstore.BlockSize, buf[recHdr:recHdr+n]); err != nil {
			return applied, fmt.Errorf("dfs: sync %v block %d: %w", key, block, err)
		}
		binary.BigEndian.PutUint32(s.storeData(b*dataStride, 4), flagValid)
		a, err := s.Store.GetAttr(key)
		if err == nil {
			s.installAttr(key, a)
			s.pushAttr(p, key, a)
		}
		applied++
		s.Synced++
	}
	return applied, nil
}

// ---------------------------------------------------------------------------
// The server procedure: executes one request (HY call or DX miss),
// charging the measured warm-cache service time, installing results into
// the cache areas so subsequent DX accesses hit.

func (s *Server) serve(p *des.Proc, src int, reqBytes []byte) []byte {
	req, err := decodeRequest(reqBytes)
	if err != nil {
		return errReply(err)
	}
	s.MissCalls++
	s.OpCounts[req.Op]++
	if tr := s.m.Node.Env.Tracer(); tr != nil {
		tr.Count("dfs.server.calls", 1)
		tr.Count("dfs.server.op."+req.Op.String(), 1)
	}

	size := 0
	switch req.Op {
	case OpRead, OpReadDir:
		size = int(req.Count)
	case OpWrite:
		size = len(req.Data)
	}
	s.m.Node.UseCPU(p, cluster.CatProc, ServiceTime(req.Op, size))

	req.proc = p
	body, err := s.execute(req)
	if err != nil {
		return errReply(err)
	}
	return okReply(body)
}

func (s *Server) execute(req *request) ([]byte, error) {
	st := s.Store
	if mutates(req.Op) && !s.allowWrite(req.proc) {
		return nil, ErrFenced
	}
	switch req.Op {
	case OpNull:
		return nil, nil

	case OpGetAttr:
		a, err := st.GetAttr(req.Handle)
		if err != nil {
			// The handle no longer resolves (removed, perhaps by a request
			// another shard served): a stale cached record must not keep
			// satisfying DX probes.
			s.dropAttr(req.Handle)
			return nil, err
		}
		s.installAttr(req.Handle, a)
		out := make([]byte, attrLen)
		packAttr(out, a)
		return out, nil

	case OpSetAttr:
		if req.Size >= 0 {
			// A resize must serialize against write-behind data: apply
			// this file's dirty cached blocks first, then refresh the
			// cache to the post-truncate contents.
			if err := s.syncHandle(req.proc, req.Handle); err != nil {
				return nil, err
			}
		}
		a, err := st.SetAttr(req.Handle, req.Mode, 0, 0, req.Size)
		if err != nil {
			return nil, err
		}
		if req.Size >= 0 {
			s.refreshCachedBlocks(req.Handle)
		}
		s.installAttr(req.Handle, a)
		s.pushAttr(req.proc, req.Handle, a)
		out := make([]byte, attrLen)
		packAttr(out, a)
		return out, nil

	case OpLookup:
		child, a, err := st.Lookup(req.Dir, req.Name)
		if err != nil {
			// Same reasoning as OpGetAttr: the name is gone, so drop any
			// stale cached record for it.
			s.dropName(req.Dir, req.Name)
			return nil, err
		}
		s.installName(req.Dir, req.Name, child, a)
		s.installAttr(child, a)
		out := binary.BigEndian.AppendUint64(nil, child.U64())
		out = append(out, make([]byte, attrLen)...)
		packAttr(out[8:], a)
		return out, nil

	case OpReadLink:
		target, err := st.ReadLink(req.Handle)
		if err != nil {
			return nil, err
		}
		s.installLink(req.Handle, target)
		return []byte(target), nil

	case OpRead:
		data, err := st.Read(req.Handle, req.Offset, int(req.Count))
		if err != nil {
			return nil, err
		}
		// Install the covered blocks so the clerk's next access hits.
		for b := req.Offset / fstore.BlockSize; b*fstore.BlockSize < req.Offset+int64(req.Count); b++ {
			if _, err := s.loadBlock(req.Handle, b); err != nil {
				break
			}
		}
		return data, nil

	case OpWrite:
		a, err := st.Write(req.Handle, req.Offset, req.Data)
		if err != nil {
			return nil, err
		}
		for b := req.Offset / fstore.BlockSize; b*fstore.BlockSize < req.Offset+int64(len(req.Data)); b++ {
			if _, err := s.loadBlock(req.Handle, b); err != nil {
				break
			}
		}
		s.installAttr(req.Handle, a)
		s.pushAttr(req.proc, req.Handle, a)
		out := make([]byte, attrLen)
		packAttr(out, a)
		return out, nil

	case OpReadDir:
		ents, err := st.ReadDir(req.Handle)
		if err != nil {
			return nil, err
		}
		stream := serializeDir(ents)
		for c := int64(0); c*fstore.BlockSize < int64(len(stream)) || c == 0; c++ {
			lo := c * fstore.BlockSize
			hi := lo + fstore.BlockSize
			if hi > int64(len(stream)) {
				hi = int64(len(stream))
			}
			s.installDir(req.Handle, c, stream[lo:hi])
		}
		lo := req.Offset
		if lo > int64(len(stream)) {
			lo = int64(len(stream))
		}
		hi := lo + int64(req.Count)
		if hi > int64(len(stream)) {
			hi = int64(len(stream))
		}
		return stream[lo:hi], nil

	case OpCreate, OpMkdir, OpSymlink:
		var child fstore.Handle
		var a fstore.Attr
		var err error
		switch req.Op {
		case OpCreate:
			child, a, err = st.Create(req.Dir, req.Name, req.Mode)
		case OpMkdir:
			child, a, err = st.Mkdir(req.Dir, req.Name, req.Mode)
		case OpSymlink:
			child, a, err = st.Symlink(req.Dir, req.Name, req.Target)
		}
		if err != nil {
			return nil, err
		}
		s.installName(req.Dir, req.Name, child, a)
		s.installAttr(child, a)
		if req.Op == OpSymlink {
			s.installLink(child, req.Target)
		}
		s.dropDir(req.Dir)
		if da, err := st.GetAttr(req.Dir); err == nil {
			s.installAttr(req.Dir, da)
		}
		out := binary.BigEndian.AppendUint64(nil, child.U64())
		out = append(out, make([]byte, attrLen)...)
		packAttr(out[8:], a)
		return out, nil

	case OpRemove:
		if h, _, err := st.Lookup(req.Dir, req.Name); err == nil {
			s.dropAttr(h)
		}
		if err := st.Remove(req.Dir, req.Name); err != nil {
			return nil, err
		}
		s.dropName(req.Dir, req.Name)
		s.dropDir(req.Dir)
		return nil, nil

	case OpRename:
		if err := st.Rename(req.Dir, req.Name, req.Handle, req.Target); err != nil {
			return nil, err
		}
		s.dropName(req.Dir, req.Name)
		s.dropDir(req.Dir)
		s.dropDir(req.Handle)
		if child, a, err := st.Lookup(req.Handle, req.Target); err == nil {
			s.installName(req.Handle, req.Target, child, a)
		}
		return nil, nil

	case OpStatFS:
		fs := st.StatFS()
		out := binary.BigEndian.AppendUint32(nil, uint32(fs.Files))
		out = binary.BigEndian.AppendUint64(out, uint64(fs.BytesUsed))
		out = binary.BigEndian.AppendUint64(out, uint64(fs.BytesStored))
		return out, nil
	}
	return nil, fmt.Errorf("dfs: unknown op %d", req.Op)
}
