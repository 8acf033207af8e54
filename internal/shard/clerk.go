package shard

import (
	"errors"
	"sort"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/rmem"
	"netmem/internal/tokens"
)

// tokenTimeout bounds one token acquisition (the acquire loop already
// retries revocation appeals internally).
const tokenTimeout = time.Second

// ClerkOption configures a sharded clerk.
type ClerkOption func(*clerkOptions)

type clerkOptions struct {
	tokenCache bool
	dfsOpts    []dfs.ClerkOption
}

// WithTokenCache layers the token-coherent client block cache: read tokens
// (internal/tokens RWClient, one table per shard over its token area) grant
// cached reads served entirely from client memory — zero network traffic,
// zero server CPU; a writer recalls the readers' tokens, invalidating their
// copies before the bytes can change.
func WithTokenCache() ClerkOption {
	return func(o *clerkOptions) { o.tokenCache = true }
}

// WithSubOptions passes dfs.ClerkOptions (reliability, fencing, timeouts)
// through to every per-shard sub-clerk.
func WithSubOptions(opts ...dfs.ClerkOption) ClerkOption {
	return func(o *clerkOptions) { o.dfsOpts = append(o.dfsOpts, opts...) }
}

// Clerk is the sharding-aware clerk: one dfs.Clerk per live slot, with
// every operation routed through the epoch-versioned Membership — the
// owner is resolved per operation, never at construction, so an elastic
// cutover mid-stream parks the affected operation and resumes it against
// the new owner (and an operation that raced a commit retries once).
// Handle-keyed operations route by the file handle, namespace operations
// by the directory handle, so a directory's entries, stream, and mutations
// always meet at one shard's cache. Operations whose effects span shards
// (Remove and Rename across the ring) issue coherence repairs at the other
// shard (see Remove/Rename).
type Clerk struct {
	m    *rmem.Manager
	svc  *Service
	Mode dfs.Mode
	sub  []*dfs.Clerk // slot-indexed; nil = not wired / vacant

	// Token-coherent block cache (WithTokenCache): rw[s] manages tokens in
	// slot s's per-bucket token area; cache[s][tok] holds block copies
	// valid while the token is held.
	tokenCache bool
	dfsOpts    []dfs.ClerkOption
	rw         []*tokens.RWClient
	cache      []map[int]map[blockKey]cachedBlock
	peers      []*Clerk // revocation-mesh group (ConnectTokenPeers)

	// Replica read tier (wireReplicas): per-slot chain-member frame
	// imports a read-token holder may READ instead of the primary.
	replicas []*replicaChain

	nullSeq int

	// Stats.
	TokenHits        int64 // reads served from the token-coherent cache
	Repairs          int64 // cross-shard coherence repairs issued
	RouteRetries     int64 // ops rerouted after a mid-operation ring change
	TokensRecalled   int64 // tokens forfeited because their keys moved
	MovedDrops       int64 // cached blocks dropped because their keys moved
	ReplicaReads     int64 // block fetches served by a chain member
	ReplicaFallbacks int64 // replica attempts that fell back to the primary
}

// replicaChain is one slot's wired chain: frame imports selected
// round-robin, plus a scratch segment for the landed frame. On a clean
// fabric the imports are plain — a lost or torn read just falls back to
// the primary — but a clerk wired reliable extends that choice here (see
// wireReplicas), and rel widens the read deadline to the retry schedule.
type replicaChain struct {
	epoch   uint32
	segs    []*rmem.Import
	scratch *rmem.Segment
	rr      int
	rel     bool
}

// replicaReadTO bounds one replica frame READ; an unreachable replica
// times out and the read falls back to the primary. The bound must absorb
// queueing: a reader fleet round-robining one member serializes on that
// member's switch port, so a frame can legitimately wait many frame-times
// behind its peers before its turn. A *lagging* replica is caught by the
// watermark check on the returned frame, not by this timeout.
const replicaReadTO = 10 * time.Millisecond

type blockKey struct {
	h     fstore.Handle
	block int64
}

// cachedBlock is one token-cache entry: the block's leading bytes, and
// whether they are the whole block. Only a whole block's short length
// means EOF; a prefix serves just the reads it covers.
type cachedBlock struct {
	b     []byte
	whole bool
}

// NewClerk wires a sharded clerk on m's node: one sub-clerk per live slot
// and, with WithTokenCache, one RW token client per slot token area. The
// clerk registers with the service and subscribes to its Membership, so
// later joins, drains, and failover slot moves are wired automatically.
func NewClerk(p *des.Proc, m *rmem.Manager, svc *Service, mode dfs.Mode, opts ...ClerkOption) *Clerk {
	var o clerkOptions
	for _, opt := range opts {
		opt(&o)
	}
	c := &Clerk{m: m, svc: svc, Mode: mode, tokenCache: o.tokenCache, dfsOpts: o.dfsOpts}
	for s := range svc.Shards {
		c.wireSlot(p, s)
	}
	svc.clerks = append(svc.clerks, c)
	svc.mb.watchProc(func(p *des.Proc, ev Event) {
		if ev.Slot >= 0 && ev.Slot < len(c.sub) && c.sub[ev.Slot] != nil {
			c.Rebind(p, ev.Slot)
		}
	})
	return c
}

// wireSlot builds the sub-clerk (and token client) for one slot; a no-op
// when the slot is already wired or vacant.
func (c *Clerk) wireSlot(p *des.Proc, s int) {
	for len(c.sub) <= s {
		c.sub = append(c.sub, nil)
	}
	if c.sub[s] == nil && s < len(c.svc.Shards) && c.svc.Shards[s] != nil {
		c.sub[s] = dfs.NewClerk(p, c.m, c.svc.Shards[s], c.Mode, c.dfsOpts...)
	}
	if !c.tokenCache {
		return
	}
	for len(c.rw) <= s {
		c.rw = append(c.rw, nil)
		c.cache = append(c.cache, nil)
	}
	if c.rw[s] == nil && s < len(c.svc.Shards) && c.svc.Shards[s] != nil {
		a := c.svc.Shards[s].Areas()[5] // the per-data-bucket token area
		c.rw[s] = tokens.NewRWClient(p, c.m, c.svc.NodeOf(s), uint16(a[0]), uint16(a[1]), a[2], c.svc.slotNodes)
		c.cache[s] = make(map[int]map[blockKey]cachedBlock)
		s := s
		c.rw[s].OnInvalidate(func(p *des.Proc, tok int) { c.invalidateToken(s, tok) })
		c.wireReplicas(p, s) // a clerk built after AttachReplicas wires here
	}
}

// wireReplicas (re-)wires one slot's replica chain into this clerk: plain
// frame imports for the read path, plus — through the token client — a
// chain-state import for watermark stamps and retransmitting member
// imports for the write-grant recall fan-out. Replica reads only make
// sense under the token cache (the watermark rides the read grant), so
// this is a no-op without it.
func (c *Clerk) wireReplicas(p *des.Proc, s int) {
	if !c.tokenCache {
		return
	}
	for len(c.replicas) <= s {
		c.replicas = append(c.replicas, nil)
	}
	c.replicas[s] = nil
	rwLive := s < len(c.rw) && c.rw[s] != nil
	spec := c.svc.chainOf(s)
	if spec == nil || len(spec.members) == 0 || c.svc.Shards[s] == nil || !c.svc.Shards[s].HasChain() {
		if rwLive {
			c.rw[s].ClearChain()
		}
		return
	}
	// Stagger the round-robin start per clerk node: with a common origin,
	// a fleet of clerks marches on the same member in lockstep and the
	// chain serves reads at single-member bandwidth.
	rc := &replicaChain{epoch: spec.epoch, rr: c.m.Node.ID}
	var recall []*rmem.Import
	for _, cr := range spec.members {
		id, gen, size := cr.ChainSeg()
		seg := c.m.Import(p, cr.Node().ID, id, gen, size)
		if c.sub[s] != nil && c.sub[s].Reliable() {
			// Match the sub-clerk's transport: on a fabric lossy enough to
			// need retransmission, a plain frame READ almost never survives
			// (one clobbered cell out of ~170 kills the reply) and every
			// replica fetch would burn the full timeout before falling back.
			seg.SetReliable(true)
			rc.rel = true
		}
		rc.segs = append(rc.segs, seg)
		rel := c.m.Import(p, cr.Node().ID, id, gen, size)
		rel.SetReliable(true)
		recall = append(recall, rel)
	}
	rc.scratch = c.m.Export(p, dfs.ChainFrameLen)
	c.replicas[s] = rc
	if rwLive {
		sid, sgen, ssize := c.svc.Shards[s].ChainState()
		st := c.m.Import(p, c.svc.NodeOf(s), sid, sgen, ssize)
		st.SetReliable(true)
		c.rw[s].SetChain(st, dfs.ChainStateVerOff, recall, dfs.ChainFrameOff)
	}
}

// replicaBlock tries to serve the first need bytes of (h, block) from a
// chain member: the token watermark gives the freshness floor, a
// round-robin member's frame is READ one-sidedly (readFrame), and
// dfs.ParseChainFrame enforces floor, integrity, and identity. Any failure
// reports false and the caller reads the primary.
func (c *Clerk) replicaBlock(p *des.Proc, s, tok int, h fstore.Handle, block int64, need int) ([]byte, bool) {
	if s >= len(c.replicas) || c.replicas[s] == nil {
		return nil, false
	}
	rc := c.replicas[s]
	epoch, ver, ok := c.rw[s].StampWatermark(p, tok)
	if !ok || epoch != rc.epoch {
		c.ReplicaFallbacks++
		return nil, false
	}
	imp := rc.segs[rc.rr%len(rc.segs)]
	rc.rr++
	to := des.Duration(replicaReadTO)
	if rc.rel {
		// A retransmitting import needs room to run its whole retry
		// schedule, or one clobbered chunk converts into a spurious timeout.
		pp := c.m.Node.P
		to = des.Duration(pp.RetryLimit+1) * pp.RetryBackoffMax
	}
	if err := readFrame(p, imp, tok, need, rc.scratch, to); err != nil {
		c.ReplicaFallbacks++
		return nil, false
	}
	blk, _, ok := dfs.ParseChainFrame(rc.scratch.Bytes(), h, block, ver, need)
	if !ok {
		c.ReplicaFallbacks++
		return nil, false
	}
	return blk, true
}

// readFrame READs what dfs.ParseChainFrame needs of bucket tok's slot to
// serve a block's first need bytes into dst, at the slot's own offsets.
//
// A whole-block read takes the whole slot in one READ. A shorter one
// takes only the slot's prefix through the bytes it needs, and so cannot
// see the frame's tail word in the same snapshot; it first READs the tail
// word alone, back to back with the prefix on the member's circuit. The
// seqlock still holds. A frame lands head first and tail last, and the
// member serves the two READs in the order their cells arrive, so the
// tail READ is served first. A tail of v then means frame v had fully
// landed, and a head of v in the later prefix means no newer frame had
// started, so the prefix holds frame v's bytes. Replies come back in the
// same order, so the tail reply must be in by the time the prefix reply
// is; if it is not, a lost and resent request may have been served out of
// order, and the read is refused.
//
// All of this assumes each READ is served at one instant. A reliable
// import splits a READ longer than model ReliableChunk into pieces served
// one after another, so such a read goes through readFramePieces.
func readFrame(p *des.Proc, imp *rmem.Import, tok, need int, dst *rmem.Segment, to des.Duration) error {
	off, n := dfs.ChainFrameOff(tok), dfs.ChainFramePrefix(need)
	if imp.Reliable() && n > imp.ManagerNode().P.ReliableChunk {
		return readFramePieces(p, imp, off, min(n, dfs.ChainTailOff), dst, to)
	}
	if n == dfs.ChainFrameLen {
		return imp.Read(p, off, n, dst, 0, to)
	}
	tail, err := imp.ReadAsync(p, off+dfs.ChainTailOff, 8, dst, dfs.ChainTailOff, false)
	if err != nil {
		return err
	}
	err = imp.Read(p, off, n, dst, 0, to)
	inOrder := tail.Done()
	// Wait for the tail even after a failed prefix: the wait is what
	// retires the outstanding READ.
	if terr := tail.Wait(p, to); err == nil {
		err = terr
	}
	if err == nil && !inOrder {
		err = errFrameOrder
	}
	return err
}

// readFramePieces is readFrame for a read that moves in pieces, each
// served at its own instant, so no one piece sees the whole slot. It
// brackets the pieces instead: it READs the tail word, then the slot's
// first n bytes, then the head word again into its place, each READ
// answered before the next is issued. A tail of v means frame v had fully
// landed before the first piece was served. A head of v after the last
// piece means no newer frame had begun to land by then, since a frame
// lands head first (pushes move in pieces too) and versions only grow.
// So every piece holds frame v's bytes, and ParseChainFrame's head = tail
// check is the whole test. Reading the head only with the first piece
// would accept a newer frame's bytes in a later piece.
func readFramePieces(p *des.Proc, imp *rmem.Import, off, n int, dst *rmem.Segment, to des.Duration) error {
	if err := imp.Read(p, off+dfs.ChainTailOff, 8, dst, dfs.ChainTailOff, to); err != nil {
		return err
	}
	if err := imp.Read(p, off, n, dst, 0, to); err != nil {
		return err
	}
	return imp.Read(p, off+dfs.ChainHeadOff, 8, dst, dfs.ChainHeadOff, to)
}

// errFrameOrder refuses a partial frame read whose tail READ was not
// answered before its prefix READ.
var errFrameOrder = errors.New("shard: replica tail read answered after the prefix")

// invalidateToken drops a revoked token's cached blocks AND the sub-clerk's
// local copies of the covered handles: the sub-clerk's block cache was
// populated under the token's protection and must not outlive it — a
// peer's write is about to change the bytes (the stale-read hole the token
// protocol exists to close).
func (c *Clerk) invalidateToken(s, tok int) {
	for bk := range c.cache[s][tok] {
		if c.sub[s] != nil {
			c.sub[s].Forget(bk.h)
		}
	}
	delete(c.cache[s], tok)
}

// dropSlot tears down a slot's wiring after a drain or a failed join: any
// remaining tokens are forfeited locally (the table is going away) and the
// sub-clerk is discarded.
func (c *Clerk) dropSlot(p *des.Proc, s int) {
	if s < len(c.rw) && c.rw[s] != nil {
		c.rw[s].ForfeitAll(p)
		c.rw[s] = nil
		c.cache[s] = nil
	}
	if s < len(c.replicas) {
		c.replicas[s] = nil
	}
	if s < len(c.sub) {
		c.sub[s] = nil
	}
}

// settle is the cutover's deposit barrier: one minimal remote read against
// each donor flushes this clerk's in-flight one-sided deposits ahead of
// the migration scan. Cells are FIFO per virtual circuit, so the read's
// reply proves every frame the clerk previously sent to that node has been
// deposited. It must not ride the Hybrid-1 request channel (a Null would):
// the cutover runs on the coordinator's proc while this clerk may have an
// unmoved-key operation mid-call, and the channel's reply state is not
// shared safely between two procs.
func (c *Clerk) settle(p *des.Proc, slots []int) {
	for _, s := range slots {
		if s < len(c.sub) && c.sub[s] != nil {
			_ = c.sub[s].DepositBarrier(p)
		}
	}
}

// recallMoved recalls cached state for exactly the keys that move under a
// pending cutover: moved block copies are dropped, every sub-clerk forgets
// the moved handles, and tokens left with no cached entries are forfeited
// back to the (still live) donor table. Unmoved keys keep their tokens and
// their cache hits.
func (c *Clerk) recallMoved(p *des.Proc, old *Ring, moved func(fstore.Handle) bool) {
	for _, sc := range c.sub {
		if sc != nil {
			sc.ForgetMoved(moved)
		}
	}
	if !c.tokenCache {
		return
	}
	for s := range c.rw {
		if c.rw[s] == nil {
			continue
		}
		var forfeits []int
		for tok, m := range c.cache[s] {
			touched := false
			for bk := range m {
				if moved(bk.h) {
					delete(m, bk)
					c.MovedDrops++
					touched = true
				}
			}
			if touched && len(m) == 0 {
				delete(c.cache[s], tok)
				forfeits = append(forfeits, tok)
			}
		}
		// Remote forfeits in sorted order: map iteration must not leak
		// nondeterminism into the event stream.
		sort.Ints(forfeits)
		for _, tok := range forfeits {
			if held, err := c.rw[s].ForfeitToken(p, tok); err == nil && held {
				c.TokensRecalled++
			}
		}
	}
}

// ConnectTokenPeers wires the full revocation mesh between token-caching
// clerks, per slot, and records the group so the service can extend the
// mesh when a shard joins (a deployment would publish the channels through
// the name service instead).
func ConnectTokenPeers(p *des.Proc, clerks ...*Clerk) {
	for _, c := range clerks {
		c.peers = clerks
	}
	slots := 0
	for _, c := range clerks {
		if len(c.rw) > slots {
			slots = len(c.rw)
		}
	}
	for s := 0; s < slots; s++ {
		connectSlotPeers(p, s, clerks)
	}
}

// connectSlotPeers wires one slot's revocation mesh across a clerk group.
func connectSlotPeers(p *des.Proc, s int, clerks []*Clerk) {
	live := func(c *Clerk) bool { return s < len(c.rw) && c.rw[s] != nil }
	for _, a := range clerks {
		for _, b := range clerks {
			if a == b || !live(a) || !live(b) {
				continue
			}
			rid, rgen, rsize := b.rw[s].RevocationChannel()
			a.rw[s].Connect(p, b.m.Node.ID, rid, rgen, rsize)
		}
	}
	for _, a := range clerks {
		for _, b := range clerks {
			if a == b || !live(a) || !live(b) {
				continue
			}
			pid, pgen, psize := a.rw[s].PeerReply(b.m.Node.ID)
			b.rw[s].AttachPeer(p, a.m.Node.ID, pid, pgen, psize)
		}
	}
}

// owner maps any handle to its slot under the committed ring.
func (c *Clerk) owner(h fstore.Handle) int { return c.svc.Ring.Owner(h.U64()) }

// routed runs one keyed operation against the key's owner, resolved
// through the Membership: a key mid-migration parks until the cutover
// commits, and an operation that raced a commit (the epoch changed AND the
// key's owner with it) retries once against the new owner.
func (c *Clerk) routed(p *des.Proc, key uint64, fn func(s int) error) error {
	for attempt := 0; ; attempt++ {
		s, e := c.svc.mb.ownerAwait(p, key)
		c.wireSlot(p, s)
		c.svc.mb.opEnter(key)
		err := fn(s)
		c.svc.mb.opExit(key)
		if err == nil || attempt > 0 {
			return err
		}
		if ring, e2 := c.svc.mb.Current(); e2 == e || ring.Owner(key) == s {
			return err
		}
		c.RouteRetries++
	}
}

// Sub exposes the per-slot sub-clerk (tests and stats aggregation).
func (c *Clerk) Sub(i int) *dfs.Clerk { return c.sub[i] }

// Node returns the clerk's node.
func (c *Clerk) Node() *cluster.Node { return c.m.Node }

// EffectiveCallTimeout is the bound on one sub-clerk exchange. Every
// sub-clerk derives the same one: they share the clerk's manager and its
// sub-options.
func (c *Clerk) EffectiveCallTimeout() time.Duration {
	for _, sc := range c.sub {
		if sc != nil {
			return sc.EffectiveCallTimeout()
		}
	}
	return 0
}

// FlushLocal drops every sub-clerk's client-side cache. The token-coherent
// block cache survives: its validity is guaranteed by held tokens, not by
// freshness assumptions, so there is nothing to flush for correctness —
// exactly the property that lets re-reads skip the server entirely.
func (c *Clerk) FlushLocal() {
	for _, sc := range c.sub {
		if sc != nil {
			sc.FlushLocal()
		}
	}
}

// DropTokenCache releases nothing but forgets every cached block copy (for
// experiments that want a cold token cache).
func (c *Clerk) DropTokenCache() {
	for i := range c.cache {
		if c.cache[i] != nil {
			c.cache[i] = make(map[int]map[blockKey]cachedBlock)
		}
	}
}

// Rebind re-wires slot i's sub-clerk to the (post-failover) current server
// incarnation, and forfeits that slot's tokens and cached blocks — the
// dead incarnation's token table died with it. Normally driven by the
// Membership subscription when a failover publishes a slot move.
func (c *Clerk) Rebind(p *des.Proc, i int) {
	if i >= len(c.sub) || c.sub[i] == nil || c.svc.Shards[i] == nil {
		return
	}
	c.sub[i].Rebind(p, c.svc.Shards[i])
	if i < len(c.rw) && c.rw[i] != nil {
		a := c.svc.Shards[i].Areas()[5]
		c.rw[i].RebindTable(p, c.svc.NodeOf(i), uint16(a[0]), uint16(a[1]), a[2])
		c.cache[i] = make(map[int]map[blockKey]cachedBlock)
	}
	// A chain promotion re-homes the chain state; re-import it (and drop
	// the chain entirely if the promotion consumed the last member).
	c.wireReplicas(p, i)
}

// ---------------------------------------------------------------------------
// Routed operations.

// GetAttr routes to the shard owning h.
func (c *Clerk) GetAttr(p *des.Proc, h fstore.Handle) (fstore.Attr, error) {
	var a fstore.Attr
	err := c.routed(p, h.U64(), func(s int) (e error) {
		a, e = c.sub[s].GetAttr(p, h)
		return
	})
	return a, err
}

// SetAttr routes to the shard owning h; a resize invalidates our cached
// block copies of the file.
func (c *Clerk) SetAttr(p *des.Proc, h fstore.Handle, mode uint16, size int64) (fstore.Attr, error) {
	var a fstore.Attr
	err := c.routed(p, h.U64(), func(s int) (e error) {
		a, e = c.sub[s].SetAttr(p, h, mode, size)
		if e == nil {
			c.dropCachedFile(s, h)
		}
		return
	})
	return a, err
}

// Lookup routes to the shard owning the directory, where Create/Rename/
// Remove on that directory also execute — namespace reads and mutations
// meet at one cache.
func (c *Clerk) Lookup(p *des.Proc, dir fstore.Handle, name string) (fstore.Handle, fstore.Attr, error) {
	var h fstore.Handle
	var a fstore.Attr
	err := c.routed(p, dir.U64(), func(s int) (e error) {
		h, a, e = c.sub[s].Lookup(p, dir, name)
		return
	})
	return h, a, err
}

// ReadLink routes to the shard owning h.
func (c *Clerk) ReadLink(p *des.Proc, h fstore.Handle) (string, error) {
	var t string
	err := c.routed(p, h.U64(), func(s int) (e error) {
		t, e = c.sub[s].ReadLink(p, h)
		return
	})
	return t, err
}

// ReadDir routes to the shard owning the directory.
func (c *Clerk) ReadDir(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error) {
	var out []byte
	err := c.routed(p, h.U64(), func(s int) (e error) {
		out, e = c.sub[s].ReadDir(p, h, offset, count)
		return
	})
	return out, err
}

// Create routes to the shard owning the directory.
func (c *Clerk) Create(p *des.Proc, dir fstore.Handle, name string, mode uint16) (fstore.Handle, fstore.Attr, error) {
	var h fstore.Handle
	var a fstore.Attr
	err := c.routed(p, dir.U64(), func(s int) (e error) {
		h, a, e = c.sub[s].Create(p, dir, name, mode)
		return
	})
	return h, a, err
}

// Mkdir routes to the shard owning the directory.
func (c *Clerk) Mkdir(p *des.Proc, dir fstore.Handle, name string, mode uint16) (fstore.Handle, fstore.Attr, error) {
	var h fstore.Handle
	var a fstore.Attr
	err := c.routed(p, dir.U64(), func(s int) (e error) {
		h, a, e = c.sub[s].Mkdir(p, dir, name, mode)
		return
	})
	return h, a, err
}

// Symlink routes to the shard owning the directory.
func (c *Clerk) Symlink(p *des.Proc, dir fstore.Handle, name, target string) (fstore.Handle, fstore.Attr, error) {
	var h fstore.Handle
	var a fstore.Attr
	err := c.routed(p, dir.U64(), func(s int) (e error) {
		h, a, e = c.sub[s].Symlink(p, dir, name, target)
		return
	})
	return h, a, err
}

// Remove executes at the shard owning the directory. When the removed
// child's attribute record lives on a *different* shard's cache, that
// record is now stale — a repair forces the other shard's server procedure
// to re-resolve the handle, which fails and drops the record (the
// error-path dropAttr in dfs.Server.execute).
func (c *Clerk) Remove(p *des.Proc, dir fstore.Handle, name string) error {
	return c.routed(p, dir.U64(), func(s int) error {
		child, _, lerr := c.sub[s].Lookup(p, dir, name)
		if err := c.sub[s].Remove(p, dir, name); err != nil {
			return err
		}
		if lerr == nil {
			if cs := c.owner(child); cs != s {
				c.Repairs++
				c.wireSlot(p, cs)
				_ = c.sub[cs].Refresh(p, child) // expected to fail: the refresh IS the repair
				c.sub[cs].Forget(child)
				c.dropCachedFile(cs, child)
			}
		}
		return nil
	})
}

// dropCachedFile forgets token-cached blocks of one (now stale) handle.
func (c *Clerk) dropCachedFile(s int, h fstore.Handle) {
	if c.cache == nil || s >= len(c.cache) || c.cache[s] == nil {
		return
	}
	for tok, m := range c.cache[s] {
		for bk := range m {
			if bk.h == h {
				delete(m, bk)
			}
		}
		if len(m) == 0 {
			delete(c.cache[s], tok)
		}
	}
}

// Rename executes at the shard owning the source directory. A cross-shard
// destination directory then holds a stale stream and possibly a stale
// (toDir, toName) record; repairs reload both through the destination
// shard's server procedure.
func (c *Clerk) Rename(p *des.Proc, fromDir fstore.Handle, fromName string, toDir fstore.Handle, toName string) error {
	return c.routed(p, fromDir.U64(), func(s int) error {
		if err := c.sub[s].Rename(p, fromDir, fromName, toDir, toName); err != nil {
			return err
		}
		if ts := c.owner(toDir); ts != s {
			c.Repairs++
			c.wireSlot(p, ts)
			c.sub[ts].ForgetDir(toDir)
			_ = c.sub[ts].RefreshDir(p, toDir)
			_ = c.sub[ts].RefreshLookup(p, toDir, toName)
		}
		return nil
	})
}

// StatFS is a whole-store query; the shared store makes any shard
// authoritative, so it routes to the lowest live slot deterministically.
func (c *Clerk) StatFS(p *des.Proc) (fstore.FSStat, error) {
	ring, _ := c.svc.mb.Current()
	s := ring.Members()[0]
	c.wireSlot(p, s)
	return c.sub[s].StatFS(p)
}

// Null round-robins across live slots (it carries no key).
func (c *Clerk) Null(p *des.Proc) error {
	ring, _ := c.svc.mb.Current()
	members := ring.Members()
	s := members[c.nullSeq%len(members)]
	c.nullSeq++
	c.wireSlot(p, s)
	return c.sub[s].Null(p)
}

// ---------------------------------------------------------------------------
// Data path. Without the token cache, Read/Write delegate to the owning
// sub-clerk. With it, every block access goes through the RW token for the
// block's server bucket: a held read token proves no writer has touched the
// bucket since we cached the block, so the re-read is a map lookup — no
// cells on the wire, no CPU on any server.

// Read returns up to count bytes at offset. Without the token cache it
// returns what the owning sub-clerk's Read does, which may share a cached
// block: the caller must not modify the result. With it, each block is
// served by coherentBlock, which fetches on a miss only the block's bytes
// up to the end of the read, [0, in+want), never the rest of the block.
func (c *Clerk) Read(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error) {
	var out []byte
	err := c.routed(p, h.U64(), func(s int) error {
		out = nil
		if !c.tokenCache {
			var e error
			out, e = c.sub[s].Read(p, h, offset, count)
			return e
		}
		if offset < 0 || count < 0 {
			return fstore.ErrBadOffset
		}
		off, cnt := offset, count
		for cnt > 0 {
			block := off / fstore.BlockSize
			in := int(off % fstore.BlockSize)
			want := cnt
			if in+want > fstore.BlockSize {
				want = fstore.BlockSize - in
			}
			blk, err := c.coherentBlock(p, s, h, block, in+want)
			if err != nil {
				return err
			}
			if in >= len(blk) {
				break // EOF
			}
			hi := in + want
			if hi > len(blk) {
				hi = len(blk)
			}
			out = append(out, blk[in:hi]...)
			if hi < in+want {
				break
			}
			off += int64(want)
			cnt -= want
		}
		return nil
	})
	return out, err
}

// coherentBlock serves the first need bytes of one block under the token
// protocol, fetching just those on a miss (plus the header, or the frame
// words on a replica). It returns at least need bytes unless the block is
// shorter: a short result is EOF. A cached entry serves the read only when
// it covers it; a prefix too short for this read is fetched again.
func (c *Clerk) coherentBlock(p *des.Proc, s int, h fstore.Handle, block int64, need int) ([]byte, error) {
	tok := c.svc.Geo.DataBucket(h, block)
	key := blockKey{h, block}
	held := c.rw[s].HoldsRead(tok) || c.rw[s].HoldsWrite(tok)
	if held {
		if e, ok := c.cache[s][tok][key]; ok && (e.whole || len(e.b) >= need) {
			c.TokenHits++
			return e.b, nil
		}
	}
	if err := c.rw[s].AcquireRead(p, tok, tokenTimeout); err != nil {
		return nil, err
	}
	if !held {
		// The token lapsed since we last read under it (revoked, forfeited,
		// or never held): any sub-clerk copy of the file predates this
		// acquisition and a writer may have changed the bytes — refetch.
		c.sub[s].Forget(h)
	}
	blk, ok := c.replicaBlock(p, s, tok, h, block, need)
	if ok {
		// Served by a chain member: the primary's CPU and memory system
		// were never touched.
		c.ReplicaReads++
	} else {
		// A whole-block read hands back the sub-clerk's cached block
		// itself, so this cache and the sub-clerk's hold one copy of the
		// bytes.
		var err error
		if blk, err = c.sub[s].Read(p, h, block*fstore.BlockSize, need); err != nil {
			return nil, err
		}
	}
	if c.cache[s][tok] == nil {
		c.cache[s][tok] = make(map[blockKey]cachedBlock)
	}
	// A block shorter than the read is whole; one exactly as long as a
	// partial read may go on.
	c.cache[s][tok][key] = cachedBlock{b: blk, whole: need >= fstore.BlockSize || len(blk) < need}
	return blk, nil
}

// Write stores data at offset. With the token cache, each touched bucket's
// write token is acquired first — recalling every reader's token and
// invalidating their cached copies — then released back to a read token
// once the deposit is done (Downgrade: we keep cache validity ourselves).
func (c *Clerk) Write(p *des.Proc, h fstore.Handle, offset int64, data []byte) error {
	return c.routed(p, h.U64(), func(s int) error {
		if !c.tokenCache {
			return c.sub[s].Write(p, h, offset, data)
		}
		off, buf := offset, data
		for len(buf) > 0 {
			block := off / fstore.BlockSize
			in := int(off % fstore.BlockSize)
			n := len(buf)
			if in+n > fstore.BlockSize {
				n = fstore.BlockSize - in
			}
			tok := c.svc.Geo.DataBucket(h, block)
			if err := c.rw[s].AcquireWrite(p, tok, tokenTimeout); err != nil {
				return err
			}
			err := c.sub[s].Write(p, h, off, buf[:n])
			if err == nil {
				// Our own stale copy of the block (if any) must not outlive
				// the write; the next read refetches under the read token.
				if m := c.cache[s][tok]; m != nil {
					delete(m, blockKey{h, block})
				}
				err = c.rw[s].Downgrade(p, tok)
			}
			if err != nil {
				return err
			}
			off += int64(n)
			buf = buf[n:]
		}
		return nil
	})
}

// Stats aggregates the sub-clerks' counters (plus this clerk's own).
type Stats struct {
	LocalHits        int64
	RemoteReads      int64
	RemoteWrites     int64
	Misses           int64
	Rebinds          int64
	TokenHits        int64
	Repairs          int64
	RouteRetries     int64
	TokensRecalled   int64
	ReplicaReads     int64
	ReplicaFallbacks int64
}

// Stats sums counters across sub-clerks.
func (c *Clerk) Stats() Stats {
	st := Stats{TokenHits: c.TokenHits, Repairs: c.Repairs,
		RouteRetries: c.RouteRetries, TokensRecalled: c.TokensRecalled,
		ReplicaReads: c.ReplicaReads, ReplicaFallbacks: c.ReplicaFallbacks}
	for _, sc := range c.sub {
		if sc == nil {
			continue
		}
		st.LocalHits += sc.LocalHits
		st.RemoteReads += sc.RemoteReads
		st.RemoteWrites += sc.RemoteWrites
		st.Misses += sc.Misses
		st.Rebinds += sc.Rebinds
	}
	return st
}
