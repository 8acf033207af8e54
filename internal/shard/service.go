package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/nameserver"
	"netmem/internal/recovery"
	"netmem/internal/rmem"
)

// ControlLog replicates control-plane mutations through an agreed log
// (consensus.Client satisfies it): ring publications become replicated
// registry records and membership epoch bumps become decrees every
// control-plane replica applies. The interface lives here so the shard
// tier does not import the consensus package directly.
type ControlLog interface {
	RegisterName(p *des.Proc, rec nameserver.Record) error
	ProposeMembership(p *des.Proc, epoch uint32, blob []byte) error
}

// Service is the sharded file tier: dfs.Server instances, one per live
// slot, all over one shared file store (the Calypso shared-disk shape §5.1
// sketches — any server can execute any operation correctly; the ring
// decides which one *does*, partitioning cache residency and CPU load).
// Each shard exports its own cache areas, token area, and request channel
// on its own node.
//
// The tier is elastic: AddShard and DrainShard change the ring under live
// traffic through an epoch-versioned Membership that every clerk
// subscribes to, with the donor's write-behind state migrated to the new
// owner by plain one-sided rmem WRITEs (see cutover).
type Service struct {
	Ring   *Ring // committed ring, kept in sync with Membership
	Store  *fstore.Store
	Geo    dfs.Geometry
	Shards []*dfs.Server // slot-indexed; nil marks a vacant (drained) slot

	mb        *Membership
	mgrs      []*rmem.Manager
	slotNodes int
	opts      []dfs.ServerOption

	clerks []*Clerk
	coords []*recovery.Coordinator
	chains []*chainSpec // slot-indexed replica chains (AttachReplicas)

	names    []*nameserver.Clerk
	ringHost *rmem.Manager
	ringSeg  *rmem.Segment
	clog     ControlLog

	// Elasticity stats.
	Cutovers        int64 // committed membership changes
	MigratedBuckets int64 // dirty buckets pushed donor→owner (one-sided)
	EvictedBuckets  int64 // clean moved residents evicted (re-warm from store)

	// ControlLogErrors counts control-plane proposals that failed; the
	// data plane keeps running on the locally published state (the control
	// plane must never be able to take the file tier down with it).
	ControlLogErrors int64

	// Replica-chain stats.
	ChainSplices    int64  // mid-chain crashes spliced around
	PromotedNode    int    // node promoted by the last chain failover (-1: none)
	PromotedApplied uint64 // its applied watermark at promotion
}

// NewService builds one shard server per manager (each on its own node)
// over a single fresh shared store. slotNodes bounds the cluster size for
// request-channel slot allocation; opts apply to every shard server.
func NewService(p *des.Proc, mgrs []*rmem.Manager, slotNodes int, geo dfs.Geometry, opts ...dfs.ServerOption) *Service {
	if len(mgrs) == 0 {
		panic("shard: NewService needs at least one manager")
	}
	env := mgrs[0].Node.Env
	store := fstore.New(func() int64 { return int64(env.Now()) })
	s := &Service{
		Ring:      NewRing(len(mgrs), 0),
		Store:     store,
		mgrs:      append([]*rmem.Manager(nil), mgrs...),
		slotNodes: slotNodes,
		opts:      opts,
		coords:    make([]*recovery.Coordinator, len(mgrs)),
		ringHost:  mgrs[0],
	}
	s.PromotedNode = -1
	for _, m := range mgrs {
		srv := dfs.NewServer(p, m, slotNodes, geo, append([]dfs.ServerOption{dfs.WithStore(store)}, opts...)...)
		s.Shards = append(s.Shards, srv)
	}
	s.Geo = s.Shards[0].Geo
	s.mb = newMembership(env, s.Ring)
	for i := range s.Shards {
		s.mb.setNode(i, s.Shards[i].Node().ID)
	}
	return s
}

// Membership exposes the epoch-versioned membership view: clerks, recovery
// coordinators, and harnesses subscribe here instead of resolving the ring
// once at construction.
func (s *Service) Membership() *Membership { return s.mb }

// Owner maps a handle to its owning shard slot under the committed ring.
func (s *Service) Owner(h fstore.Handle) int { return s.Ring.Owner(h.U64()) }

// NodeOf returns the node id currently serving slot i (the promoted chain
// member's node after a failover), or -1 for a vacant slot.
func (s *Service) NodeOf(i int) int {
	if i < 0 || i >= len(s.Shards) || s.Shards[i] == nil {
		return -1
	}
	return s.Shards[i].Node().ID
}

// Size returns the live shard count.
func (s *Service) Size() int { return s.Ring.Size() }

// Slots returns the slot-table length (vacant slots included); clerks size
// their per-slot state with it.
func (s *Service) Slots() int { return len(s.Shards) }

// WarmFile warms h's records into the owning shard's cache areas only —
// each shard's cache holds the subset of the namespace the ring assigns it.
func (s *Service) WarmFile(h fstore.Handle) error {
	return s.Shards[s.Owner(h)].WarmFile(h)
}

// WarmDir warms a directory into its owning shard.
func (s *Service) WarmDir(h fstore.Handle) error {
	return s.Shards[s.Owner(h)].WarmDir(h)
}

// Deposits counts remote writes landed in the data cache of h's owning
// shard.
func (s *Service) Deposits(h fstore.Handle) int64 {
	return s.Shards[s.Owner(h)].DataDeposits()
}

// Sync applies write-behind state on every live shard; returns total blocks.
func (s *Service) Sync(p *des.Proc) (int, error) {
	total := 0
	for _, srv := range s.Shards {
		if srv == nil {
			continue
		}
		n, err := srv.Sync(p)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ---------------------------------------------------------------------------
// Elasticity: live join/leave with one-sided background migration.

// AddShard brings a new shard up on m's node and cuts the ring over to
// include it: clerks are wired to the joiner first, then the two-phase
// cutover migrates the moved keys' write-behind state into it. Returns the
// slot the joiner occupies (vacant slots are reused).
func (s *Service) AddShard(p *des.Proc, m *rmem.Manager) (int, error) {
	slot := -1
	for i, sh := range s.Shards {
		if sh == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(s.Shards)
		s.Shards = append(s.Shards, nil)
		s.mgrs = append(s.mgrs, nil)
		s.coords = append(s.coords, nil)
	}
	srv := dfs.NewServer(p, m, s.slotNodes, s.Geo, append([]dfs.ServerOption{dfs.WithStore(s.Store)}, s.opts...)...)
	s.Shards[slot] = srv
	s.mgrs[slot] = m
	s.mb.setNode(slot, m.Node.ID)
	for _, c := range s.clerks {
		c.wireSlot(p, slot)
	}
	s.meshSlot(p, slot)

	next := s.Ring.Clone()
	next.Add(slot)
	if err := s.cutover(p, next); err != nil {
		for _, c := range s.clerks {
			c.dropSlot(p, slot)
		}
		s.Shards[slot] = nil
		s.mgrs[slot] = nil
		return -1, err
	}
	return slot, nil
}

// DrainShard evacuates a live slot and removes it from the ring: every key
// it owns is migrated to its new owner during the cutover, clerks drop the
// slot, and its request-channel name is revoked. The emptied server is
// decommissioned (the node itself keeps running).
func (s *Service) DrainShard(p *des.Proc, slot int) error {
	if slot < 0 || slot >= len(s.Shards) || s.Shards[slot] == nil {
		return fmt.Errorf("shard: drain of vacant slot %d", slot)
	}
	if s.Ring.Size() <= 1 {
		return fmt.Errorf("shard: cannot drain the last shard")
	}
	donorNode := s.Shards[slot].Node().ID
	next := s.Ring.Clone()
	next.Remove(slot)
	if err := s.cutover(p, next); err != nil {
		return err
	}
	for _, c := range s.clerks {
		c.dropSlot(p, slot)
	}
	s.Shards[slot] = nil
	s.mgrs[slot] = nil
	if s.names != nil {
		_ = s.names[donorNode].Revoke(p, shardName(slot))
	}
	return nil
}

// cutover is the two-phase membership change:
//
//  1. prepare — new operations on keys whose owner changes park at the
//     membership gate; operations on unmoved keys flow untouched.
//  2. drain — the moved-key operations already in flight finish, then each
//     clerk runs a deposit barrier (one Null RPC per donor): a completed
//     write-behind op's one-sided deposit frames may still be on the wire,
//     and cells are FIFO per path, so the barrier reply proves every frame
//     the clerk sent to the donor has been deposited. Together: every
//     pre-cutover write to a moved key has serialized at the donor.
//  3. migrate — each donor pushes its moved *dirty* buckets to the new
//     owner's data area at the identical bucket offset with reliable
//     one-sided rmem WRITEs (the receiver's CPU is never scheduled), and
//     evicts moved clean residents (the shared store re-warms them).
//  4. recall — every attached clerk forfeits tokens and drops cached state
//     for exactly the keys that moved; unmoved tokens stay hot.
//  5. commit — the ring flips, the epoch bumps, watchers fire, parked
//     operations resume against the new owner, and the membership blob is
//     re-published through the name service (epoch supersede).
//
// Linearizability per key follows from the phases: every write to a moved
// key ordered before the cutover serialized at the donor and rode the
// migration; every one after it serializes at the new owner.
func (s *Service) cutover(p *des.Proc, next *Ring) error {
	old, _ := s.mb.Current()
	s.mb.prepare(next)
	s.mb.drain(p)
	for _, c := range s.clerks {
		c.settle(p, old.Members())
	}

	for _, slot := range old.Members() {
		donor := s.Shards[slot]
		if donor == nil {
			continue
		}
		pushed, cleared, err := donor.MigrateBuckets(p, s.receiverFor(p, slot, next), true)
		s.MigratedBuckets += int64(pushed)
		s.EvictedBuckets += int64(cleared - pushed)
		if err != nil {
			s.mb.abort()
			return err
		}
	}

	// Pre-commit liveness: a slot being *added* may have died since
	// prepare without the migration ever touching it (nothing dirty
	// moved). Committing would hand ring ownership to a corpse, so probe
	// every added slot with a bounded one-sided read and abort the
	// cutover — parked operations resume against the old ring — if any
	// probe fails.
	for _, slot := range next.Members() {
		if old.Contains(slot) {
			continue
		}
		if err := s.probeSlot(p, slot); err != nil {
			s.mb.abort()
			return fmt.Errorf("shard: joining slot %d unreachable at commit: %w", slot, err)
		}
	}

	movedKey := func(h fstore.Handle) bool { return old.Owner(h.U64()) != next.Owner(h.U64()) }
	for _, c := range s.clerks {
		c.recallMoved(p, old, movedKey)
	}

	s.mb.commit(p)
	s.Ring, _ = s.mb.Current()
	s.Cutovers++
	if tr := s.mgrs[firstLive(s.Shards)].Node.Env.Tracer(); tr != nil {
		tr.Count("shard.cutovers", 1)
	}
	if s.names != nil {
		if err := s.RegisterNames(p, s.names); err != nil {
			return err
		}
	} else if s.clog != nil {
		// No name service attached, but the epoch bump is still an agreed
		// decree: replicas track the membership sequence either way.
		_, epoch := s.mb.Current()
		s.clogErr(s.clog.ProposeMembership(p, uint32(epoch), s.ringBlob()))
	}
	return nil
}

func firstLive(shards []*dfs.Server) int {
	for i, sh := range shards {
		if sh != nil {
			return i
		}
	}
	return 0
}

// probeSlot proves a slot's node can still answer memory reads: a
// reliable one-sided read of the first word of its data area from the
// founding shard's node, bounded by joinProbeTO. Retransmission absorbs
// link faults; only a dead or unreachable node fails the probe.
func (s *Service) probeSlot(p *des.Proc, slot int) error {
	srv := s.Shards[slot]
	if srv == nil {
		return fmt.Errorf("shard: slot %d vacant", slot)
	}
	if srv.Node().ID == s.ringHost.Node.ID {
		return nil // co-located with the prober: alive by construction
	}
	a := srv.Areas()[3]
	imp := s.ringHost.Import(p, srv.Node().ID, uint16(a[0]), uint16(a[1]), a[2])
	imp.SetReliable(true)
	scratch := s.ringHost.Export(p, 8)
	return imp.Read(p, 0, 4, scratch, 0, joinProbeTO)
}

// joinProbeTO bounds the pre-commit liveness probe of a joining slot.
const joinProbeTO = 2 * time.Millisecond

// receiverFor builds the per-donor destination map for MigrateBuckets:
// a resident key whose owner under next is not the donor moves, and dirty
// state is pushed through a reliable import of the new owner's data area.
func (s *Service) receiverFor(p *des.Proc, donorSlot int, next *Ring) func(fstore.Handle) (*rmem.Import, bool) {
	imports := make(map[int]*rmem.Import)
	return func(h fstore.Handle) (*rmem.Import, bool) {
		owner := next.Owner(h.U64())
		if owner == donorSlot {
			return nil, false
		}
		recv := s.Shards[owner]
		if recv == nil {
			return nil, true // no receiver: evict, the store is authoritative
		}
		imp, ok := imports[owner]
		if !ok {
			a := recv.Areas()[3]
			imp = s.mgrs[donorSlot].Import(p, recv.Node().ID, uint16(a[0]), uint16(a[1]), a[2])
			imp.SetReliable(true)
			imports[owner] = imp
		}
		return imp, true
	}
}

// CheckDivergence verifies post-chaos residency: every resident data
// bucket on every live shard must belong to that shard under the current
// ring. Strays can appear when a failover grafts chained state from
// before a cutover; repair pushes dirty strays to their owner (one-sided,
// exactly like the migration) and evicts the rest. Returns the stray
// count and how many carried dirty state that was pushed.
func (s *Service) CheckDivergence(p *des.Proc) (strays, repaired int, err error) {
	ring, _ := s.mb.Current()
	for _, slot := range ring.Members() {
		srv := s.Shards[slot]
		if srv == nil {
			continue
		}
		pushed, cleared, merr := srv.MigrateBuckets(p, s.receiverFor(p, slot, ring), true)
		strays += cleared
		repaired += pushed
		if merr != nil {
			return strays, repaired, merr
		}
	}
	return strays, repaired, nil
}

// meshSlot wires the revocation mesh for one slot across every peer group
// registered by ConnectTokenPeers — the elastic continuation of the mesh
// the harness built at boot.
func (s *Service) meshSlot(p *des.Proc, slot int) {
	seen := make(map[*Clerk]bool)
	for _, c := range s.clerks {
		if len(c.peers) == 0 || seen[c.peers[0]] {
			continue
		}
		seen[c.peers[0]] = true
		connectSlotPeers(p, slot, c.peers)
	}
}

// ---------------------------------------------------------------------------
// Name-service publication.

// ringName is the registered name of the membership blob; shardName(i)
// names slot i's request channel.
const ringName = "dfs.ring"

func shardName(i int) string { return fmt.Sprintf("dfs.shard%d.req", i) }

// RegisterNames publishes the sharded tier in the name service: one record
// per live request channel ("dfs.shard<i>.req") plus a membership blob
// ("dfs.ring") carrying the vnode count, the membership epoch, and every
// (slot, node) pair, so any client can reconstruct the identical ring and
// import the channels by name alone. The blob lives on the founding
// shard's node and is re-published (a fresh export superseding the old
// record by generation) at every epoch bump; names is indexed by node id
// and is retained so cutovers re-publish automatically.
func (s *Service) RegisterNames(p *des.Proc, names []*nameserver.Clerk) error {
	s.names = names
	ring, epoch := s.mb.Current()
	members := ring.Members()
	blob := s.ringBlob()
	oldSeg := s.ringSeg
	s.ringSeg = s.ringHost.Export(p, len(blob))
	s.ringSeg.SetDefaultRights(rmem.RightRead)
	copy(s.ringSeg.Bytes(), blob)
	if err := s.registerRetry(p, names[s.ringHost.Node.ID], ringName, s.ringSeg); err != nil {
		return err
	}
	if oldSeg != nil {
		s.ringHost.Revoke(p, oldSeg)
	}
	for _, slot := range members {
		m := s.mgrs[slot]
		id, _, _ := s.Shards[slot].ReqChannel()
		seg, ok := m.Lookup(id)
		if !ok {
			return fmt.Errorf("shard: shard %d request segment %d not found", slot, id)
		}
		if err := s.registerRetry(p, names[m.Node.ID], shardName(slot), seg); err != nil {
			return err
		}
	}
	if s.clog != nil {
		s.replicateNames(p, uint32(epoch), blob, members)
	}
	return nil
}

// ringBlob packs the current membership for publication: vnode count,
// member count, epoch, then every (slot, node) pair.
func (s *Service) ringBlob() []byte {
	ring, epoch := s.mb.Current()
	members := ring.Members()
	blob := make([]byte, 12+8*len(members))
	binary.BigEndian.PutUint32(blob[0:], uint32(ring.vnodes))
	binary.BigEndian.PutUint32(blob[4:], uint32(len(members)))
	binary.BigEndian.PutUint32(blob[8:], uint32(epoch))
	for i, slot := range members {
		binary.BigEndian.PutUint32(blob[12+8*i:], uint32(slot))
		binary.BigEndian.PutUint32(blob[16+8*i:], uint32(s.NodeOf(slot)))
	}
	// The chain section trails the position-indexed base layout, so
	// ResolveRing callers unaware of chains are unaffected.
	return append(blob, s.chainBlobSection()...)
}

// ReplicateControl routes ring publications and membership commits
// through cl (an agreed log) in addition to the local name service:
// every control-plane replica then carries the ring record and the
// membership epoch sequence, so any of them can answer a resolve after
// the publishing machine crashes.
func (s *Service) ReplicateControl(cl ControlLog) { s.clog = cl }

// replicateNames commits the tier's registry records and the membership
// blob through the control log. Failures degrade to local-only
// publication — the data plane must not hinge on control-plane liveness.
func (s *Service) replicateNames(p *des.Proc, epoch uint32, blob []byte, members []int) {
	recs := []nameserver.Record{{
		Name: ringName, Node: s.ringHost.Node.ID, Seg: s.ringSeg.ID(),
		Gen: s.ringSeg.Gen(), Epoch: s.ringHost.Incarnation(), Size: s.ringSeg.Size(),
	}}
	for _, slot := range members {
		m := s.mgrs[slot]
		id, _, _ := s.Shards[slot].ReqChannel()
		if seg, ok := m.Lookup(id); ok {
			recs = append(recs, nameserver.Record{
				Name: shardName(slot), Node: m.Node.ID, Seg: seg.ID(),
				Gen: seg.Gen(), Epoch: m.Incarnation(), Size: seg.Size(),
			})
		}
	}
	for _, rec := range recs {
		s.clogErr(s.clog.RegisterName(p, rec))
	}
	s.clogErr(s.clog.ProposeMembership(p, epoch, blob))
}

// clogErr counts a rejected control-log proposal once, in both
// ControlLogErrors and the shard.clog.errors counter.
func (s *Service) clogErr(err error) {
	if err == nil {
		return
	}
	s.ControlLogErrors++
	if tr := s.mgrs[0].Node.Env.Tracer(); tr != nil {
		tr.Count("shard.clog.errors", 1)
	}
}

// registerRetry registers seg under name, absorbing the boot-order race:
// clerks export their well-known segments from an async boot process, so
// a registration issued right after construction can observe ErrNotReady.
// Capped backoff up to nsBootDeadline replaces the old assumption that
// the name service always exports first.
func (s *Service) registerRetry(p *des.Proc, c *nameserver.Clerk, name string, seg *rmem.Segment) error {
	return awaitNS(p, nsBootDeadline, func() error { return c.Register(p, name, seg) })
}

// nsBootDeadline bounds how long boot-order retries wait for the name
// service; a clerk that has not exported its registry by then is broken,
// not slow.
const nsBootDeadline = 250 * time.Millisecond

// awaitNS retries fn while it reports the name service as still booting
// (ErrNotReady) or the target name as not yet published (ErrNotFound),
// with capped exponential backoff, until deadline has elapsed. Any other
// error — and either sentinel still standing at the deadline — is
// returned to the caller.
func awaitNS(p *des.Proc, deadline des.Duration, fn func() error) error {
	limit := p.Now().Add(deadline)
	back := des.Duration(50 * time.Microsecond)
	for {
		err := fn()
		if err == nil ||
			(!errors.Is(err, nameserver.ErrNotReady) && !errors.Is(err, nameserver.ErrNotFound)) {
			return err
		}
		if p.Now().Add(back) > limit {
			return err
		}
		p.Sleep(back)
		if back *= 2; back > des.Duration(2*time.Millisecond) {
			back = des.Duration(2 * time.Millisecond)
		}
	}
}

// ResolveRing reads the registered membership blob through ns (with a
// scratch segment on m's node for the remote read) and returns the
// reconstructed ring, its epoch, and the slot→node map — what a clerk that
// was handed only the name service needs to find the tier. hint names the
// machine whose registry to probe when the name is not cached locally
// (§4.2's user-supplied hint; the founding shard's node registers the
// blob). Resolution forces a fresh lookup so an epoch bump's superseding
// record is observed rather than a stale cached generation.
func ResolveRing(p *des.Proc, m *rmem.Manager, ns *nameserver.Clerk, hint int) (*Ring, Epoch, map[int]int, error) {
	l, err := resolveRingNamed(p, m, ns, ringName, hint)
	if err != nil {
		return nil, 0, nil, err
	}
	return l.ring, l.epoch, l.nodes, nil
}

// ringLayout is a parsed membership blob (see ringBlob and
// chainBlobSection for the layout).
type ringLayout struct {
	ring   *Ring
	epoch  Epoch
	nodes  map[int]int   // slot → node
	chains map[int][]int // slot → chain member nodes, head first
}

// resolveRingNamed fetches the membership blob registered under name and
// parses it.
func resolveRingNamed(p *des.Proc, m *rmem.Manager, ns *nameserver.Clerk, name string, hint int) (ringLayout, error) {
	var imp *rmem.Import
	// Absorb the boot-order race symmetrically with registerRetry: the
	// clerk's own boot process may still be exporting its well-knowns, and
	// the tier may not have published the blob yet.
	err := awaitNS(p, nsBootDeadline, func() error {
		var ierr error
		imp, ierr = ns.Import(p, name, hint, true)
		return ierr
	})
	if err != nil {
		return ringLayout{}, err
	}
	scratch := m.Export(p, imp.Size())
	if err := imp.Read(p, 0, imp.Size(), scratch, 0, time.Second); err != nil {
		return ringLayout{}, err
	}
	return parseRingBlob(name, scratch.Bytes())
}

// parseRingBlob checks every length before it reads: a short or truncated
// record is an error, never a panic. A blob that ends after the member
// pairs predates chains and yields an empty chain map.
func parseRingBlob(name string, buf []byte) (ringLayout, error) {
	word := func(off int) int { return int(binary.BigEndian.Uint32(buf[off:])) }
	if len(buf) < 12 {
		return ringLayout{}, fmt.Errorf("shard: resolve %q: short blob (%d bytes)", name, len(buf))
	}
	n := word(4)
	if len(buf) < 12+8*n {
		return ringLayout{}, fmt.Errorf("shard: resolve %q: %d members do not fit %d bytes", name, n, len(buf))
	}
	l := ringLayout{epoch: Epoch(word(8)), nodes: make(map[int]int, n), chains: make(map[int][]int)}
	members := make([]int, n)
	for i := range members {
		members[i] = word(12 + 8*i)
		l.nodes[members[i]] = word(16 + 8*i)
	}
	l.ring = NewRingFrom(members, word(0))
	off := 12 + 8*n
	if len(buf) < off+4 {
		return l, nil // pre-chain layout
	}
	count := word(off)
	off += 4
	for i := 0; i < count; i++ {
		if len(buf) < off+8 {
			return ringLayout{}, fmt.Errorf("shard: resolve %q: truncated chain %d", name, i)
		}
		slot, k := word(off), word(off+4)
		off += 8
		if len(buf) < off+4*k {
			return ringLayout{}, fmt.Errorf("shard: resolve %q: truncated members of slot %d", name, slot)
		}
		nodes := make([]int, k)
		for j := range nodes {
			nodes[j] = word(off + 4*j)
		}
		off += 4 * k
		l.chains[slot] = nodes
	}
	return l, nil
}

// ResolveRingAny is ResolveRing with a hint list instead of a single
// machine: for each hint it tries the canonical record, then the hint's
// membership mirror ("dfs.ring.<hint>", kept by control-plane replicas
// configured with MirrorMembership). The single-hint form silently
// assumes the founding shard's machine is alive — exactly the machine a
// failover campaign kills; that record also *points* at the founder, so
// a surviving registry copy is not enough. A clerk that hands in the
// control-plane replicas as extra hints resolves from whichever replica
// still answers: the mirror's record and bytes both live on the replica
// itself. Each dead probe costs at most one nsBootDeadline of retries;
// only the last error is returned.
func ResolveRingAny(p *des.Proc, m *rmem.Manager, ns *nameserver.Clerk, hints []int) (*Ring, Epoch, map[int]int, error) {
	var err error
	for _, hint := range hints {
		for _, name := range []string{ringName, fmt.Sprintf("%s.%d", ringName, hint)} {
			var l ringLayout
			if l, err = resolveRingNamed(p, m, ns, name, hint); err == nil {
				return l.ring, l.epoch, l.nodes, nil
			}
		}
	}
	if err == nil {
		err = fmt.Errorf("shard: resolve %q: no hints", ringName)
	}
	return nil, 0, nil, err
}

// RingName is the registered name of the membership blob — what a
// harness passes to consensus.ControlPlane.MirrorMembership so replicas
// keep per-node copies under "dfs.ring.<node>".
const RingName = ringName

// Coordinators returns the per-shard recovery coordinators (nil entries for
// shards without ArmChainFailover).
func (s *Service) Coordinators() []*recovery.Coordinator {
	return append([]*recovery.Coordinator(nil), s.coords...)
}
