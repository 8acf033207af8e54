package shard

import (
	"encoding/binary"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/nameserver"
	"netmem/internal/recovery"
	"netmem/internal/rmem"
)

// Per-shard replica sets. AttachReplicas hangs a k-member chain under one
// shard: the primary pushes changed buckets down the chain (dfs.AttachChain)
// and any clerk holding a read token may READ any member's frames directly —
// the replica read tier that scales hot-block goodput with k while the
// primary's CPU stays flat (ROADMAP open item 2, the Figure-3 argument
// extended to replicated reads). Failover (ArmChainFailover) promotes the
// most-advanced member by comparing one-sided applied-watermark reads, and
// a mid-chain crash splices the chain and publishes the new membership as a
// control-plane decree when a log is attached.

// chainSpec tracks one slot's replica chain.
type chainSpec struct {
	epoch    uint32
	members  []*dfs.ChainReplica
	mgrs     []*rmem.Manager
	interval des.Duration
}

// AttachReplicas builds slot's replica chain, one member per manager (each
// on its own node), wires it under the shard's primary, and teaches every
// token-caching clerk to read from it. interval paces both the primary's
// push daemon and the members' forwarders.
func (s *Service) AttachReplicas(p *des.Proc, slot int, mgrs []*rmem.Manager, interval des.Duration) error {
	if slot < 0 || slot >= len(s.Shards) || s.Shards[slot] == nil {
		return fmt.Errorf("shard: attach replicas to vacant slot %d", slot)
	}
	if len(mgrs) == 0 {
		return fmt.Errorf("shard: attach replicas: no members")
	}
	for len(s.chains) <= slot {
		s.chains = append(s.chains, nil)
	}
	spec := &chainSpec{epoch: 1, mgrs: append([]*rmem.Manager(nil), mgrs...), interval: interval}
	for _, m := range mgrs {
		spec.members = append(spec.members, dfs.NewChainReplica(p, m, s.Geo))
	}
	s.chains[slot] = spec
	if err := s.Shards[slot].AttachChain(p, spec.epoch, spec.members, interval); err != nil {
		return err
	}
	s.hookSplices(slot, spec)
	for _, c := range s.clerks {
		c.wireReplicas(p, slot)
	}
	if s.names != nil {
		// The blob now carries a chain section; re-publish so late joiners
		// can ResolveRingChains.
		return s.RegisterNames(p, s.names)
	}
	return nil
}

// chainOf returns slot's chain spec, nil when none is attached.
func (s *Service) chainOf(slot int) *chainSpec {
	if slot < 0 || slot >= len(s.chains) {
		return nil
	}
	return s.chains[slot]
}

// Replicas returns slot's current chain members (promotion and splices
// shrink it); nil when the slot has no chain.
func (s *Service) Replicas(slot int) []*dfs.ChainReplica {
	if slot < 0 || slot >= len(s.chains) || s.chains[slot] == nil {
		return nil
	}
	return append([]*dfs.ChainReplica(nil), s.chains[slot].members...)
}

// awaitChain lets the chain pushes land the warm buckets on every member of
// slot's chain. Deep members catch up one forwarding hop per interval, so
// it polls each millisecond, for at most 200ms, until the whole chain
// agrees on a nonzero applied watermark.
func (s *Service) awaitChain(p *des.Proc, slot int) {
	for tries := 0; tries < 200; tries++ {
		p.Sleep(des.Duration(time.Millisecond))
		lo, hi := ^uint64(0), uint64(0)
		for _, cr := range s.Replicas(slot) {
			a := cr.Applied()
			lo, hi = min(lo, a), max(hi, a)
		}
		if lo == hi && lo > 0 {
			return
		}
	}
}

// hookSplices re-arms the mid-chain crash hook on every member.
func (s *Service) hookSplices(slot int, spec *chainSpec) {
	for _, cr := range spec.members {
		cr.OnSplice(func(p *des.Proc) { s.spliceChain(p, slot) })
	}
}

// spliceChain drops dead members and re-chains the survivors under a new
// replica-set epoch — the mid-chain crash path. The new membership rides a
// control-plane decree when a log is attached: replicas of the control
// plane agree on which chain members are live, exactly as they agree on
// ring epochs.
func (s *Service) spliceChain(p *des.Proc, slot int) {
	spec := s.chains[slot]
	if spec == nil || s.Shards[slot] == nil {
		return
	}
	var live []*dfs.ChainReplica
	for _, cr := range spec.members {
		if !cr.Node().Failed() {
			live = append(live, cr)
		}
	}
	if len(live) == len(spec.members) {
		return // transient push failure, not a death: keep the chain
	}
	spec.members = live
	spec.epoch++
	s.ChainSplices++
	if tr := s.ringHost.Node.Env.Tracer(); tr != nil {
		tr.Count("shard.chain.splices", 1)
	}
	if len(live) > 0 {
		if err := s.Shards[slot].AttachChain(p, spec.epoch, live, spec.interval); err != nil {
			s.chains[slot] = nil
		}
		s.hookSplices(slot, spec)
	} else {
		s.chains[slot] = nil
	}
	for _, c := range s.clerks {
		c.wireReplicas(p, slot)
	}
	if s.clog != nil {
		_, epoch := s.mb.Current()
		if err := s.clog.ProposeMembership(p, uint32(epoch), s.ringBlob()); err != nil {
			s.ControlLogErrors++
		}
	}
}

// ArmChainFailover wires slot i's recovery path over its replica chain
// instead of a dedicated standby: on heartbeat loss the coordinator reads
// every member's applied watermark with bounded one-sided READs, promotes
// the most advanced one (fenced takeover of its grafted write-behind
// state), re-chains the survivors under it, and publishes the slot move so
// clerks rebind. Call after AttachReplicas.
func (s *Service) ArmChainFailover(p *des.Proc, i int, watcher *rmem.Manager, hbInterval des.Duration) (*recovery.Coordinator, error) {
	if i < 0 || i >= len(s.chains) || s.chains[i] == nil {
		return nil, fmt.Errorf("shard: arm chain failover: slot %d has no chain", i)
	}
	hb := s.mgrs[i].Export(p, 8)
	hb.SetDefaultRights(rmem.RightRead)
	rmem.StartHeartbeat(s.mgrs[i], hb, 0, hbInterval)
	hbImp := watcher.Import(p, s.mgrs[i].Node.ID, hb.ID(), hb.Gen(), 8)

	rec := recovery.New(watcher, s.mgrs[i].Node.ID, recovery.Config{})
	rec.OnFailover("chain.promote", func(p *des.Proc) error {
		return s.promoteChain(p, i, watcher)
	})
	rec.OnFailover("membership.rebind", func(p *des.Proc) error {
		s.mb.publishSlotMove(p, i, s.Shards[i].Node().ID)
		return nil
	})
	rec.Watch(hbImp, 0)
	s.coords[i] = rec
	return rec, nil
}

// promoteChain elects and promotes the most-advanced live chain member of
// slot. Advancement is the applied watermark each forwarder maintains in
// its segment header — read one-sidedly, so a member is consulted without
// ever scheduling its CPU; an unreadable member is simply not a candidate.
// Ties break toward the head of the chain (deterministic).
func (s *Service) promoteChain(p *des.Proc, slot int, watcher *rmem.Manager) error {
	spec := s.chains[slot]
	if spec == nil || len(spec.members) == 0 {
		return fmt.Errorf("shard: promote: slot %d has no chain", slot)
	}
	best, bestApplied := -1, uint64(0)
	scratch := watcher.Export(p, 8)
	// A retransmitting probe needs room for its whole retry schedule —
	// the same deadline argument as Clerk.replicaBlock: a tighter bound
	// converts one clobbered chunk into a spurious timeout, and a
	// spuriously skipped member here drops the acknowledged write-behind
	// it held.
	pp := watcher.Node.P
	probeTO := des.Duration(pp.RetryLimit+1) * pp.RetryBackoffMax
	for idx, cr := range spec.members {
		if cr.Node().Failed() {
			continue
		}
		id, gen, size := cr.ChainSeg()
		imp := watcher.Import(p, cr.Node().ID, id, gen, size)
		imp.SetReliable(true)
		if err := imp.Read(p, dfs.ChainAppliedOff, 8, scratch, 0, probeTO); err != nil {
			continue
		}
		applied := uint64(scratch.ReadWord(p, 0))<<32 | uint64(scratch.ReadWord(p, 4))
		if best < 0 || applied > bestApplied {
			best, bestApplied = idx, applied
		}
	}
	if best < 0 {
		return fmt.Errorf("shard: promote: no reachable chain member for slot %d", slot)
	}
	srv, err := spec.members[best].TakeOver(p, s.Store, s.slotNodes, s.opts...)
	if err != nil {
		return err
	}
	s.Shards[slot] = srv
	s.PromotedNode = spec.members[best].Node().ID
	s.PromotedApplied = bestApplied
	if tr := s.ringHost.Node.Env.Tracer(); tr != nil {
		tr.Count("shard.chain.promotions", 1)
	}

	// Re-chain the survivors under the new head. Their frames hold
	// old-epoch versions below every post-promotion watermark, so clerks
	// fall back to the new primary until its pushes re-fill the chain —
	// correctness over availability during the handoff.
	var rest []*dfs.ChainReplica
	for idx, cr := range spec.members {
		if idx != best && !cr.Node().Failed() {
			rest = append(rest, cr)
		}
	}
	spec.members = rest
	spec.epoch++
	if len(rest) > 0 {
		if aerr := srv.AttachChain(p, spec.epoch, rest, spec.interval); aerr != nil {
			s.chains[slot] = nil
		} else {
			s.hookSplices(slot, spec)
		}
	} else {
		s.chains[slot] = nil
	}
	// Clerk re-wiring rides the membership.rebind step: Rebind re-imports
	// the chain-state from the promoted primary.
	return nil
}

// ---------------------------------------------------------------------------
// Ring-blob chain section. The base blob (ringBlob) is position-indexed,
// so readers of the old layout ignore the appended section; chain-aware
// clerks parse it with ResolveRingChains.

// chainBlobSection packs every attached chain: count, then per chain the
// slot, member count, and member node ids in chain order.
func (s *Service) chainBlobSection() []byte {
	var specs []int
	for slot, spec := range s.chains {
		if spec != nil && len(spec.members) > 0 {
			specs = append(specs, slot)
		}
	}
	blob := binary.BigEndian.AppendUint32(nil, uint32(len(specs)))
	for _, slot := range specs {
		spec := s.chains[slot]
		blob = binary.BigEndian.AppendUint32(blob, uint32(slot))
		blob = binary.BigEndian.AppendUint32(blob, uint32(len(spec.members)))
		for _, cr := range spec.members {
			blob = binary.BigEndian.AppendUint32(blob, uint32(cr.Node().ID))
		}
	}
	return blob
}

// ResolveRingChains resolves the published membership blob like
// ResolveRing and additionally parses the chain section: the slot →
// member-node-ids map a chain-aware clerk needs to import replica frames
// by name alone. A blob without a chain section yields an empty map.
func ResolveRingChains(p *des.Proc, m *rmem.Manager, ns *nameserver.Clerk, hint int) (map[int][]int, error) {
	var imp *rmem.Import
	err := awaitNS(p, nsBootDeadline, func() error {
		var ierr error
		imp, ierr = ns.Import(p, ringName, hint, true)
		return ierr
	})
	if err != nil {
		return nil, err
	}
	scratch := m.Export(p, imp.Size())
	if err := imp.Read(p, 0, imp.Size(), scratch, 0, time.Second); err != nil {
		return nil, err
	}
	buf := scratch.Bytes()
	if len(buf) < 12 {
		return nil, fmt.Errorf("shard: chain resolve: short blob (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint32(buf[4:]))
	off := 12 + 8*n
	chains := make(map[int][]int)
	if len(buf) < off+4 {
		return chains, nil // pre-chain layout
	}
	count := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < count; i++ {
		if len(buf) < off+8 {
			return nil, fmt.Errorf("shard: chain resolve: truncated chain %d", i)
		}
		slot := int(binary.BigEndian.Uint32(buf[off:]))
		k := int(binary.BigEndian.Uint32(buf[off+4:]))
		off += 8
		if len(buf) < off+4*k {
			return nil, fmt.Errorf("shard: chain resolve: truncated members of slot %d", slot)
		}
		nodes := make([]int, k)
		for j := 0; j < k; j++ {
			nodes[j] = int(binary.BigEndian.Uint32(buf[off+4*j:]))
		}
		off += 4 * k
		chains[slot] = nodes
	}
	return chains, nil
}
