package consensus

import (
	"encoding/binary"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/nameserver"
	"netmem/internal/rmem"
)

// ControlPlane runs the reproduction's control plane over the replicated
// log: one Replica per acceptor (co-located — the learn write's notify
// bit is the only control transfer between agreement and apply), each
// holding a name-service clerk that the log keeps in sync. Registry
// mutations, fencing verdicts, membership epoch bumps, and leader leases
// are decrees; every replica applies the same total order, so any replica
// answers lookups and any replica — including the current leader — can
// crash without losing the control plane.
type ControlPlane struct {
	g    *Group
	reps []*Replica

	nextLane int
	fenceMax int    // fence-table width in nodes (0 = table disabled)
	mirror   string // membership-mirror base name (MirrorMembership)

	// LastElection is the most recent leader re-election latency:
	// watchdog verdict to lease decree applied at the winner.
	LastElection des.Duration
	// Elections counts completed re-elections.
	Elections int64
}

// Replica is one control-plane state machine, co-located with its
// acceptor. It applies learned slots in log order.
type Replica struct {
	cp   *ControlPlane
	idx  int
	acc  *Acceptor
	prop *Proposer
	ns   *nameserver.Clerk // optional: registry decrees apply here

	applied  int       // next slot to apply
	maxSeen  int       // highest slot with a known learn (hole detection)
	filling  bool      // hole-fill probe in flight
	log      []Command // applied decrees, in order
	appliedQ *des.WaitQueue

	leader     int // replica index holding the lease
	leaseEpoch uint32
	seq        uint32 // per-origin proposal sequence
	wd         *rmem.Watchdog

	// Compaction state: the watermark below which slots are recycled and
	// a running FNV-64a digest of every applied decree. The checkpoint
	// lives in the acceptor segment, behind the base word.
	snapBase    int
	snapPending bool
	digest      uint64

	// fenceSeg is the replica's exported fence table (EnableFenceTable):
	// one word per node, bumped even->odd by a fence decree and odd->even
	// by the unfence. WriteLease reads it one-sided.
	fenceSeg *rmem.Segment

	// mirrorSeg is the replica's local copy of the latest membership
	// blob (MirrorMembership), re-exported on every membership decree.
	mirrorSeg *rmem.Segment

	// Applied counts decrees applied; Holes counts noop hole-fills this
	// replica initiated.
	Applied int64
	Holes   int64
}

const holeGrace = 1 * time.Millisecond

// NewControlPlane builds replicas over g's acceptors. clerks[i], when
// non-nil, is the name-service clerk on acceptor i's machine; registry
// and fence decrees are applied to it. Lanes 0..len(accs)-1 belong to the
// replicas; NewClient hands out the rest.
func NewControlPlane(p *des.Proc, g *Group, clerks []*nameserver.Clerk) *ControlPlane {
	cp := &ControlPlane{g: g, nextLane: len(g.Accs)}
	for i, acc := range g.Accs {
		r := &Replica{
			cp: cp, idx: i, acc: acc,
			prop:     NewProposer(p, acc.M, i, g),
			appliedQ: des.NewWaitQueue(acc.M.Node.Env),
			leader:   -1,
		}
		if clerks != nil && clerks[i] != nil {
			r.ns = clerks[i]
		}
		acc.OnLearn(func(lp *des.Proc, slot int) { r.noteLearn(lp, slot) })
		acc.Seg.OnNotify(func(np *des.Proc, note rmem.Notification) {
			cfg := g.Cfg
			if off := note.Offset; off < cfg.hbOff() && off%cfg.slotSize() == 4 {
				// The physical slot is ambiguous under recycling; the
				// learned cell's logical-slot prefix says which decree
				// actually arrived.
				if cell := acc.Seg.Bytes()[off:]; be32(cell) != 0 {
					r.noteLearn(np, int(be32(cell[4:])))
				}
			}
		})
		cp.reps = append(cp.reps, r)
	}
	return cp
}

// EnableFenceTable exports a one-word-per-node fence table on every
// replica. Fence/unfence decrees bump the target node's word (even =
// writable, odd = fenced; each unfence lands on a fresh even epoch), and
// WriteLease reads the words one-sided to decide whether its holder may
// still mutate data. Call before Start, with maxNodes covering every
// machine a lease will ever guard.
func (cp *ControlPlane) EnableFenceTable(p *des.Proc, maxNodes int) {
	cp.fenceMax = maxNodes
	for _, r := range cp.reps {
		r.fenceSeg = r.acc.M.Export(p, maxNodes*4)
		r.fenceSeg.SetDefaultRights(rmem.RightRead)
	}
}

// MirrorMembership makes every replica keep a resolvable local copy of
// the latest membership blob: each KindMembership decree is re-exported
// on the replica's own node and registered in its own registry as
// "<name>.<node>". A client that loses the publishing machine re-reads
// the ring from any replica — the record and the bytes both live there,
// so no surviving path depends on the founder. Requires replicas built
// with name-service clerks.
func (cp *ControlPlane) MirrorMembership(name string) { cp.mirror = name }

// mirrorMembership applies one membership decree to the replica's local
// mirror: export a fresh copy (superseding the previous by generation),
// register it locally, revoke the old segment.
func (r *Replica) mirrorMembership(p *des.Proc, cmd Command) {
	if r.cp.mirror == "" || r.ns == nil || len(cmd.Blob) == 0 {
		return
	}
	m := r.acc.M
	old := r.mirrorSeg
	seg := m.Export(p, len(cmd.Blob))
	seg.SetDefaultRights(rmem.RightRead)
	copy(seg.Bytes(), cmd.Blob)
	r.mirrorSeg = seg
	rec := nameserver.Record{
		Name: fmt.Sprintf("%s.%d", r.cp.mirror, m.Node.ID), Node: m.Node.ID,
		Seg: seg.ID(), Gen: seg.Gen(), Epoch: m.Incarnation(), Size: seg.Size(),
	}
	if err := r.ns.ApplyRecord(p, rec); err != nil &&
		err != nameserver.ErrExists && err != nameserver.ErrNotReady {
		m.Node.Faults = append(m.Node.Faults,
			fmt.Errorf("consensus: replica %d mirror %q: %w", r.idx, rec.Name, err))
	}
	if old != nil {
		m.Revoke(p, old)
	}
}

// Start proposes the initial lease (epoch 1, replica 0) and waits for the
// proposing replica to apply it.
func (cp *ControlPlane) Start(p *des.Proc) error {
	r := cp.reps[0]
	if err := r.proposeCmd(p, Command{Kind: KindLease, Node: 0, Epoch: 1}); err != nil {
		return err
	}
	return r.AwaitApplied(p, 1, time.Second)
}

// Replicas exposes the replica set (read-mostly: tests and harnesses).
func (cp *ControlPlane) Replicas() []*Replica { return cp.reps }

// Leader returns the lease holder as seen by the lowest live replica
// (-1 before the first lease).
func (cp *ControlPlane) Leader() int {
	for _, r := range cp.reps {
		if !r.acc.M.Node.Failed() {
			return r.leader
		}
	}
	return -1
}

// Group returns the underlying consensus group.
func (cp *ControlPlane) Group() *Group { return cp.g }

// ---------------------------------------------------------------------------
// Replica: apply path.

// noteLearn records a learn signal for slot and drains every contiguously
// learned slot. Runs in the notify handler (remote learns) or the
// learner's process (local fast path).
func (r *Replica) noteLearn(p *des.Proc, slot int) {
	if slot > r.maxSeen {
		r.maxSeen = slot
	}
	r.pump(p)
}

func (r *Replica) pump(p *des.Proc) {
	// Apply at most one window past the watermark: a decree beyond that
	// cannot exist, since proposers refuse slots outside
	// [base, base+Slots).
	for r.applied < r.snapBase+r.cp.g.Cfg.Slots {
		b, val := r.acc.Learned(p, r.applied)
		if b == 0 {
			break
		}
		cmd, err := Decode(val)
		if err != nil {
			// An undecodable decree would desynchronize the replicas;
			// surface it loudly instead of skipping.
			r.acc.M.Node.Faults = append(r.acc.M.Node.Faults,
				fmt.Errorf("consensus: replica %d slot %d: %w", r.idx, r.applied, err))
			break
		}
		slot := r.applied
		r.applied++
		r.Applied++
		r.apply(p, slot, cmd)
	}
	r.appliedQ.WakeAll()
	// A learned slot beyond the apply horizon with a hole below it means
	// some proposer died mid-decree. Give the race a grace period, then
	// drive a noop through the open slot — phase 1 adopts whatever was
	// accepted there, so the noop completes the interrupted proposal
	// rather than overwriting it.
	if r.maxSeen >= r.applied && !r.filling {
		r.filling = true
		stuckAt := r.applied
		env := r.acc.M.Node.Env
		env.After(holeGrace, func() {
			env.Spawn(fmt.Sprintf("consensus.r%d.fill", r.idx), func(fp *des.Proc) {
				defer func() { r.filling = false }()
				if r.applied != stuckAt || r.maxSeen < r.applied {
					r.pump(fp)
					return
				}
				r.Holes++
				if _, err := r.prop.Propose(fp, stuckAt, Command{Kind: KindNoop, Origin: uint8(r.idx)}.Encode()); err == nil {
					r.noteLearn(fp, stuckAt)
				}
			})
		})
	}
}

func (r *Replica) apply(p *des.Proc, slot int, cmd Command) {
	env := r.acc.M.Node.Env
	r.log = append(r.log, cmd)
	switch cmd.Kind {
	case KindLease:
		if cmd.Epoch > r.leaseEpoch {
			r.leaseEpoch = cmd.Epoch
			r.leader = cmd.Node
			r.watchLeader()
		}
	case KindRegister:
		if r.ns != nil {
			if err := r.ns.ApplyRecord(p, cmd.Rec); err != nil &&
				err != nameserver.ErrExists && err != nameserver.ErrNotReady {
				r.acc.M.Node.Faults = append(r.acc.M.Node.Faults,
					fmt.Errorf("consensus: replica %d apply register %q: %w", r.idx, cmd.Rec.Name, err))
			}
		}
	case KindFence:
		if r.ns != nil {
			r.ns.FencePeer(cmd.Node)
		}
		r.fenceWord(p, cmd.Node, true)
	case KindUnfence:
		if r.ns != nil {
			r.ns.UnfencePeer(cmd.Node)
		}
		r.fenceWord(p, cmd.Node, false)
	case KindSnapshot:
		r.checkpoint(p, slot)
		r.snapPending = false
	case KindMembership:
		// Membership is consumed by subscribers (the shard tier re-reads
		// its ring from the blob); with a mirror name configured, the
		// replica additionally keeps a local copy any client can resolve
		// after the publishing machine dies.
		r.mirrorMembership(p, cmd)
	case KindNoop:
	}
	r.digest = foldDigest(r.digest, cmd.Encode())
	if tr := env.Tracer(); tr != nil {
		tr.Count("consensus.applied", 1)
		tr.Count("consensus.applied."+cmd.Kind.String(), 1)
	}
	r.maybeSnapshot()
}

// fenceWord bumps node's fence-table word: even->odd on fence, odd->even
// on unfence. Every unfence lands on a *new* even value, so a lease
// holder that was fenced and unfenced while unreachable sees an epoch it
// never granted writes under — it stays deposed rather than resuming.
func (r *Replica) fenceWord(p *des.Proc, node int, fence bool) {
	if r.fenceSeg == nil || node < 0 || node >= r.cp.fenceMax {
		return
	}
	w := r.fenceSeg.ReadWord(p, node*4)
	if fence == (w%2 == 0) {
		r.fenceSeg.WriteWord(p, node*4, w+1)
	}
}

// maybeSnapshot proposes a snapshot decree when the leader replica sees
// the live window 3/4 consumed. Any replica could propose one safely —
// the leader restriction just avoids duelling snapshots.
func (r *Replica) maybeSnapshot() {
	cfg := r.cp.g.Cfg
	if r.snapPending || r.leader != r.idx {
		return
	}
	if r.applied-r.snapBase < cfg.Slots*3/4 {
		return
	}
	r.snapPending = true
	r.acc.M.Node.Env.Spawn(fmt.Sprintf("consensus.r%d.snap", r.idx), func(fp *des.Proc) {
		if err := r.proposeCmd(fp, Command{Kind: KindSnapshot}); err != nil {
			r.snapPending = false
		}
	})
}

// ckptSize is the checkpoint blob at Config.ckptOff: applied(8) |
// leaseEpoch(4) | leader(4) | digest(8).
const ckptSize = 24

// checkpoint persists the replica's applied state into the checkpoint
// words of its acceptor segment and advances the recycling watermark
// past the snapshot decree's own slot. The decree carries no watermark —
// newBase = slot+1 falls out of where it landed, so replicas agree
// without coordination.
//
// Nothing is erased. A recycled physical slot keeps its old control
// word, value cells, and learned cell; the logical-slot prefix carried
// in every value makes all of them inert to the next occupant (stale
// learned/accepted cells read as open, stale promises merely start the
// new occupant's ballots higher). Deliberately so: an eager wipe would
// destroy promises for proposals still in flight at the head — the
// decree that advances the watermark commits *at* the head, with its
// neighbours' phase 2 racing it.
func (r *Replica) checkpoint(p *des.Proc, slot int) {
	cfg := r.cp.g.Cfg
	var blob [ckptSize]byte
	binary.BigEndian.PutUint64(blob[0:], uint64(slot))
	binary.BigEndian.PutUint32(blob[8:], r.leaseEpoch)
	binary.BigEndian.PutUint32(blob[12:], uint32(int32(r.leader)))
	binary.BigEndian.PutUint64(blob[16:], r.digest)
	r.acc.Seg.WriteLocal(p, cfg.ckptOff(), blob[:])
	r.snapBase = slot + 1
	r.acc.Seg.WriteWord(p, cfg.baseOff(), uint32(r.snapBase))
}

// foldDigest folds b into an FNV-64a running digest.
func foldDigest(d uint64, b []byte) uint64 {
	if d == 0 {
		d = 14695981039346656037
	}
	for _, c := range b {
		d ^= uint64(c)
		d *= 1099511628211
	}
	return d
}

// SnapBase returns the replica's compaction watermark.
func (r *Replica) SnapBase() int { return r.snapBase }

// Digest returns the running digest over applied decrees.
func (r *Replica) Digest() uint64 { return r.digest }

// Checkpoint decodes the replica's checkpoint: the slot the last
// snapshot decree landed in (-1 if none yet), the lease state, and the
// digest over every decree folded before the snapshot decree itself.
// A nil proc reads the raw bytes with no simulated access cost
// (post-run inspection from tests and harness audits).
func (r *Replica) Checkpoint(p *des.Proc) (slot int, leaseEpoch uint32, leader int, digest uint64) {
	if r.snapBase == 0 {
		return -1, 0, -1, 0
	}
	off := r.cp.g.Cfg.ckptOff()
	var buf []byte
	if p != nil {
		buf = r.acc.Seg.ReadLocal(p, off, ckptSize)
		defer r.acc.M.Buffers().Put(buf)
	} else {
		buf = r.acc.Seg.Bytes()[off : off+ckptSize]
	}
	slot = int(binary.BigEndian.Uint64(buf[0:]))
	leaseEpoch = binary.BigEndian.Uint32(buf[8:])
	leader = int(int32(binary.BigEndian.Uint32(buf[12:])))
	digest = binary.BigEndian.Uint64(buf[16:])
	return slot, leaseEpoch, leader, digest
}

// AwaitApplied blocks until the replica has applied at least n decrees.
func (r *Replica) AwaitApplied(p *des.Proc, n int, timeout des.Duration) error {
	env := r.acc.M.Node.Env
	timedOut := false
	if timeout > 0 {
		cancel := env.After(timeout, func() {
			timedOut = true
			r.appliedQ.WakeAll()
		})
		defer cancel()
	}
	for r.applied < n && !timedOut {
		r.appliedQ.Wait(p)
	}
	if r.applied < n {
		return rmem.ErrTimeout
	}
	return nil
}

// Log returns the applied decrees so far (shared backing array;
// callers treat it as read-only).
func (r *Replica) Log() []Command { return r.log }

// AppliedCount returns the replica's apply horizon.
func (r *Replica) AppliedCount() int { return r.applied }

// Idx returns the replica index (also its ballot lane).
func (r *Replica) Idx() int { return r.idx }

// Clerk returns the replica's name-service clerk (may be nil).
func (r *Replica) Clerk() *nameserver.Clerk { return r.ns }

// proposeCmd stamps origin/sequence and drives cmd into the first open
// slot.
func (r *Replica) proposeCmd(p *des.Proc, cmd Command) error {
	cmd.Origin = uint8(r.idx)
	r.seq++
	cmd.Seq = r.seq
	slot, err := r.prop.Commit(p, cmd.Encode())
	if err != nil {
		return err
	}
	r.noteLearn(p, slot)
	return nil
}

// ---------------------------------------------------------------------------
// Leases and re-election.

// watchLeader (re)arms the lease watchdog after a lease decree: every
// replica that is not the leader watches the leader's acceptor heartbeat.
// The watchdog captures the lease epoch it was armed under, so a stale
// verdict against a superseded leader is ignored.
func (r *Replica) watchLeader() {
	if r.leader == r.idx || r.leader < 0 || r.leader >= len(r.cp.reps) {
		return
	}
	cfg := r.cp.g.Cfg
	ep := r.prop.eps[r.leader]
	if ep.imp == nil {
		return // co-located with the leader's acceptor: it dies with us
	}
	epoch := r.leaseEpoch
	m := r.acc.M
	r.wd = rmem.NewWatchdogCfg(m, ep.imp, cfg.hbOff(), rmem.WatchdogConfig{
		Interval: leaseInterval,
		Timeout:  m.Node.P.RetryTimeout,
		Grace:    leaseGrace,
	}, func(p *des.Proc, err error) { r.leaderDown(p, epoch) })
}

// leaderDown runs on a lease-watchdog verdict: after a rank-staggered
// delay (lower-indexed live replicas go first, so re-election is
// deterministic under a fixed seed), propose the next lease unless
// someone already did. Paxos makes duelling candidacies safe — the log
// picks one.
func (r *Replica) leaderDown(p *des.Proc, epoch uint32) {
	if r.leaseEpoch != epoch {
		return // stale verdict against a superseded lease
	}
	verdictAt := p.Now()
	dead := r.leader
	// The verdict condemned the leader's machine; skip its acceptor for a
	// while so the lease proposal does not stall probing it. If the verdict
	// was wrong the acceptor rejoins quorums when the mute expires.
	if dead >= 0 {
		r.prop.Suspect(dead, des.Duration(100*time.Millisecond))
	}
	rank := 0
	for i := 0; i < r.idx; i++ {
		if i != dead && !r.prop.eps[i].dead {
			rank++
		}
	}
	if rank > 0 {
		p.Sleep(des.Duration(rank) * 1 * time.Millisecond)
	}
	if r.leaseEpoch != epoch {
		r.watchLeader() // a rival already won; just re-arm
		return
	}
	if err := r.proposeCmd(p, Command{Kind: KindLease, Node: r.idx, Epoch: epoch + 1}); err != nil {
		return
	}
	if r.leader == r.idx && r.leaseEpoch == epoch+1 {
		d := p.Now().Sub(verdictAt)
		r.cp.LastElection = d
		r.cp.Elections++
		if tr := r.acc.M.Node.Env.Tracer(); tr != nil {
			tr.Observe("consensus.election", time.Duration(d))
		}
	}
}

// ---------------------------------------------------------------------------
// Clients: external proposers (data-plane machines) with their own lane.

// Client proposes control-plane decrees from a machine that is not a
// replica. It satisfies recovery.VerdictLog and the shard tier's
// control-log hook. Client lanes are *leased* (see lease.go): the client
// renews a beacon while alive, and a crashed client's lane is reclaimed
// by a later TryNewClient once a quorum has watched the beacon stay
// still for laneTTL.
type Client struct {
	cp   *ControlPlane
	prop *Proposer
	rn   *renewer
	seq  uint32
}

// TryNewClient claims a leased ballot lane for a proposer on m: a
// never-used lane when one remains, else the first client lane whose
// owner's beacon a quorum agrees has gone stale. ErrNoFreeLane means
// every client lane has a live, renewing owner.
func (cp *ControlPlane) TryNewClient(p *des.Proc, m *rmem.Manager) (*Client, error) {
	cfg := cp.g.Cfg
	first := len(cp.reps)
	if first >= cfg.Proposers {
		return nil, ErrNoFreeLane
	}
	// The probe lane is provisional: claim decides the real one below.
	pr := NewProposer(p, m, first, cp.g)
	pr.lock(p)
	claimed, tok := -1, uint32(0)
	for claimed < 0 && cp.nextLane < cfg.Proposers {
		lane := cp.nextLane
		t, ok, err := pr.claimLane(p, lane)
		if err != nil {
			pr.unlock()
			return nil, err
		}
		cp.nextLane++
		if ok {
			claimed, tok = lane, t
		}
	}
	if claimed < 0 {
		// Reclaim scan: snapshot every client lane's renew beacon, wait
		// out one TTL, and steal the first lane a quorum confirms stale.
		type sample struct {
			eps  []*endpoint
			vals []uint32
		}
		snaps := make(map[int]sample)
		for lane := first; lane < cfg.Proposers; lane++ {
			eps, vals := pr.readLaneWord(p, cfg.renewOff(lane))
			if len(eps) >= cfg.Quorum() {
				snaps[lane] = sample{eps, vals}
			}
		}
		p.Sleep(des.Duration(laneTTL))
		for lane := first; lane < cfg.Proposers && claimed < 0; lane++ {
			s, ok := snaps[lane]
			if !ok {
				continue
			}
			unchanged := 0
			for i, ep := range s.eps {
				v, err := pr.readWordAt(p, ep, cfg.renewOff(lane))
				if err == nil && v == s.vals[i] {
					unchanged++
				}
			}
			if unchanged < cfg.Quorum() {
				continue // a live owner moved the beacon — never steal
			}
			t, won, err := pr.claimLane(p, lane)
			if err == nil && won {
				claimed, tok = lane, t
			}
		}
		if claimed < 0 {
			pr.unlock()
			return nil, ErrNoFreeLane
		}
	}
	pr.lane = claimed
	pr.leased = true
	pr.tok = tok
	if err := pr.reserveRange(p, 0); err != nil {
		pr.unlock()
		return nil, err
	}
	pr.unlock()
	cl := &Client{cp: cp, prop: pr}
	cl.rn = pr.startRenew(p)
	return cl, nil
}

// NewClient is TryNewClient for callers whose topology guarantees a lane
// exists; it panics where TryNewClient would report the shortage.
func (cp *ControlPlane) NewClient(p *des.Proc, m *rmem.Manager) *Client {
	cl, err := cp.TryNewClient(p, m)
	if err != nil {
		panic("consensus: out of proposer lanes (raise Config.Proposers): " + err.Error())
	}
	return cl
}

// Close releases the client's lane lease: the beacon stops and the claim
// word is handed back, so the next TryNewClient reuses the lane without
// waiting out a TTL. The client must not propose afterwards.
func (cl *Client) Close(p *des.Proc) {
	if cl.rn != nil {
		cl.rn.stop(p, true)
	}
	cl.prop.lost = true
}

// Abandon stops the lease beacon without releasing the claim — exactly
// what a crash looks like on the wire. Tests use it to exercise lane
// reclamation.
func (cl *Client) Abandon() {
	if cl.rn != nil {
		cl.rn.stopped = true
	}
}

// LaneLost reports whether the client observed its lease stolen.
func (cl *Client) LaneLost() bool { return cl.prop.lost }

func (cl *Client) propose(p *des.Proc, cmd Command) error {
	cmd.Origin = uint8(cl.prop.Lane())
	cl.seq++
	cmd.Seq = cl.seq
	_, err := cl.prop.Commit(p, cmd.Encode())
	return err
}

// RegisterName replicates a registry record through the log.
func (cl *Client) RegisterName(p *des.Proc, rec nameserver.Record) error {
	return cl.propose(p, Command{Kind: KindRegister, Rec: rec})
}

// ProposeFence replicates a fencing verdict for peer.
func (cl *Client) ProposeFence(p *des.Proc, peer int) error {
	return cl.propose(p, Command{Kind: KindFence, Node: peer})
}

// ProposeUnfence replicates the end of peer's outage.
func (cl *Client) ProposeUnfence(p *des.Proc, peer int) error {
	return cl.propose(p, Command{Kind: KindUnfence, Node: peer})
}

// ProposeMembership commits a shard-ring epoch bump with its packed ring.
func (cl *Client) ProposeMembership(p *des.Proc, epoch uint32, blob []byte) error {
	return cl.propose(p, Command{Kind: KindMembership, Epoch: epoch, Blob: blob})
}

// Noop drives an empty decree through the log (liveness probes, benches).
func (cl *Client) Noop(p *des.Proc) error {
	return cl.propose(p, Command{Kind: KindNoop})
}

// Proposer exposes the client's underlying proposer (stats, tests).
func (cl *Client) Proposer() *Proposer { return cl.prop }
