package consensus

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// rig builds acceptors on nodes 0..R-1 and returns the managers for the
// remaining nodes (proposer machines).
type rig struct {
	env  *des.Env
	c    *cluster.Cluster
	mgrs []*rmem.Manager
	g    *Group
	live int // processes started with spawn that have not returned
}

func newRig(t testing.TB, seed int64, acceptors, extra int, cfg Config) *rig {
	t.Helper()
	env := des.NewEnv()
	env.Seed(seed)
	c := cluster.New(env, &model.Default, acceptors+extra)
	r := &rig{env: env, c: c}
	for i := 0; i < acceptors+extra; i++ {
		r.mgrs = append(r.mgrs, rmem.NewManager(c.Nodes[i]))
	}
	cfg.Acceptors = acceptors
	env.Spawn("rig.boot", func(p *des.Proc) {
		r.g = NewGroup(p, cfg, r.mgrs[:acceptors]...)
	})
	return r
}

// spawn starts a test process that run waits for. The last one to return
// halts the simulation.
func (r *rig) spawn(name string, fn func(*des.Proc)) {
	r.live++
	r.env.Spawn(name, func(p *des.Proc) {
		defer func() {
			if r.live--; r.live == 0 {
				r.env.Halt()
			}
		}()
		fn(p)
	})
}

// run runs the simulation until every process started with spawn has
// returned. Each acceptor beats its heartbeat word forever, so the event
// queue never drains; the horizon bounds a run whose processes hang.
func (r *rig) run(t testing.TB) {
	t.Helper()
	if err := r.env.RunUntil(des.Time(10 * time.Second)); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if r.live > 0 {
		t.Fatalf("%d test processes still running at the horizon", r.live)
	}
}

// heartbeat returns acceptor a's heartbeat counter: one per beat, each a
// local word write charged to the acceptor's client CPU.
func (r *rig) heartbeat(a *Acceptor) uint32 {
	return be32(a.Seg.Bytes()[r.g.Cfg.hbOff():])
}

// await parks p until the rig's boot process has exported the acceptors.
func (r *rig) await(p *des.Proc) {
	for r.g == nil {
		p.Sleep(10 * time.Microsecond)
	}
}

// TestSingleDecreeChosen: one proposer drives a value through three
// acceptors; every acceptor's learned cell holds it, and the acceptor
// machines spent zero process/control/client CPU on the agreement path —
// only kernel interface work (rx/reply) appears. The heartbeat's local
// word writes are the one client charge an acceptor makes, and they are
// subtracted by count.
func TestSingleDecreeChosen(t *testing.T) {
	r := newRig(t, 1, 3, 1, Config{})
	val := []byte("registry-record-0001")
	var chosen []byte
	beats := make([]uint32, 3) // heartbeat counters at the CPU reset
	r.spawn("proposer", func(p *des.Proc) {
		r.await(p)
		pr := NewProposer(p, r.mgrs[3], 0, r.g)
		pr.Notify = false // no replicas attached: measure pure agreement
		for i, a := range r.g.Accs {
			r.c.Nodes[a.Node()].ResetCPUAcct()
			beats[i] = r.heartbeat(a)
		}
		v, err := pr.Propose(p, 0, val)
		if err != nil {
			t.Errorf("propose: %v", err)
			return
		}
		chosen = v
	})
	r.run(t)
	if len(chosen) < len(val) || !bytes.Equal(chosen[:len(val)], val) {
		t.Fatalf("chosen = %q, want %q", chosen[:len(val)], val)
	}
	// Verify the learned cells out-of-band (raw memory, no simulated cost,
	// so the CPU assertion below stays clean): chosen ballot, then the
	// logical-slot prefix, then the value.
	for _, a := range r.g.Accs {
		buf := a.Seg.Bytes()[r.g.Cfg.learnedOff(0):]
		if be32(buf) == 0 {
			t.Errorf("acceptor %d learned cell still open", a.Node())
		}
		if be32(buf[4:]) != 0 {
			t.Errorf("acceptor %d learned cell carries slot prefix %d, want 0", a.Node(), be32(buf[4:]))
		}
		if !bytes.Equal(buf[8:8+len(val)], val) {
			t.Errorf("acceptor %d learned value = %q, want %q", a.Node(), buf[8:8+len(val)], val)
		}
	}
	for i, a := range r.g.Accs {
		n := r.c.Nodes[a.Node()]
		acct := n.CPUAcct
		hb := time.Duration(r.heartbeat(a)-beats[i]) * n.P.LocalWordAccess
		if hb == 0 {
			t.Errorf("acceptor node %d did not beat during the run", a.Node())
		}
		agreement := map[string]des.Duration{
			cluster.CatProc:    acct[cluster.CatProc],
			cluster.CatControl: acct[cluster.CatControl],
			cluster.CatClient:  acct[cluster.CatClient] - hb,
		}
		for cat, d := range agreement {
			if d != 0 {
				t.Errorf("acceptor node %d burned %v of %s CPU on the agreement path, want 0", a.Node(), d, cat)
			}
		}
		if acct[cluster.CatRx]+acct[cluster.CatReply] == 0 {
			t.Errorf("acceptor node %d shows no interface work — agreement traffic missing", a.Node())
		}
	}
}

// TestContendingProposersAgree: four proposers race distinct values into
// the same slot; exactly one value wins and every proposer returns it.
func TestContendingProposersAgree(t *testing.T) {
	const P = 4
	r := newRig(t, 7, 3, P, Config{})
	results := make([][]byte, P)
	for i := 0; i < P; i++ {
		i := i
		r.spawn("proposer", func(p *des.Proc) {
			r.await(p)
			pr := NewProposer(p, r.mgrs[3+i], i, r.g)
			v, err := pr.Propose(p, 0, []byte{byte('A' + i)})
			if err != nil {
				t.Errorf("proposer %d: %v", i, err)
				return
			}
			results[i] = v
		})
	}
	r.run(t)
	if t.Failed() {
		return
	}
	for i := 1; i < P; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("proposers disagree: %q vs %q", results[0][:1], results[i][:1])
		}
	}
}

// TestAdoptsAcceptedValue: a proposer that reaches only a partial accept
// (one acceptor) and stops must still have its value adopted by the next
// proposer if that acceptor's vote is visible in the rival's phase-1
// quorum — and must never be overwritten once a majority accepted it.
func TestAdoptsAcceptedValue(t *testing.T) {
	r := newRig(t, 3, 3, 2, Config{})
	r.spawn("crashing", func(p *des.Proc) {
		r.await(p)
		pr := NewProposer(p, r.mgrs[3], 0, r.g)
		// Run phases by hand: promise everywhere, accept on a majority
		// (acceptors 0 and 1), then vanish before learning.
		b := r.g.Cfg.firstBallot(0)
		for _, ep := range pr.eps {
			if _, _, ok := pr.promiseOne(p, ep, 0, b); !ok {
				t.Errorf("hand promise failed")
			}
		}
		orphan := cellValue(0, []byte("orphaned-but-chosen"))
		for _, ep := range pr.eps[:2] {
			if !pr.acceptOne(p, ep, 0, b, orphan) {
				t.Errorf("hand accept failed")
			}
		}
	})
	var got []byte
	r.spawn("rival", func(p *des.Proc) {
		r.await(p)
		p.Sleep(2 * time.Millisecond) // let the partial accept land first
		pr := NewProposer(p, r.mgrs[4], 1, r.g)
		v, err := pr.Propose(p, 0, []byte("rival-value"))
		if err != nil {
			t.Errorf("rival: %v", err)
			return
		}
		got = v
	})
	r.run(t)
	v := got
	if len(v) < len("orphaned-but-chosen") || !bytes.Equal(v[:len("orphaned-but-chosen")], []byte("orphaned-but-chosen")) {
		t.Fatalf("rival overwrote a majority-accepted value: got %q", v[:20])
	}
}

// TestCommandRoundTrip pins the decree codec.
func TestCommandRoundTrip(t *testing.T) {
	cmds := []Command{
		{Kind: KindNoop, Origin: 3, Seq: 9},
		{Kind: KindLease, Origin: 1, Seq: 2, Node: 2, Epoch: 7},
		{Kind: KindFence, Origin: 2, Seq: 5, Node: 11},
		{Kind: KindUnfence, Origin: 2, Seq: 6, Node: 11},
		{Kind: KindMembership, Origin: 4, Seq: 1, Epoch: 3, Blob: []byte{1, 2, 3, 4, 5}},
	}
	for _, c := range cmds {
		back, err := Decode(c.Encode())
		if err != nil {
			t.Fatalf("%v: %v", c.Kind, err)
		}
		if back.Kind != c.Kind || back.Origin != c.Origin || back.Seq != c.Seq ||
			back.Node != c.Node || back.Epoch != c.Epoch || !bytes.Equal(back.Blob, c.Blob) {
			t.Fatalf("round trip: got %+v want %+v", back, c)
		}
	}
	rec := Command{Kind: KindRegister, Origin: 1, Seq: 4}
	rec.Rec.Name = "dfs.ring"
	rec.Rec.Node = 2
	rec.Rec.Seg = 0x0140
	rec.Rec.Gen = 9
	rec.Rec.Epoch = 3
	rec.Rec.Size = 76
	back, err := Decode(rec.Encode())
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if back.Rec != rec.Rec {
		t.Fatalf("register round trip: got %+v want %+v", back.Rec, rec.Rec)
	}
	if _, err := Decode([]byte{0xff, 0, 0}); err == nil {
		t.Fatalf("short/unknown command decoded without error")
	}
}

// TestLeaderElectionDeterministic: the control plane re-elects after the
// leader machine crashes, and two same-seed runs elect the same leader
// after the same latency.
func TestLeaderElectionDeterministic(t *testing.T) {
	type outcome struct {
		leader   int
		epoch    uint32
		latency  des.Duration
		applied  int
		election int64
	}
	run := func(seed int64) outcome {
		r := newRig(t, seed, 3, 1, Config{})
		var cp *ControlPlane
		r.env.Spawn("cp.boot", func(p *des.Proc) {
			r.await(p)
			cp = NewControlPlane(p, r.g, nil)
			if err := cp.Start(p); err != nil {
				t.Errorf("start: %v", err)
			}
		})
		r.env.Schedule(des.Time(5*time.Millisecond), func() {
			r.c.Nodes[0].Fail() // kill the initial leader's machine
		})
		if err := r.env.RunUntil(des.Time(40 * time.Millisecond)); err != nil {
			t.Fatalf("sim: %v", err)
		}
		surv := cp.Replicas()[1]
		return outcome{
			leader:   surv.leader,
			epoch:    surv.leaseEpoch,
			latency:  cp.LastElection,
			applied:  surv.AppliedCount(),
			election: cp.Elections,
		}
	}
	a := run(11)
	if a.election != 1 {
		t.Fatalf("elections = %d, want exactly 1", a.election)
	}
	if a.leader == 0 {
		t.Fatalf("crashed leader still holds the lease")
	}
	if a.epoch != 2 {
		t.Fatalf("lease epoch = %d, want 2", a.epoch)
	}
	if a.latency <= 0 {
		t.Fatalf("election latency not measured")
	}
	b := run(11)
	if a != b {
		t.Fatalf("same-seed elections diverge: %+v vs %+v", a, b)
	}
	// Both survivors must agree on the outcome.
	r := newRig(t, 11, 3, 1, Config{})
	var cp *ControlPlane
	r.env.Spawn("cp.boot", func(p *des.Proc) {
		r.await(p)
		cp = NewControlPlane(p, r.g, nil)
		_ = cp.Start(p)
	})
	r.env.Schedule(des.Time(5*time.Millisecond), func() { r.c.Nodes[0].Fail() })
	if err := r.env.RunUntil(des.Time(40 * time.Millisecond)); err != nil {
		t.Fatalf("sim: %v", err)
	}
	r1, r2 := cp.Replicas()[1], cp.Replicas()[2]
	if r1.leader != r2.leader || r1.leaseEpoch != r2.leaseEpoch {
		t.Fatalf("survivors disagree: (%d,%d) vs (%d,%d)", r1.leader, r1.leaseEpoch, r2.leader, r2.leaseEpoch)
	}
}

// TestRestartedAcceptorFencedOut: an acceptor that crashes and cold-boots
// answers ErrStaleGeneration and is permanently excluded — amnesiac
// members must not vote again (they have forgotten their promises).
func TestRestartedAcceptorFencedOut(t *testing.T) {
	r := newRig(t, 5, 3, 1, Config{})
	r.spawn("run", func(p *des.Proc) {
		r.await(p)
		pr := NewProposer(p, r.mgrs[3], 0, r.g)
		if _, err := pr.Propose(p, 0, []byte("before")); err != nil {
			t.Errorf("propose: %v", err)
		}
		// Cold-boot acceptor 2: exports wiped, incarnation bumped.
		r.mgrs[2].Restart()
		if _, err := pr.Propose(p, 1, []byte("after")); err != nil {
			t.Errorf("propose after restart: %v", err)
		}
		if !pr.eps[2].dead {
			t.Errorf("restarted acceptor not marked dead (stale generation missed)")
		}
		// The surviving majority still carries both decrees.
		for _, a := range r.g.Accs[:2] {
			if b, _ := a.Learned(p, 1); b == 0 {
				t.Errorf("acceptor %d missing post-restart decree", a.Node())
			}
		}
	})
	r.run(t)
}
