package shard

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/consensus"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/model"
	"netmem/internal/nameserver"
	"netmem/internal/obs"
	"netmem/internal/rmem"
)

// TestCutoverCommitsMembershipThroughLog wires the shard tier's control
// mutations through a real consensus control plane (ReplicateControl with
// a consensus.Client) and drives a live AddShard cutover: the ring
// publication must land as replicated registry records and each epoch
// bump as a membership decree that every control-plane replica applies in
// the same order. Any replica can then resolve the ring after the
// publishing machine is gone — the single-point-of-truth gap the log
// exists to close.
func TestCutoverCommitsMembershipThroughLog(t *testing.T) {
	// Nodes 0,1 founding shards; 2 the joiner; 3 the shard clerk (and the
	// consensus client's machine); 4,5,6 acceptors + replicas.
	const (
		nodes     = 7
		joiner    = 2
		clerkNode = 3
		firstRep  = 4
		replicas  = 3
	)
	env := des.NewEnv()
	env.Seed(1)
	cl := cluster.New(env, &model.Default, nodes)
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}

	var (
		svc  *Service
		cp   *consensus.ControlPlane
		errs []error
	)
	ns := make([]*nameserver.Clerk, nodes)
	env.Spawn("setup", func(p *des.Proc) {
		// Name clerks boot first on every node that exports after them:
		// their well-known registry segments must be each node's first
		// exports.
		peers := []int{0, 1, joiner, firstRep, firstRep + 1, firstRep + 2}
		for _, n := range peers {
			ns[n] = nameserver.New(mgrs[n], peers, nameserver.Config{})
		}
		p.Sleep(time.Millisecond)

		g := consensus.NewGroup(p,
			consensus.Config{Acceptors: replicas, Proposers: replicas + 1, Slots: 256},
			mgrs[firstRep:firstRep+replicas]...)
		cp = consensus.NewControlPlane(p, g, ns[firstRep:firstRep+replicas])
		if err := cp.Start(p); err != nil {
			errs = append(errs, err)
			return
		}

		svc = NewService(p, mgrs[:2], nodes, dfs.Geometry{})
		NewClerk(p, mgrs[clerkNode], svc, dfs.DX)
		svc.ReplicateControl(cp.NewClient(p, mgrs[clerkNode]))
		if err := svc.RegisterNames(p, ns); err != nil {
			errs = append(errs, err)
		}
	})
	if err := env.RunUntil(des.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		t.Fatal(err)
	}

	memberships := func(r *consensus.Replica) []consensus.Command {
		var out []consensus.Command
		for _, cmd := range r.Log() {
			if cmd.Kind == consensus.KindMembership {
				out = append(out, cmd)
			}
		}
		return out
	}

	env.Spawn("test", func(p *des.Proc) {
		if _, err := svc.AddShard(p, mgrs[joiner]); err != nil {
			t.Errorf("AddShard: %v", err)
			return
		}
		_, epoch := svc.Membership().Current()
		wantBlob := svc.ringBlob()

		// Two membership decrees are in flight per replica: the boot
		// publication and the cutover's epoch bump. The lease stream keeps
		// appending behind them, so poll by kind, not by log length.
		deadline := p.Now().Add(des.Duration(500 * time.Millisecond))
		for _, r := range cp.Replicas() {
			for len(memberships(r)) < 2 {
				if p.Now() > deadline {
					t.Errorf("replica %d applied %d membership decree(s), want 2",
						r.Idx(), len(memberships(r)))
					return
				}
				p.Sleep(200 * time.Microsecond)
			}
		}

		var ref []consensus.Command
		for i, r := range cp.Replicas() {
			ms := memberships(r)
			if len(ms) != 2 {
				t.Errorf("replica %d: %d membership decrees, want 2", i, len(ms))
				continue
			}
			if ms[0].Epoch >= ms[1].Epoch {
				t.Errorf("replica %d: epochs not increasing: %d then %d", i, ms[0].Epoch, ms[1].Epoch)
			}
			if ms[1].Epoch != uint32(epoch) {
				t.Errorf("replica %d: last decree epoch %d, want committed epoch %d", i, ms[1].Epoch, epoch)
			}
			if !bytes.Equal(ms[1].Blob, wantBlob) {
				t.Errorf("replica %d: decree ring blob differs from the committed ring", i)
			}
			if i == 0 {
				ref = ms
			} else {
				for j := range ms {
					if ms[j].Epoch != ref[j].Epoch || !bytes.Equal(ms[j].Blob, ref[j].Blob) {
						t.Errorf("replica %d membership decree %d diverges from replica 0", i, j)
					}
				}
			}
			// The registry records rode the same log: this replica's own
			// clerk resolves the ring record without asking anyone.
			rec, err := r.Clerk().Lookup(p, ringName, -1, false)
			if err != nil {
				t.Errorf("replica %d: resolve %q: %v", i, ringName, err)
			} else if int(rec.Node) != mgrs[0].Node.ID {
				t.Errorf("replica %d: ring record on node %d, want %d", i, rec.Node, mgrs[0].Node.ID)
			}
		}
		if svc.ControlLogErrors != 0 {
			t.Errorf("control-log errors: %d, want 0", svc.ControlLogErrors)
		}
	})
	if err := env.RunUntil(des.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// rejectLog wraps a control log and records every proposal it forwards
// and the error each one returned.
type rejectLog struct {
	ControlLog
	errs []error
}

func (l *rejectLog) RegisterName(p *des.Proc, rec nameserver.Record) error {
	err := l.ControlLog.RegisterName(p, rec)
	l.errs = append(l.errs, err)
	return err
}

func (l *rejectLog) ProposeMembership(p *des.Proc, epoch uint32, blob []byte) error {
	err := l.ControlLog.ProposeMembership(p, epoch, blob)
	l.errs = append(l.errs, err)
	return err
}

// TestControlLogErrorsCountEachRejection routes the shard tier through a
// closed consensus client, so every proposal is rejected with
// ErrLaneLost. Each rejection must be counted exactly once, in both
// ControlLogErrors and the shard.clog.errors counter — through the
// ring publication (with a name service) and through the bare cutover
// decree (without one).
func TestControlLogErrorsCountEachRejection(t *testing.T) {
	for _, named := range []bool{true, false} {
		name := "cutover-only"
		if named {
			name = "with-names"
		}
		t.Run(name, func(t *testing.T) {
			// Nodes 0,1 founding shards; 2 the joiner; 3 the client; 4-6
			// acceptors + replicas.
			const (
				nodes    = 7
				joiner   = 2
				client   = 3
				firstRep = 4
				replicas = 3
			)
			env := des.NewEnv()
			env.Seed(1)
			tr := obs.New(obs.Config{})
			env.SetTracer(tr)
			cl := cluster.New(env, &model.Default, nodes)
			mgrs := make([]*rmem.Manager, nodes)
			for i := range mgrs {
				mgrs[i] = rmem.NewManager(cl.Nodes[i])
			}
			var (
				svc *Service
				log *rejectLog
			)
			ns := make([]*nameserver.Clerk, nodes)
			env.Spawn("setup", func(p *des.Proc) {
				peers := []int{0, 1, joiner, firstRep, firstRep + 1, firstRep + 2}
				for _, n := range peers {
					ns[n] = nameserver.New(mgrs[n], peers, nameserver.Config{})
				}
				p.Sleep(time.Millisecond)
				g := consensus.NewGroup(p,
					consensus.Config{Acceptors: replicas, Proposers: replicas + 1},
					mgrs[firstRep:firstRep+replicas]...)
				cp := consensus.NewControlPlane(p, g, ns[firstRep:firstRep+replicas])
				if err := cp.Start(p); err != nil {
					t.Errorf("start: %v", err)
					return
				}
				cc := cp.NewClient(p, mgrs[client])
				cc.Close(p)
				log = &rejectLog{ControlLog: cc}
				svc = NewService(p, mgrs[:2], nodes, dfs.Geometry{})
				svc.ReplicateControl(log)
				if named {
					if err := svc.RegisterNames(p, ns); err != nil {
						t.Errorf("RegisterNames: %v", err)
						return
					}
				}
				if _, err := svc.AddShard(p, mgrs[joiner]); err != nil {
					t.Errorf("AddShard: %v", err)
				}
			})
			if err := env.RunUntil(des.Time(500 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			if len(log.errs) == 0 {
				t.Fatal("no proposal reached the control log")
			}
			for i, err := range log.errs {
				if !errors.Is(err, consensus.ErrLaneLost) {
					t.Errorf("proposal %d: %v, want ErrLaneLost", i, err)
				}
			}
			want := int64(len(log.errs))
			if svc.ControlLogErrors != want {
				t.Errorf("ControlLogErrors = %d, want %d", svc.ControlLogErrors, want)
			}
			if got := tr.CounterValue("shard.clog.errors"); got != want {
				t.Errorf("shard.clog.errors = %d, want %d", got, want)
			}
		})
	}
}

// TestMembershipDecreeLimit pins where the tier's membership decree
// outgrows a log value (124 B). Four shards with a 2-member chain each
// pack a 112-byte blob, a 126-byte command, and are refused with
// ErrValueTooLarge; three chained shards (a 96-byte blob) still commit.
func TestMembershipDecreeLimit(t *testing.T) {
	// Nodes 0-3 the shards, 4-11 the chain members, 12 the client, 13-15
	// acceptors + replicas.
	const (
		shards   = 4
		firstMem = shards
		client   = firstMem + 2*shards
		firstRep = client + 1
		replicas = 3
		nodes    = firstRep + replicas
	)
	env := des.NewEnv()
	env.Seed(1)
	cl := cluster.New(env, &model.Default, nodes)
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	type try struct {
		chained, blob int
		err           error
	}
	var tries []try
	done := false
	env.Spawn("setup", func(p *des.Proc) {
		g := consensus.NewGroup(p, consensus.Config{Acceptors: replicas, Proposers: replicas + 1},
			mgrs[firstRep:]...)
		cp := consensus.NewControlPlane(p, g, nil)
		if err := cp.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		cc := cp.NewClient(p, mgrs[client])
		svc := NewService(p, mgrs[:shards], nodes, dfs.Geometry{})
		for slot := 0; slot < shards; slot++ {
			mem := mgrs[firstMem+2*slot : firstMem+2*slot+2]
			if err := svc.AttachReplicas(p, slot, mem, 100*time.Microsecond); err != nil {
				t.Errorf("attach chain %d: %v", slot, err)
				return
			}
			if slot >= shards-2 {
				blob := svc.ringBlob()
				tries = append(tries, try{slot + 1, len(blob), cc.ProposeMembership(p, 1, blob)})
			}
		}
		done = true
	})
	if err := env.RunUntil(des.Time(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("setup did not finish")
	}
	want := []try{{3, 96, nil}, {4, 112, consensus.ErrValueTooLarge}}
	for i, w := range want {
		got := tries[i]
		if got.chained != w.chained || got.blob != w.blob || !errors.Is(got.err, w.err) {
			t.Errorf("%d chained shards: %d-byte blob, %v; want %d-byte blob, %v",
				got.chained, got.blob, got.err, w.blob, w.err)
		}
	}
}
