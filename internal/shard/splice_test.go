package shard

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/consensus"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// TestSpliceChainThroughLog crashes the middle member of a 3-member
// replica chain. The head's next forward into the dead member fails, and
// the shard tier splices around it: the survivors are re-chained under
// epoch 2, token-cached reads keep returning the right bytes through the
// new chain, and the 2-member chain lands as one membership decree that
// every control-plane replica applies.
func TestSpliceChainThroughLog(t *testing.T) {
	// Node 0 the primary, 1 the token-caching clerk (and the consensus
	// client's machine), 2-4 the chain, 5-7 acceptors + replicas.
	const (
		nodes    = 8
		firstMem = 2
		firstRep = 5
		replicas = 3
		size     = 12 * 1024
	)
	env := des.NewEnv()
	env.Seed(1)
	cl := cluster.New(env, &model.Default, nodes)
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	image := func(v byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*7) + v
		}
		return b
	}

	var (
		svc   *Service
		cp    *consensus.ControlPlane
		c     *Clerk
		h     fstore.Handle
		setup error
	)
	env.Spawn("setup", func(p *des.Proc) {
		g := consensus.NewGroup(p, consensus.Config{Acceptors: replicas, Proposers: replicas + 1},
			mgrs[firstRep:firstRep+replicas]...)
		cp = consensus.NewControlPlane(p, g, nil)
		if setup = cp.Start(p); setup != nil {
			return
		}
		svc = NewService(p, mgrs[:1], nodes, dfs.Geometry{})
		c = NewClerk(p, mgrs[1], svc, dfs.DX, WithTokenCache())
		svc.ReplicateControl(cp.NewClient(p, mgrs[1]))
		if h, setup = svc.Store.WriteFile("/export/splice.bin", image(1)); setup != nil {
			return
		}
		if setup = svc.WarmFile(h); setup != nil {
			return
		}
		if setup = svc.AttachReplicas(p, 0, mgrs[firstMem:firstMem+3], 100*time.Microsecond); setup != nil {
			return
		}
		svc.awaitChain(p, 0)
	})
	if err := env.RunUntil(des.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		t.Fatal(setup)
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

	want := image(2)
	done := false
	env.Spawn("test", func(p *des.Proc) {
		defer func() { done = true }()
		svc.Replicas(0)[1].Node().Fail()
		// The write dirties the file's buckets; the head's forward of the
		// fresh frames into the dead member is what fails and splices.
		if err := c.Write(p, h, 0, want); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		deadline := p.Now().Add(des.Duration(time.Second))
		for svc.ChainSplices == 0 || len(memberships(cp.Replicas()[replicas-1])) == 0 {
			if p.Now() > deadline {
				t.Errorf("no splice decree within 1s: %d splices", svc.ChainSplices)
				return
			}
			p.Sleep(time.Millisecond)
		}
		svc.awaitChain(p, 0)

		c.FlushLocal()
		c.DropTokenCache()
		before := c.ReplicaReads
		got, err := c.Read(p, h, 0, size)
		if err != nil {
			t.Errorf("read after splice: %v", err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Errorf("token-cached read after splice returned wrong bytes")
		}
		if c.ReplicaReads == before {
			t.Errorf("read after splice was not served by the spliced chain")
		}
	})
	if err := env.RunUntil(des.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done || t.Failed() {
		return
	}

	if svc.ChainSplices != 1 {
		t.Errorf("ChainSplices = %d, want 1", svc.ChainSplices)
	}
	if spec := svc.chains[0]; spec.epoch != 2 {
		t.Errorf("chain epoch = %d, want 2", spec.epoch)
	}
	var gotNodes []int
	for _, cr := range svc.Replicas(0) {
		gotNodes = append(gotNodes, cr.Node().ID)
	}
	wantNodes := []int{firstMem, firstMem + 2}
	if !slices.Equal(gotNodes, wantNodes) {
		t.Errorf("chain members on nodes %v, want %v", gotNodes, wantNodes)
	}
	for _, r := range cp.Replicas() {
		ms := memberships(r)
		if len(ms) != 1 {
			t.Errorf("replica %d applied %d membership decrees, want 1", r.Idx(), len(ms))
			continue
		}
		l, err := parseRingBlob("decree", ms[0].Blob)
		if err != nil {
			t.Errorf("replica %d: %v", r.Idx(), err)
			continue
		}
		if !slices.Equal(l.chains[0], wantNodes) {
			t.Errorf("replica %d: decree carries chain %v, want %v", r.Idx(), l.chains[0], wantNodes)
		}
	}
}
