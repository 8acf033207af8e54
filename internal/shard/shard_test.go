package shard

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/nameserver"
	"netmem/internal/rmem"
)

// svcRig: shards on nodes 0..S-1, clerks on the following nodes.
type svcRig struct {
	env    *des.Env
	cl     *cluster.Cluster
	svc    *Service
	clerks []*Clerk
	mgrs   []*rmem.Manager // one per cluster node
}

func newSvcRig(t *testing.T, shards, clerks int, mode dfs.Mode, copts ...ClerkOption) *svcRig {
	t.Helper()
	env := des.NewEnv()
	n := shards + clerks
	cl := cluster.New(env, &model.Default, n)
	r := &svcRig{env: env, cl: cl}
	for i := 0; i < n; i++ {
		r.mgrs = append(r.mgrs, rmem.NewManager(cl.Nodes[i]))
	}
	env.Spawn("setup", func(p *des.Proc) {
		r.svc = NewService(p, r.mgrs[:shards], n, dfs.Geometry{})
		for i := 0; i < clerks; i++ {
			r.clerks = append(r.clerks, NewClerk(p, r.mgrs[shards+i], r.svc, mode, copts...))
		}
		ConnectTokenPeers(p, r.clerks...)
	})
	if err := env.RunUntil(des.Time(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *svcRig) run(t *testing.T, fn func(p *des.Proc)) {
	t.Helper()
	r.env.Spawn("test", fn)
	if err := r.env.RunUntil(des.Time(5 * 60 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// seedTree writes files until at least two different shards own some,
// returning handles grouped by owning shard.
func (r *svcRig) seedTree(t *testing.T, files int) (dir fstore.Handle, hs []fstore.Handle) {
	t.Helper()
	st := r.svc.Store
	for i := 0; i < files; i++ {
		h, err := st.WriteFile(fmt.Sprintf("/export/f%03d", i), patterned(12*1024, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	dir, _, err := st.ResolvePath("/export")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.WarmDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if err := r.svc.WarmFile(h); err != nil {
			t.Fatal(err)
		}
	}
	return dir, hs
}

func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13+7) ^ salt
	}
	return b
}

// awaitDeposits polls shard s's data-area deposit counter until it has
// advanced by want over before (plain remote writes are asynchronous; the
// block frames take real simulated wire time to drain).
func (r *svcRig) awaitDeposits(t *testing.T, p *des.Proc, s int, before, want int64) {
	t.Helper()
	deadline := r.env.Now() + des.Time(time.Second)
	for r.svc.Shards[s].DataDeposits() < before+want {
		if r.env.Now() > deadline {
			t.Fatalf("shard %d saw %d deposits, want %d", s, r.svc.Shards[s].DataDeposits()-before, want)
		}
		p.Sleep(10 * time.Microsecond)
	}
}

// findPair returns indices of two handles owned by different shards.
func (r *svcRig) findPair(t *testing.T, hs []fstore.Handle) (a, b int) {
	t.Helper()
	for i := 1; i < len(hs); i++ {
		if r.svc.Owner(hs[i]) != r.svc.Owner(hs[0]) {
			return 0, i
		}
	}
	t.Fatal("all handles landed on one shard; enlarge the tree")
	return 0, 0
}

func TestShardedReadWriteAcrossShards(t *testing.T) {
	r := newSvcRig(t, 3, 1, dfs.DX)
	r.run(t, func(p *des.Proc) {
		dir, hs := r.seedTree(t, 12)
		c := r.clerks[0]
		ia, ib := r.findPair(t, hs)
		for _, i := range []int{ia, ib} {
			h := hs[i]
			want, err := r.svc.Store.Read(h, 0, 12*1024)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Read(p, h, 0, 12*1024)
			if err != nil {
				t.Fatalf("read file %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("file %d: wrong bytes from shard %d", i, r.svc.Owner(h))
			}
		}
		// Writes land in the owning shard's data area; Sync applies them.
		payload := patterned(9000, 0xEE)
		ws := r.svc.Owner(hs[ia])
		before := r.svc.Shards[ws].DataDeposits()
		if err := c.Write(p, hs[ia], 0, payload); err != nil {
			t.Fatal(err)
		}
		r.awaitDeposits(t, p, ws, before, 2) // two touched blocks, async deposits
		if _, err := r.svc.Sync(p); err != nil {
			t.Fatal(err)
		}
		got, err := r.svc.Store.Read(hs[ia], 0, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("written bytes did not reach the shared store")
		}
		// Namespace ops meet at the directory's shard.
		if _, _, err := c.Lookup(p, dir, "f003"); err != nil {
			t.Fatal(err)
		}
		ents, err := c.ReadDir(p, dir, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(dfs.ParseDir(ents)) == 0 {
			t.Fatal("empty readdir")
		}
	})
	// The load actually spread: more than one shard node did work.
	busy := 0
	for i := 0; i < 3; i++ {
		total := des.Duration(0)
		for _, d := range r.cl.Nodes[i].CPUAcct {
			total += d
		}
		if total > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shard nodes did any work; routing is not spreading load", busy)
	}
}

func TestShardedRemoveRepairsCrossShardAttr(t *testing.T) {
	r := newSvcRig(t, 3, 1, dfs.DX)
	r.run(t, func(p *des.Proc) {
		dir, hs := r.seedTree(t, 12)
		c := r.clerks[0]
		ds := r.svc.Owner(dir)
		// Find a file owned by a different shard than its directory.
		victim := -1
		for i, h := range hs {
			if r.svc.Owner(h) != ds {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatal("no cross-shard (dir, child) pair; enlarge the tree")
		}
		h := hs[victim]
		// Prime the child's attr record on its shard's cache via a read.
		if _, err := c.GetAttr(p, h); err != nil {
			t.Fatal(err)
		}
		if err := c.Remove(p, dir, fmt.Sprintf("f%03d", victim)); err != nil {
			t.Fatal(err)
		}
		if c.Repairs == 0 {
			t.Fatal("cross-shard remove issued no repair")
		}
		// Without the repair, this DX probe would hit the stale record and
		// resurrect the removed file's attributes.
		c.FlushLocal()
		if _, err := c.GetAttr(p, h); err == nil {
			t.Fatal("GetAttr of removed file succeeded: stale attr record served")
		}
	})
}

func TestShardedRenameRepairsCrossShardDir(t *testing.T) {
	r := newSvcRig(t, 3, 1, dfs.DX)
	r.run(t, func(p *des.Proc) {
		st := r.svc.Store
		_, hs := r.seedTree(t, 4)
		_ = hs
		// Build two directories owned by different shards.
		root, _, err := st.ResolvePath("/")
		if err != nil {
			t.Fatal(err)
		}
		var dirs []fstore.Handle
		for i := 0; len(dirs) < 2 && i < 64; i++ {
			h, _, err := st.Mkdir(root, fmt.Sprintf("d%02d", i), 0o755)
			if err != nil {
				t.Fatal(err)
			}
			if len(dirs) == 0 || r.svc.Owner(h) != r.svc.Owner(dirs[0]) {
				dirs = append(dirs, h)
			}
		}
		if len(dirs) < 2 {
			t.Fatal("could not find two cross-shard directories")
		}
		from, to := dirs[0], dirs[1]
		if _, err := st.WriteFile("/"+nameOf(t, st, root, from)+"/moveme", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := r.svc.WarmDir(from); err != nil {
			t.Fatal(err)
		}
		if err := r.svc.WarmDir(to); err != nil {
			t.Fatal(err)
		}
		c := r.clerks[0]
		// Prime the destination directory's stream on its shard.
		if _, err := c.ReadDir(p, to, 0, 4096); err != nil {
			t.Fatal(err)
		}
		if err := c.Rename(p, from, "moveme", to, "moved"); err != nil {
			t.Fatal(err)
		}
		if c.Repairs == 0 {
			t.Fatal("cross-shard rename issued no repair")
		}
		c.FlushLocal()
		// The destination shard must now serve the fresh stream and record.
		ch, _, err := c.Lookup(p, to, "moved")
		if err != nil {
			t.Fatalf("lookup of renamed entry: %v", err)
		}
		want, _, err := st.Lookup(to, "moved")
		if err != nil {
			t.Fatal(err)
		}
		if ch != want {
			t.Fatal("lookup returned a stale handle")
		}
		stream, err := c.ReadDir(p, to, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range dfs.ParseDir(stream) {
			if e.Name == "moved" {
				found = true
			}
		}
		if !found {
			t.Fatal("destination directory stream is stale: renamed entry missing")
		}
	})
}

func nameOf(t *testing.T, st *fstore.Store, dir, child fstore.Handle) string {
	t.Helper()
	ents, err := st.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Handle == child {
			return e.Name
		}
	}
	t.Fatal("child not found in dir")
	return ""
}

func TestTokenCachedRereadZeroServerCPU(t *testing.T) {
	r := newSvcRig(t, 2, 1, dfs.DX, WithTokenCache())
	r.run(t, func(p *des.Proc) {
		_, hs := r.seedTree(t, 6)
		c := r.clerks[0]
		h := hs[0]
		want, err := r.svc.Store.Read(h, 0, 12*1024)
		if err != nil {
			t.Fatal(err)
		}
		// First read: acquires read tokens, fetches, caches.
		got, err := c.Read(p, h, 0, 12*1024)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("first read wrong")
		}
		// FlushLocal drops the sub-clerk caches; the token cache survives.
		c.FlushLocal()
		for i := 0; i < 2; i++ {
			r.cl.Nodes[i].ResetCPUAcct()
		}
		var beforeReads int64
		for i := range r.svc.Shards {
			beforeReads += c.Sub(i).RemoteReads
		}
		got, err = c.Read(p, h, 0, 12*1024)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("token-cached re-read returned wrong bytes")
		}
		if c.TokenHits == 0 {
			t.Fatal("re-read did not hit the token cache")
		}
		// Zero server CPU, zero network: the whole point.
		for i := 0; i < 2; i++ {
			for cat, d := range r.cl.Nodes[i].CPUAcct {
				if d != 0 {
					t.Fatalf("shard node %d charged %v CPU in %q on a token-cached re-read", i, d, cat)
				}
			}
		}
		var afterReads int64
		for i := range r.svc.Shards {
			afterReads += c.Sub(i).RemoteReads
		}
		if afterReads != beforeReads {
			t.Fatal("re-read issued remote reads despite a held token")
		}
	})
}

func TestTokenWriteInvalidatesPeerCache(t *testing.T) {
	r := newSvcRig(t, 2, 2, dfs.DX, WithTokenCache())
	r.run(t, func(p *des.Proc) {
		_, hs := r.seedTree(t, 4)
		a, b := r.clerks[0], r.clerks[1]
		h := hs[0]
		// Both clerks cache the first block under read tokens.
		if _, err := a.Read(p, h, 0, 4096); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Read(p, h, 0, 4096); err != nil {
			t.Fatal(err)
		}
		// a writes: recalls b's token, invalidating b's copy.
		payload := patterned(4096, 0x55)
		ws := r.svc.Owner(h)
		before := r.svc.Shards[ws].DataDeposits()
		if err := a.Write(p, h, 0, payload); err != nil {
			t.Fatal(err)
		}
		r.awaitDeposits(t, p, ws, before, 1)
		if _, err := r.svc.Sync(p); err != nil {
			t.Fatal(err)
		}
		b.FlushLocal()
		got, err := b.Read(p, h, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("peer served stale bytes after a write: token recall failed")
		}
	})
}

func TestShardFailoverRebind(t *testing.T) {
	// Topology: shards on 0,1; clerk on 2; shard 0's hot standby (a
	// one-member chain) on 3.
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 4)
	var mgrs []*rmem.Manager
	for i := 0; i < 4; i++ {
		mgrs = append(mgrs, rmem.NewManager(cl.Nodes[i]))
	}
	var svc *Service
	var clerk *Clerk
	var h fstore.Handle
	env.Spawn("setup", func(p *des.Proc) {
		svc = NewService(p, mgrs[:2], 4, dfs.Geometry{}, dfs.WithReliableReplies())
		clerk = NewClerk(p, mgrs[2], svc, dfs.DX,
			WithSubOptions(dfs.WithReliable(), dfs.WithFencing()))
		var err error
		h, err = svc.Store.WriteFile("/export/x", patterned(8192, 1))
		if err != nil {
			panic(err)
		}
		if err := svc.WarmFile(h); err != nil {
			panic(err)
		}
		// The clerk rebinds itself via its Membership subscription when the
		// coordinator publishes the slot move.
		if err := svc.AttachReplicas(p, 0, []*rmem.Manager{mgrs[3]}, 100*time.Microsecond); err != nil {
			panic(err)
		}
		if _, err := svc.ArmChainFailover(p, 0, mgrs[2], 100*time.Microsecond); err != nil {
			panic(err)
		}
	})
	if err := env.RunUntil(des.Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Kill shard 0's node; the coordinator must promote the member and
	// rebind the clerk, after which ops on shard 0's keys succeed again.
	old0 := svc.NodeOf(0)
	cl.Nodes[old0].Fail()
	env.Spawn("after", func(p *des.Proc) {
		rec := svc.Coordinators()[0]
		if err := rec.AwaitRestored(p, time.Second); err != nil {
			t.Errorf("failover never completed: %v", err)
			return
		}
		if svc.NodeOf(0) != 3 {
			t.Errorf("shard 0 now on node %d, want chain member node 3", svc.NodeOf(0))
		}
		clerk.FlushLocal()
		want, err := svc.Store.Read(h, 0, 8192)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := clerk.Read(p, h, 0, 8192)
		if err != nil {
			t.Errorf("read after failover: %v", err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("read after failover returned wrong bytes")
		}
	})
	if err := env.RunUntil(des.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAndResolveRing(t *testing.T) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 4)
	var mgrs []*rmem.Manager
	for i := 0; i < 4; i++ {
		mgrs = append(mgrs, rmem.NewManager(cl.Nodes[i]))
	}
	var resolveErr error
	env.Spawn("setup", func(p *des.Proc) {
		peers := []int{0, 1, 2, 3}
		var names []*nameserver.Clerk
		for i := 0; i < 4; i++ {
			names = append(names, nameserver.New(mgrs[i], peers, nameserver.Config{}))
		}
		// The name service must boot before the shard tier exports anything:
		// its well-known segments carry fixed generation numbers that assume
		// they are each node's first exports.
		p.Sleep(time.Millisecond)
		svc := NewService(p, mgrs[:3], 4, dfs.Geometry{})
		if err := svc.RegisterNames(p, names); err != nil {
			resolveErr = fmt.Errorf("register: %w", err)
			return
		}
		// A client node reconstructs the ring purely from the name service.
		ring, epoch, nodes, err := ResolveRing(p, mgrs[3], names[3], 0)
		if err == nil && epoch == 0 {
			resolveErr = fmt.Errorf("resolved epoch is zero")
			return
		}
		if err != nil {
			resolveErr = fmt.Errorf("resolve ring: %w", err)
			return
		}
		if ring.Size() != 3 || len(nodes) != 3 {
			resolveErr = fmt.Errorf("resolved ring has %d members, nodes %v", ring.Size(), nodes)
			return
		}
		for k := uint64(0); k < 1000; k++ {
			if ring.Owner(k) != svc.Ring.Owner(k) {
				resolveErr = fmt.Errorf("resolved ring disagrees with the service ring at key %d", k)
				return
			}
		}
		// The per-shard channels resolve too.
		for i := 0; i < 3; i++ {
			if _, err := names[3].Lookup(p, shardName(i), nodes[i], false); err != nil {
				resolveErr = fmt.Errorf("lookup %s: %w", shardName(i), err)
				return
			}
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if resolveErr != nil {
		t.Fatal(resolveErr)
	}
}

// TestTokenRereadProbe exercises the fsbench-facing probe: it must report a
// free re-read (zero server CPU, zero remote reads, nonzero token hits).
func TestTokenRereadProbe(t *testing.T) {
	res, err := TokenRereadProbe(3)
	if err != nil {
		t.Fatalf("TokenRereadProbe: %v", err)
	}
	if res.Shards != 3 || res.Bytes == 0 {
		t.Errorf("unexpected probe shape: %+v", res)
	}
	if res.TokenHits == 0 || res.ServerCPU != 0 || res.RemoteReads != 0 {
		t.Errorf("probe not free: %+v", res)
	}
}
