package netmem

import (
	"testing"
	"time"
)

func TestFacadeQuickstart(t *testing.T) {
	sys := New(2)
	var got []byte
	sys.Spawn("demo", func(p *Proc) {
		seg := sys.Mem[1].Export(p, 4096)
		seg.SetDefaultRights(RightsAll)
		imp := sys.Mem[0].Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if err := imp.Write(p, 0, []byte("hello"), false); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Millisecond)
		got = append(got, seg.Bytes()[:5]...)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestFacadeNameService(t *testing.T) {
	sys := New(3, WithNameService(NameConfig{}))
	sys.Spawn("demo", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // clerks boot
		if _, err := sys.Names[2].Export(p, "svc", 128, RightsAll); err != nil {
			t.Error(err)
			return
		}
		imp, err := sys.Names[0].Import(p, "svc", 2, false)
		if err != nil {
			t.Error(err)
			return
		}
		if imp.Size() != 128 {
			t.Errorf("size = %d", imp.Size())
		}
	})
	if err := sys.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFileService(t *testing.T) {
	sys := New(2)
	var content string
	sys.Spawn("demo", func(p *Proc) {
		srv := sys.Files().Server(p, 0, FileGeometry{})
		clerk := sys.Files().Clerk(p, 1, srv, DX)
		h, err := srv.Store.WriteFile("/greeting", []byte("via the facade"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := srv.WarmFile(h); err != nil {
			t.Error(err)
			return
		}
		data, err := clerk.Read(p, h, 0, 100)
		if err != nil {
			t.Error(err)
			return
		}
		content = string(data)
	})
	if err := sys.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if content != "via the facade" {
		t.Fatalf("content = %q", content)
	}
}

func TestFacadeParamsOverride(t *testing.T) {
	p := DefaultParams()
	p.PropagationDelay = 10 * time.Microsecond
	sys := New(2, WithParams(p))
	var elapsed time.Duration
	sys.Spawn("demo", func(pr *Proc) {
		seg := sys.Mem[1].Export(pr, 64)
		seg.SetDefaultRights(RightsAll)
		dst := sys.Mem[0].Export(pr, 64)
		imp := sys.Mem[0].Import(pr, 1, seg.ID(), seg.Gen(), seg.Size())
		start := pr.Now()
		if err := imp.Read(pr, 0, 8, dst, 0, time.Second); err != nil {
			t.Error(err)
			return
		}
		elapsed = time.Duration(pr.Now().Sub(start))
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Two extra 10µs propagation hops ⇒ read ≈ 45+20 µs.
	if elapsed < 60*time.Microsecond || elapsed > 75*time.Microsecond {
		t.Fatalf("read with 10µs propagation = %v, want ≈67µs", elapsed)
	}
}

func TestFacadeShardedFileService(t *testing.T) {
	// Three shard nodes plus a client node; the clerk routes by the ring
	// and serves the re-read from its token-coherent cache.
	sys := New(4, WithShards(3))
	sys.Spawn("demo", func(p *Proc) {
		svc := sys.Shards().Service(p, FileGeometry{})
		clerk := sys.Shards().Clerk(p, 3, svc, DX, WithShardTokenCache())
		h, err := svc.Store.WriteFile("/export/facade.txt", []byte("sharded via the facade"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := svc.WarmFile(h); err != nil {
			t.Error(err)
			return
		}
		got, err := clerk.Read(p, h, 0, 22)
		if err != nil {
			t.Error(err)
			return
		}
		if string(got) != "sharded via the facade" {
			t.Errorf("read %q", got)
		}
		clerk.FlushLocal()
		if got, err = clerk.Read(p, h, 0, 22); err != nil || string(got) != "sharded via the facade" {
			t.Errorf("re-read %q, %v", got, err)
		}
		if clerk.TokenHits == 0 {
			t.Error("re-read did not hit the token cache")
		}
	})
	if err := sys.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeReplicaChain(t *testing.T) {
	// One shard on node 0, a 2-member chain on nodes 1-2 (attached by
	// WithReplicaChain), a token-caching clerk on node 3. After the chain
	// converges, a re-read with dropped block copies must come from the
	// chain members, not the primary.
	sys := New(4, WithShards(1), WithReplicaChain(2, 0))
	var clerk *ShardFileClerk
	sys.Spawn("demo", func(p *Proc) {
		svc := sys.Shards().Service(p, FileGeometry{})
		clerk = sys.Shards().Clerk(p, 3, svc, DX, WithShardTokenCache())
		h, err := svc.Store.WriteFile("/export/chain.txt", []byte("served by the chain"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := svc.WarmFile(h); err != nil {
			t.Error(err)
			return
		}
		if _, err := clerk.Read(p, h, 0, 19); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(5 * time.Millisecond) // let the chain apply the frames
		clerk.DropTokenCache()
		got, err := clerk.Read(p, h, 0, 19)
		if err != nil || string(got) != "served by the chain" {
			t.Errorf("replica re-read %q, %v", got, err)
		}
	})
	if err := sys.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if clerk.ReplicaReads == 0 {
		t.Error("re-read did not go through the replica chain")
	}
}

func TestFacadeElasticShards(t *testing.T) {
	// Two founding shards on nodes 0-1, two spare slots on nodes 2-3, a
	// client on node 4. The Elastic builder scales the fleet 2→4→2 while
	// the membership reports each committed epoch, and a file written
	// before the sweep stays readable after it.
	sys := New(5, WithShards(2))
	var epochs []ShardEpoch
	sys.Spawn("demo", func(p *Proc) {
		svc := sys.Shards().Service(p, FileGeometry{})
		mgr := sys.Shards().Elastic(svc, []int{2, 3})
		clerk := sys.Shards().Clerk(p, 4, svc, DX)
		svc.Membership().Watch(func(_ *ShardRing, e ShardEpoch) {
			epochs = append(epochs, e)
		})
		h, err := svc.Store.WriteFile("/export/elastic.txt", []byte("survives the sweep"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := svc.WarmFile(h); err != nil {
			t.Error(err)
			return
		}
		for _, target := range []int{4, 2} {
			if err := mgr.ScaleTo(p, target); err != nil {
				t.Errorf("scale to %d: %v", target, err)
				return
			}
			if got := svc.Size(); got != target {
				t.Errorf("size after scale = %d, want %d", got, target)
			}
		}
		got, err := clerk.Read(p, h, 0, 18)
		if err != nil || string(got) != "survives the sweep" {
			t.Errorf("read after sweep: %q, %v", got, err)
		}
	})
	if err := sys.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 2→3→4→3→2: four commits, epochs strictly ascending.
	if len(epochs) != 4 {
		t.Fatalf("watcher saw %d epoch bumps, want 4 (%v)", len(epochs), epochs)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epochs not ascending: %v", epochs)
		}
	}
}

// TestFacadeBuilders drives every builder method once — file service,
// shards, health, SVM, tokens, secure — and checks each hands back a
// live object.
func TestFacadeBuilders(t *testing.T) {
	sys := New(4, WithShards(2))
	key := SecureKey{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	sys.Spawn("demo", func(p *Proc) {
		srv := sys.Files().Server(p, 0, FileGeometry{})
		if sys.Files().Clerk(p, 1, srv, DX) == nil {
			t.Error("Files().Clerk returned nil")
		}
		svc := sys.Shards().Service(p, FileGeometry{})
		if sys.Shards().Clerk(p, 3, svc, DX) == nil {
			t.Error("Shards().Clerk returned nil")
		}
		if sys.Health().Recovery(0, 1, RecoveryConfig{}) == nil {
			t.Error("Health().Recovery returned nil")
		}

		seg := sys.Mem[1].Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		if sys.Health().Heartbeat(1, seg, 0, time.Millisecond) == nil {
			t.Error("Health().Heartbeat returned nil")
		}
		imp := sys.Mem[0].Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if sys.Health().Watchdog(0, imp, 0, time.Millisecond, 10*time.Millisecond, nil) == nil {
			t.Error("Health().Watchdog returned nil")
		}

		if sys.SVM().Agent(0, 0, 1) == nil {
			t.Error("SVM().Agent returned nil")
		}
		tab := sys.Tokens().Table(p, 0, 4)
		id, gen, size := tab.Coordinates()
		if sys.Tokens().Client(p, 1, 0, id, gen, size, len(sys.Cluster.Nodes)) == nil {
			t.Error("Tokens().Client returned nil")
		}

		state := sys.Mem[1].Export(p, 256)
		state.SetDefaultRights(RightsAll)
		if sys.Secure().Vault(1, state, key, HardwareCrypto) == nil {
			t.Error("Secure().Vault returned nil")
		}
		stImp := sys.Mem[0].Import(p, 1, state.ID(), state.Gen(), state.Size())
		if sys.Secure().Channel(stImp, key, HardwareCrypto) == nil {
			t.Error("Secure().Channel returned nil")
		}
	})
	if err := sys.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeConsensus(t *testing.T) {
	sys := New(4, WithNameService(NameConfig{}))
	sys.Spawn("demo", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // clerks boot
		g := sys.Consensus().Group(p, ConsensusConfig{Acceptors: 3})
		cp := sys.Consensus().ControlPlane(p, g)
		if err := cp.Start(p); err != nil {
			t.Error(err)
			return
		}
		cli := sys.Consensus().Client(p, 3, cp)
		rec := NameRecord{Name: "svc.replicated", Node: 3, Seg: 7, Gen: 1, Epoch: 1, Size: 256}
		if err := cli.RegisterName(p, rec); err != nil {
			t.Error(err)
			return
		}
		// The decree reaches every replica; each replica's name clerk can
		// answer the lookup locally.
		for _, r := range cp.Replicas() {
			if err := r.AwaitApplied(p, 2, time.Second); err != nil {
				t.Errorf("replica %d: %v", r.Idx(), err)
				return
			}
			got, err := r.Clerk().Lookup(p, "svc.replicated", -1, false)
			if err != nil || got.Seg != 7 || got.Node != 3 {
				t.Errorf("replica %d lookup: rec=%+v err=%v", r.Idx(), got, err)
			}
		}
		if cp.Leader() != 0 {
			t.Errorf("leader = %d, want 0", cp.Leader())
		}
	})
	if err := sys.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}
