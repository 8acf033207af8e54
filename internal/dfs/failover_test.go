package dfs

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// Hot-standby failover: the standby is a one-member chain. The primary
// pushes its write-behind state to the member with plain remote WRITEs; on
// the primary's death the member promotes itself over the surviving store
// and a rebound clerk reads the un-flushed write back, byte-correct.
func TestOneMemberChainTakeover(t *testing.T) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 3)
	ms := rmem.NewManager(cl.Nodes[0])
	mc := rmem.NewManager(cl.Nodes[1])
	msb := rmem.NewManager(cl.Nodes[2])

	var (
		srv   *Server
		clerk *Clerk
		cr    *ChainReplica
		h     fstore.Handle
	)
	env.Spawn("setup", func(p *des.Proc) {
		srv = NewServer(p, ms, 3, Geometry{})
		clerk = NewClerk(p, mc, srv, DX, WithFencing())
		var err error
		if h, err = srv.Store.WriteFile("/export/hot", patterned(fstore.BlockSize)); err != nil {
			t.Error(err)
			return
		}
		if err := srv.WarmFile(h); err != nil {
			t.Error(err)
			return
		}
		cr = NewChainReplica(p, msb, srv.Geo)
		if err := srv.AttachChain(p, 1, []*ChainReplica{cr}, 100*time.Microsecond); err != nil {
			t.Error(err)
		}
	})
	if err := env.RunUntil(des.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	payload := chaosPattern(fstore.BlockSize)
	env.Spawn("test", func(p *des.Proc) {
		// Establish DX block ownership, then write — the block sits dirty
		// in the primary's cache, not yet applied to the store.
		if _, err := clerk.Read(p, h, 0, fstore.BlockSize); err != nil {
			t.Error(err)
			return
		}
		if err := clerk.Write(p, h, 0, payload); err != nil {
			t.Error(err)
			return
		}
		// An 8K chain push costs ~2 ms end to end (per-cell drain + deposit
		// at the member), so give the daemon a comfortable multiple.
		p.Sleep(10 * time.Millisecond)
		b := srv.Geo.DataBucket(h, 0)
		frame := cr.seg.Bytes()[ChainFrameOff(b):][:ChainFrameLen]
		got, _, ok := ParseChainFrame(frame, h, 0, 0, fstore.BlockSize)
		if flag, _, _, _ := getHdr(frame[12:]); !ok || flag != flagDirty || !bytes.Equal(got, payload) {
			t.Errorf("dirty block never reached the chain member (frame ok %v, flag %d)", ok, flag)
			return
		}
		onDisk, _ := srv.Store.Read(h, 0, fstore.BlockSize)
		if bytes.Equal(onDisk, payload) {
			t.Error("write reached the store before Sync — test premise broken")
			return
		}

		cl.Nodes[0].Fail()
		srv2, err := cr.TakeOver(p, srv.Store, 3)
		if err != nil {
			t.Error(err)
			return
		}
		if cr.Restored != 1 {
			t.Errorf("takeover grafted %d buckets, want the 1 dirty one", cr.Restored)
			return
		}
		if flag, _, _, _ := getHdr(srv2.data.Bytes()[b*dataStride:]); flag != flagDirty {
			t.Errorf("grafted bucket flag %d, want dirty", flag)
		}
		clerk.Rebind(p, srv2)
		if clerk.Rebinds != 1 {
			t.Errorf("clerk.Rebinds = %d, want 1", clerk.Rebinds)
		}

		// The grafted bucket is still flagged dirty: Sync applies the dead
		// primary's un-flushed write to the store.
		if n, err := srv2.Sync(p); err != nil || n != 1 {
			t.Errorf("Sync applied %d blocks (err %v), want 1", n, err)
			return
		}
		got, err = srv2.Store.Read(h, 0, fstore.BlockSize)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("store after failover+sync: wrong bytes (err %v)", err)
			return
		}
		// And the rebound clerk reads it end to end over the new segments.
		clerk.FlushLocal()
		rb, err := clerk.Read(p, h, 0, fstore.BlockSize)
		if err != nil || !bytes.Equal(rb, payload) {
			t.Errorf("clerk read after rebind: wrong bytes (err %v)", err)
		}
	})
	if err := env.RunUntil(des.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// ChainReplica.TakeOver grafts exactly the stable dirty frames — a set
// recall poison word does not stop it — and skips clean, torn and
// never-written frames. A member whose header names another data-area
// geometry is refused.
func TestChainTakeOverGraftsStableDirtyFrames(t *testing.T) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 2)
	store := fstore.New(func() int64 { return int64(env.Now()) })
	h := fstore.Handle{Ino: 7, Gen: 1}
	const (
		dirty    = iota // stable dirty frame
		poisoned        // stable dirty frame under a set poison word
		clean           // stable valid (clean) frame
		torn            // head ≠ tail
		odd             // head == tail, odd: a push was landing
		unwritten
		nCases
	)
	// frame writes a framed record for bucket b with version words head
	// and tail, and returns the record.
	frame := func(seg []byte, b int, poison uint32, head, tail uint64, flag uint32) []byte {
		f := seg[ChainFrameOff(b):][:ChainFrameLen]
		binary.BigEndian.PutUint32(f, poison)
		binary.BigEndian.PutUint64(f[4:], head)
		rec := f[12 : 12+dataStride]
		putHdr(rec, flag, h, uint32(b), fstore.BlockSize)
		copy(rec[recHdr:], chaosPattern(fstore.BlockSize)[b:])
		binary.BigEndian.PutUint64(f[chainStride-8:], tail)
		return rec
	}
	env.Spawn("test", func(p *des.Proc) {
		m := rmem.NewManager(cl.Nodes[0])
		cr := NewChainReplica(p, m, Geometry{})
		seg := cr.seg.Bytes()
		binary.BigEndian.PutUint32(seg[12:], uint32(cr.geo.DataBuckets))
		want := map[int][]byte{
			dirty:    append([]byte(nil), frame(seg, dirty, 0, 2<<32|4, 2<<32|4, flagDirty)...),
			poisoned: append([]byte(nil), frame(seg, poisoned, 9, 2<<32|6, 2<<32|6, flagDirty)...),
		}
		frame(seg, clean, 0, 2<<32|8, 2<<32|8, flagValid)
		frame(seg, torn, 0, 2<<32|10, 2<<32|12, flagDirty)
		frame(seg, odd, 0, 2<<32|13, 2<<32|13, flagDirty)

		srv, err := cr.TakeOver(p, store, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Restored != 2 {
			t.Errorf("Restored = %d, want 2", cr.Restored)
		}
		data := srv.data.Bytes()
		for b := 0; b < nCases; b++ {
			got := data[b*dataStride : (b+1)*dataStride]
			if rec, ok := want[b]; ok {
				if !bytes.Equal(got, rec) {
					t.Errorf("bucket %d: grafted record differs from the frame's", b)
				}
			} else if flag, _, _, _ := getHdr(got); flag != flagEmpty {
				t.Errorf("bucket %d: flag %d after takeover, want empty (not grafted)", b, flag)
			}
		}

		bad := NewChainReplica(p, rmem.NewManager(cl.Nodes[1]), Geometry{})
		binary.BigEndian.PutUint32(bad.seg.Bytes()[12:], uint32(bad.geo.DataBuckets+1))
		frame(bad.seg.Bytes(), dirty, 0, 2<<32|4, 2<<32|4, flagDirty)
		if _, err := bad.TakeOver(p, store, 2); err == nil {
			t.Error("takeover accepted a member stamped with another geometry")
		}
		if bad.Restored != 0 {
			t.Errorf("refused takeover grafted %d buckets", bad.Restored)
		}
	})
	if err := env.RunUntil(des.Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
}

// Satellite: CallTimeout zero no longer means wait-forever — the bound
// defaults from the model's retry parameters, so a clerk facing a dead
// server gets a timeout after the full retry schedule instead of hanging.
func TestCallTimeoutDefaultsBounded(t *testing.T) {
	r := newRig(t, 1, DX)
	h, err := r.server.Store.WriteFile("/f", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c := r.clerks[0]
	if c.CallTimeout != 0 {
		t.Fatalf("CallTimeout = %v, want unset", c.CallTimeout)
	}
	pp := model.Default
	want := time.Duration(pp.RetryLimit+1) * pp.RetryBackoffMax
	if got := c.callTimeout(); got != want {
		t.Fatalf("derived callTimeout = %v, want %v", got, want)
	}
	r.env.Spawn("test", func(p *des.Proc) {
		r.server.Node().Fail()
		c.FlushLocal()
		start := p.Now()
		_, err := c.GetAttr(p, h)
		elapsed := time.Duration(p.Now().Sub(start))
		if err == nil {
			t.Error("GetAttr against dead server succeeded")
		}
		if elapsed > want+time.Second {
			t.Errorf("dead-server op took %v, want ≈%v", elapsed, want)
		}
	})
	if err := r.env.RunUntil(des.Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// Acceptance: under the crash campaign the full Figure 2 mix completes
// byte-correct through a failover, with a finite MTTR that replays
// identically for the seed.
func TestChaosCrashFailover(t *testing.T) {
	camp, ok := faults.Named("crash")
	if !ok {
		t.Fatal("crash campaign missing")
	}
	res, err := RunChaos(ChaosConfig{Campaign: camp, Seed: 1, Mode: DX})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(res.Ops) {
		for _, op := range res.Ops {
			if !op.OK {
				t.Errorf("op %s failed: %s", op.Label, op.Err)
			}
		}
		t.Fatalf("completed %d/%d", res.Completed, len(res.Ops))
	}
	if !res.FailedOver {
		t.Fatal("crash campaign ran without a failover")
	}
	if res.MTTR <= 0 || res.MTTR > 50*time.Millisecond {
		t.Fatalf("MTTR = %v, want finite positive under 50ms", res.MTTR)
	}
	if res.Rebinds != 2 {
		t.Fatalf("Rebinds = %d, want 2 (takeover + rebind)", res.Rebinds)
	}
	if a := res.Availability(); a <= 0 || a >= 1 {
		t.Fatalf("Availability = %v, want in (0,1)", a)
	}
	again, err := RunChaos(ChaosConfig{Campaign: camp, Seed: 1, Mode: DX})
	if err != nil {
		t.Fatal(err)
	}
	if again.MTTR != res.MTTR || again.Window != res.Window {
		t.Fatalf("chaos run not deterministic: MTTR %v vs %v, window %v vs %v",
			again.MTTR, res.MTTR, again.Window, res.Window)
	}
}
