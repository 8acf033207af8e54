package rmem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/model"
)

const us = time.Microsecond

// testPair builds a two-node cluster with managers on both nodes.
func testPair(t *testing.T, opts ...cluster.Option) (*des.Env, *cluster.Cluster, *Manager, *Manager) {
	t.Helper()
	env := des.NewEnv()
	c := cluster.New(env, &model.Default, 2, opts...)
	return env, c, NewManager(c.Nodes[0]), NewManager(c.Nodes[1])
}

// run executes fn as a simulated process and drains the simulation.
func run(t *testing.T, env *des.Env, fn func(p *des.Proc)) {
	t.Helper()
	env.Spawn("test", fn)
	if err := env.RunUntil(des.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteWriteDeposits(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	var seg *Segment
	data := []byte("twelve bytes")
	run(t, env, func(p *des.Proc) {
		seg = m1.Export(p, 256)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if err := imp.Write(p, 100, data, false); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Millisecond) // let the cell arrive
		if !bytes.Equal(seg.Bytes()[100:112], data) {
			t.Error("data not deposited")
		}
		if seg.RemoteWrites != 1 {
			t.Errorf("RemoteWrites = %d", seg.RemoteWrites)
		}
		if seg.PendingNotifications() != 0 {
			t.Error("unexpected notification for data-only write")
		}
	})
	if len(m0.WriteFaults) != 0 {
		t.Fatalf("write faults: %v", m0.WriteFaults)
	}
}

func TestWriteRequiresRights(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightRead) // no write
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if err := imp.Write(p, 0, []byte("x"), false); err != nil {
			t.Error(err) // local check passes; failure is remote
		}
		p.Sleep(time.Millisecond)
	})
	if len(m0.WriteFaults) != 1 {
		t.Fatalf("write faults = %v, want one ErrNoRights NACK", m0.WriteFaults)
	}
}

func TestPerNodeRightsOverrideDefault(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsNone)
		seg.SetRights(0, RightWrite)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if err := imp.Write(p, 0, []byte("ok"), false); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Millisecond)
		if seg.Bytes()[0] != 'o' {
			t.Error("granted node's write did not land")
		}
	})
	if len(m0.WriteFaults) != 0 {
		t.Fatalf("unexpected faults: %v", m0.WriteFaults)
	}
}

func TestWriteBoundsCheckedLocally(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 16)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if err := imp.Write(p, 10, []byte("0123456789"), false); err != ErrBounds {
			t.Errorf("err = %v, want ErrBounds", err)
		}
	})
}

func TestStaleGenerationNACKed(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		// Owner revokes and re-exports the same descriptor slot: the
		// generation number advances and the old import goes stale.
		m1.Revoke(p, seg)
		seg2 := m1.ExportWellKnown(p, seg.ID(), 64)
		seg2.SetDefaultRights(RightsAll)
		if seg2.Gen() == seg.Gen() {
			t.Fatal("generation did not advance on re-export")
		}
		if err := imp.Write(p, 0, []byte("late"), false); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Millisecond)
		if seg2.Bytes()[0] != 0 {
			t.Error("stale write landed in the re-exported segment")
		}
	})
	if len(m0.WriteFaults) != 1 {
		t.Fatalf("want one stale NACK, got %v", m0.WriteFaults)
	}
}

func TestRevokedSegmentNACKed(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		m1.Revoke(p, seg)
		var dst *Segment
		dst = m0.Export(p, 64)
		err := imp.Read(p, 0, 8, dst, 0, time.Second)
		if err != ErrRevoked {
			t.Errorf("read err = %v, want ErrRevoked", err)
		}
	})
}

func TestMarkStaleFailsLocally(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		imp.MarkStale()
		if err := imp.Write(p, 0, []byte("x"), false); err != ErrStale {
			t.Errorf("err = %v, want local ErrStale", err)
		}
	})
	if len(m0.WriteFaults) != 0 {
		t.Fatal("stale descriptor should fail at the source, not over the network")
	}
}

func TestWriteInhibit(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		seg.SetWriteInhibit(true)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if err := imp.Write(p, 0, []byte("no"), false); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Millisecond)
		if seg.Bytes()[0] != 0 {
			t.Error("write landed despite inhibit")
		}
		// Reads still work while write-inhibited.
		dst := m0.Export(p, 64)
		if err := imp.Read(p, 0, 8, dst, 0, time.Second); err != nil {
			t.Errorf("read during inhibit: %v", err)
		}
		seg.SetWriteInhibit(false)
		if err := imp.Write(p, 0, []byte("yes"), false); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Millisecond)
		if seg.Bytes()[0] != 'y' {
			t.Error("write after uninhibit did not land")
		}
	})
	if len(m0.WriteFaults) != 1 {
		t.Fatalf("want exactly one inhibit NACK, got %v", m0.WriteFaults)
	}
}

func TestSmallWriteCapAndBlockVariant(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 8192)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if err := imp.Write(p, 0, big, false); err != ErrTooBig {
			t.Errorf("register write of 4K: err = %v, want ErrTooBig", err)
		}
		if err := imp.WriteBlock(p, 512, big, false); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * time.Millisecond)
		if !bytes.Equal(seg.Bytes()[512:512+4096], big) {
			t.Error("block write corrupted")
		}
	})
}

func TestReadRoundTrip(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		src := m1.Export(p, 256)
		src.SetDefaultRights(RightRead)
		copy(src.Bytes()[32:], "the remote payload")
		dst := m0.Export(p, 256)
		imp := m0.Import(p, 1, src.ID(), src.Gen(), src.Size())
		if err := imp.Read(p, 32, 18, dst, 64, time.Second); err != nil {
			t.Fatal(err)
		}
		if string(dst.Bytes()[64:82]) != "the remote payload" {
			t.Errorf("dst = %q", dst.Bytes()[64:82])
		}
		if src.RemoteReads != 1 {
			t.Errorf("RemoteReads = %d", src.RemoteReads)
		}
	})
}

func TestReadAsyncProceedsBeforeReply(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		src := m1.Export(p, 64)
		src.SetDefaultRights(RightRead)
		dst := m0.Export(p, 64)
		imp := m0.Import(p, 1, src.ID(), src.Gen(), src.Size())
		op, err := imp.ReadAsync(p, 0, 8, dst, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if op.Done() {
			t.Error("read completed synchronously; READ must be non-blocking")
		}
		if err := op.Wait(p, time.Second); err != nil {
			t.Fatal(err)
		}
		if !op.Done() {
			t.Error("not done after Wait")
		}
	})
}

func TestReadTimeoutOnLossyLink(t *testing.T) {
	env := des.NewEnv()
	eng := faults.NewEngine(env, faults.Campaign{Default: faults.LinkFault{Loss: 1.0}})
	c := cluster.New(env, &model.Default, 2, cluster.WithFaultEngine(eng))
	m0, m1 := NewManager(c.Nodes[0]), NewManager(c.Nodes[1])
	run(t, env, func(p *des.Proc) {
		src := m1.Export(p, 64)
		src.SetDefaultRights(RightRead)
		dst := m0.Export(p, 64)
		imp := m0.Import(p, 1, src.ID(), src.Gen(), src.Size())
		start := p.Now()
		err := imp.Read(p, 0, 8, dst, 0, 500*us)
		if err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if waited := p.Now().Sub(start); waited < 500*us {
			t.Errorf("returned after %v, before the timeout", waited)
		}
	})
}

func TestCASSuccessAndFailure(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		seg.WriteWord(p, 8, 7)
		res := m0.Export(p, 64)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())

		ok, err := imp.CAS(p, 8, 7, 99, res, 0, time.Second)
		if err != nil || !ok {
			t.Fatalf("CAS(7→99) = %v, %v; want success", ok, err)
		}
		if seg.ReadWord(p, 8) != 99 {
			t.Error("CAS did not swap")
		}
		if res.ReadWord(p, 0) != 1 {
			t.Error("success flag not deposited")
		}

		ok, err = imp.CAS(p, 8, 7, 123, res, 0, time.Second)
		if err != nil || ok {
			t.Fatalf("CAS with wrong old = %v, %v; want failure", ok, err)
		}
		if seg.ReadWord(p, 8) != 99 {
			t.Error("failed CAS mutated the word")
		}
		if res.ReadWord(p, 0) != 0 {
			t.Error("failure flag not deposited")
		}
	})
}

func TestCASUnaligned(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		res := m0.Export(p, 64)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		if _, err := imp.CAS(p, 6, 0, 1, res, 0, time.Second); err != ErrUnaligned {
			t.Errorf("err = %v, want ErrUnaligned", err)
		}
	})
}

func TestCASBuildsMutex(t *testing.T) {
	// §3.4: CAS "is sufficiently powerful to build higher level
	// synchronization primitives". Two clients contend for a spinlock word
	// on the server; the critical sections must not overlap.
	env := des.NewEnv()
	c := cluster.New(env, &model.Default, 3)
	server := NewManager(c.Nodes[0])
	clients := []*Manager{NewManager(c.Nodes[1]), NewManager(c.Nodes[2])}

	var lockSeg *Segment
	var inCrit, maxCrit, entries int
	env.Spawn("setup", func(p *des.Proc) {
		lockSeg = server.Export(p, 64)
		lockSeg.SetDefaultRights(RightsAll)
	})
	for ci, cm := range clients {
		ci, cm := ci, cm
		env.Spawn("client", func(p *des.Proc) {
			p.Sleep(time.Millisecond) // after setup
			res := cm.Export(p, 8)
			imp := cm.Import(p, 0, lockSeg.ID(), lockSeg.Gen(), lockSeg.Size())
			for iter := 0; iter < 5; iter++ {
				for { // acquire
					ok, err := imp.CAS(p, 0, 0, uint32(ci+1), res, 0, time.Second)
					if err != nil {
						t.Error(err)
						return
					}
					if ok {
						break
					}
					p.Sleep(50 * us)
				}
				inCrit++
				entries++
				if inCrit > maxCrit {
					maxCrit = inCrit
				}
				p.Sleep(100 * us) // critical section
				inCrit--
				if ok, err := imp.CAS(p, 0, uint32(ci+1), 0, res, 0, time.Second); err != nil || !ok {
					t.Errorf("release failed: %v %v", ok, err)
					return
				}
			}
		})
	}
	if err := env.RunUntil(des.Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if entries != 10 {
		t.Fatalf("entries = %d, want 10", entries)
	}
	if maxCrit != 1 {
		t.Fatalf("mutual exclusion violated: %d processes in critical section", maxCrit)
	}
}

func TestNotificationModes(t *testing.T) {
	cases := []struct {
		mode      NotifyMode
		reqBit    bool
		wantNotes int
	}{
		{NotifyConditional, false, 0},
		{NotifyConditional, true, 1},
		{NotifyAlways, false, 1},
		{NotifyAlways, true, 1},
		{NotifyNever, false, 0},
		{NotifyNever, true, 0},
	}
	for _, tc := range cases {
		env, _, m0, m1 := testPair(t)
		run(t, env, func(p *des.Proc) {
			seg := m1.Export(p, 64)
			seg.SetDefaultRights(RightsAll)
			seg.SetNotifyMode(tc.mode)
			imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
			if err := imp.Write(p, 4, []byte("args"), tc.reqBit); err != nil {
				t.Fatal(err)
			}
			p.Sleep(time.Millisecond)
			if got := seg.PendingNotifications(); got != tc.wantNotes {
				t.Errorf("mode %d bit %v: notifications = %d, want %d",
					tc.mode, tc.reqBit, got, tc.wantNotes)
			}
		})
	}
}

func TestNotificationCarriesRequestInfo(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	var note Notification
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 128)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())

		m1.Node.Env.Spawn("server", func(sp *des.Proc) {
			note = seg.AwaitNotification(sp)
		})
		if err := imp.Write(p, 40, []byte("lookup args"), true); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
	})
	if note.Src != 0 || note.Op != OpWrite || note.Offset != 40 || note.Count != 11 {
		t.Fatalf("note = %+v", note)
	}
}

func TestOnNotifyHandler(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	var handled []Notification
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		seg.OnNotify(func(hp *des.Proc, n Notification) {
			handled = append(handled, n)
		})
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		for k := 0; k < 3; k++ {
			if err := imp.Write(p, k*8, []byte("x"), true); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(5 * time.Millisecond)
	})
	if len(handled) != 3 {
		t.Fatalf("handler ran %d times, want 3", len(handled))
	}
}

func TestWordAtomicityUnderRemoteReads(t *testing.T) {
	// §3.4's single-writer/multi-reader flag: a local writer flips a word
	// between two values while a remote reader reads it; the reader must
	// only ever observe one of the two values, never a torn mix.
	env, _, m0, m1 := testPair(t)
	const a, b = 0x11111111, 0x22222222
	var observed []uint32
	env.Spawn("writer", func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightRead)
		seg.WriteWord(p, 0, a)

		env.Spawn("reader", func(rp *des.Proc) {
			dst := m0.Export(rp, 64)
			imp := m0.Import(rp, 1, seg.ID(), seg.Gen(), seg.Size())
			for k := 0; k < 20; k++ {
				if err := imp.Read(rp, 0, 4, dst, 0, time.Second); err != nil {
					t.Error(err)
					return
				}
				observed = append(observed, dst.ReadWord(rp, 0))
				rp.Sleep(13 * us)
			}
		})
		for k := 0; k < 50; k++ {
			if k%2 == 0 {
				seg.WriteWord(p, 0, b)
			} else {
				seg.WriteWord(p, 0, a)
			}
			p.Sleep(17 * us)
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 20 {
		t.Fatalf("reader made %d reads", len(observed))
	}
	for _, v := range observed {
		if v != a && v != b {
			t.Fatalf("torn read: %#x", v)
		}
	}
}

func TestRandomWritesLandCorrectly(t *testing.T) {
	// Property: an arbitrary batch of in-bounds small writes produces the
	// same segment contents as applying the copies directly.
	prop := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nops := int(opsRaw%20) + 1
		env, _, m0, m1 := testPair(t)
		const size = 512
		shadow := make([]byte, size)
		okAll := true
		env.Spawn("test", func(p *des.Proc) {
			seg := m1.Export(p, size)
			seg.SetDefaultRights(RightsAll)
			imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
			for k := 0; k < nops; k++ {
				n := rng.Intn(MsgRegisterCap) + 1
				off := rng.Intn(size - n)
				data := make([]byte, n)
				rng.Read(data)
				if err := imp.Write(p, off, data, false); err != nil {
					okAll = false
					return
				}
				copy(shadow[off:], data)
				p.Sleep(100 * us) // writes are unordered only in flight
			}
			p.Sleep(time.Millisecond)
			okAll = bytes.Equal(seg.Bytes(), shadow)
		})
		if err := env.RunUntil(des.Time(10 * time.Second)); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	prop := func(kindRaw uint8, notify bool, seg, gen uint16, off, count, req uint32, status uint8, success bool, data []byte) bool {
		kind := kindRaw%6 + 1
		if len(data) > 1024 {
			data = data[:1024]
		}
		m := &wireMsg{kind: kind, notify: notify, seg: seg, gen: gen, off: off,
			count: count, req: req, status: status, success: success,
			oldW: off ^ count, newW: req, code: status, data: data}
		got, err := decode(m.encode())
		if err != nil {
			return false
		}
		if got.kind != kind {
			return false
		}
		switch kind {
		case kindWrite:
			return got.notify == notify && got.seg == seg && got.gen == gen && got.off == off && bytes.Equal(got.data, data)
		case kindRead:
			return got.seg == seg && got.gen == gen && got.off == off && got.count == count && got.req == req
		case kindReadReply:
			return got.req == req && got.status == status && bytes.Equal(got.data, data)
		case kindCAS:
			return got.seg == seg && got.off == off && got.oldW == off^count && got.newW == req && got.req == req
		case kindCASReply:
			return got.req == req && got.status == status && got.success == success
		case kindNack:
			return got.seg == seg && got.gen == gen && got.off == off && got.code == status
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, frame := range [][]byte{
		{},
		{0},                 // kind 0
		{9},                 // unknown kind
		{kindRead},          // truncated
		{kindCAS, 1},        // truncated
		{kindNack, 0, 1, 0}, // truncated
	} {
		if _, err := decode(frame); err == nil {
			t.Errorf("decode(%v) accepted garbage", frame)
		}
	}
}

func TestByteOrderSwapOnWrite(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m1.Export(p, 64)
		seg.SetDefaultRights(RightsAll)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		imp.SetByteOrderSwap(true)
		// A little-endian sender stores 0x11223344; the big-endian
		// destination must see the word in its own order after the
		// in-transfer swap.
		if err := imp.Write(p, 0, []byte{0x44, 0x33, 0x22, 0x11, 0xAA}, false); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
		got := seg.Bytes()[:5]
		want := []byte{0x11, 0x22, 0x33, 0x44, 0xAA} // trailing partial word unchanged
		if !bytes.Equal(got, want) {
			t.Fatalf("deposited %x, want %x", got, want)
		}
	})
}

func TestByteOrderSwapOnRead(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		src := m1.Export(p, 64)
		src.SetDefaultRights(RightRead)
		copy(src.Bytes(), []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
		dst := m0.Export(p, 64)
		imp := m0.Import(p, 1, src.ID(), src.Gen(), src.Size())
		imp.SetByteOrderSwap(true)
		if err := imp.Read(p, 0, 8, dst, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		want := []byte{0x44, 0x33, 0x22, 0x11, 0x88, 0x77, 0x66, 0x55}
		if !bytes.Equal(dst.Bytes()[:8], want) {
			t.Fatalf("deposited %x, want %x", dst.Bytes()[:8], want)
		}
	})
}

func TestByteOrderSwapRoundTripProperty(t *testing.T) {
	// Writing with swap and reading back with swap is the identity on
	// whole words: two boundary crossings cancel.
	prop := func(words []uint32) bool {
		if len(words) == 0 || len(words) > 8 {
			return true
		}
		env, _, m0, m1 := testPair(t)
		ok := true
		env.Spawn("test", func(p *des.Proc) {
			seg := m1.Export(p, 64)
			seg.SetDefaultRights(RightsAll)
			imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
			imp.SetByteOrderSwap(true)
			buf := make([]byte, 4*len(words))
			for i, w := range words {
				putbe32(buf[4*i:], w)
			}
			if err := imp.Write(p, 0, buf, false); err != nil {
				ok = false
				return
			}
			p.Sleep(time.Millisecond)
			dst := m0.Export(p, 64)
			if err := imp.Read(p, 0, len(buf), dst, 0, time.Second); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(dst.Bytes()[:len(buf)], buf)
		})
		if err := env.RunUntil(des.Time(10 * time.Second)); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
