package cluster

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/atm"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/obs"
)

const protoTest = 0x7f

func TestFrameDelivery(t *testing.T) {
	env := des.NewEnv()
	c := New(env, &model.Default, 2)
	var got []byte
	var from int
	c.Nodes[1].RegisterProto(protoTest, func(p *des.Proc, src int, frame []byte) {
		got = append([]byte(nil), frame...)
		from = src
	})
	payload := []byte("a frame across the cluster")
	env.Spawn("sender", func(p *des.Proc) {
		c.Nodes[0].SendFrame(p, 1, protoTest, CatClient, payload)
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q, want %q", got, payload)
	}
	if from != 0 {
		t.Fatalf("src = %d, want 0", from)
	}
	if c.Nodes[0].FramesSent != 1 || c.Nodes[1].FramesReceived != 1 {
		t.Fatal("frame counters wrong")
	}
}

func TestSwitchedClusterAllPairs(t *testing.T) {
	env := des.NewEnv()
	c := New(env, &model.Default, 4)
	type rx struct{ src, dst int }
	var seen []rx
	for _, n := range c.Nodes {
		dst := n.ID
		n.RegisterProto(protoTest, func(p *des.Proc, src int, frame []byte) {
			seen = append(seen, rx{src, dst})
		})
	}
	env.Spawn("senders", func(p *des.Proc) {
		for s := 0; s < 4; s++ {
			for d := 0; d < 4; d++ {
				if s == d {
					continue
				}
				c.Nodes[s].SendFrame(p, d, protoTest, CatClient, []byte{byte(s), byte(d)})
			}
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 {
		t.Fatalf("delivered %d frames, want 12", len(seen))
	}
}

func TestInterleavedSourcesToOneDestination(t *testing.T) {
	// Two sources fire multi-cell frames at node 0 simultaneously; the
	// per-(src,dst) VCI scheme must keep reassembly separate.
	env := des.NewEnv()
	c := New(env, &model.Default, 3)
	big1 := bytes.Repeat([]byte{0xAA}, 500)
	big2 := bytes.Repeat([]byte{0xBB}, 500)
	var got [][]byte
	c.Nodes[0].RegisterProto(protoTest, func(p *des.Proc, src int, frame []byte) {
		got = append(got, append([]byte(nil), frame...))
	})
	env.Spawn("s1", func(p *des.Proc) { c.Nodes[1].SendFrame(p, 0, protoTest, CatClient, big1) })
	env.Spawn("s2", func(p *des.Proc) { c.Nodes[2].SendFrame(p, 0, protoTest, CatClient, big2) })
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d frames, want 2", len(got))
	}
	ok := func(f []byte) bool {
		return bytes.Equal(f, big1) || bytes.Equal(f, big2)
	}
	if !ok(got[0]) || !ok(got[1]) || bytes.Equal(got[0], got[1]) {
		t.Fatal("interleaved frames corrupted")
	}
}

func TestSendChargesCPU(t *testing.T) {
	env := des.NewEnv()
	c := New(env, &model.Default, 2)
	c.Nodes[1].RegisterProto(protoTest, func(p *des.Proc, src int, frame []byte) {})
	payload := make([]byte, 4096)
	env.Spawn("sender", func(p *des.Proc) {
		c.Nodes[0].SendFrame(p, 1, protoTest, CatClient, payload)
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	// 4096+1 byte frame + trailer = 86 cells; sender CPU ≈ 86×CellPushTx.
	busy := c.Nodes[0].CPU.BusyTime()
	want := 86 * model.Default.CellPushTx
	if busy < want || busy > want+5*time.Microsecond {
		t.Fatalf("sender CPU busy %v, want ≈%v", busy, want)
	}
	// Receiver drains the same cells.
	rbusy := c.Nodes[1].CPU.BusyTime()
	rwant := 86 * model.Default.CellDrainRx
	if rbusy < rwant || rbusy > rwant+5*time.Microsecond {
		t.Fatalf("receiver CPU busy %v, want ≈%v", rbusy, rwant)
	}
}

func TestUnknownProtocolRecordsFault(t *testing.T) {
	env := des.NewEnv()
	c := New(env, &model.Default, 2)
	env.Spawn("sender", func(p *des.Proc) {
		c.Nodes[0].SendFrame(p, 1, 0x55, CatClient, []byte("nobody home"))
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes[1].Faults) != 1 {
		t.Fatalf("faults = %v, want exactly one", c.Nodes[1].Faults)
	}
}

func TestDuplicateProtocolPanics(t *testing.T) {
	env := des.NewEnv()
	c := New(env, &model.Default, 2)
	c.Nodes[0].RegisterProto(1, func(*des.Proc, int, []byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate protocol registration")
		}
	}()
	c.Nodes[0].RegisterProto(1, func(*des.Proc, int, []byte) {})
}

func TestUnroutableCellsCounted(t *testing.T) {
	env := des.NewEnv()
	tr := obs.New(obs.Config{})
	env.SetTracer(tr)
	c := New(env, &model.Default, 3)
	env.Spawn("sender", func(p *des.Proc) {
		// Destination 7 is a valid address with nothing attached: the
		// switch must count the cells, not stall or misroute them.
		c.Nodes[0].SendFrame(p, 7, protoTest, CatClient, []byte("to nowhere"))
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if c.Switch.CellsUnroutable == 0 {
		t.Fatal("switch counted no unroutable cells")
	}
	if got := tr.Snapshot().Counter("atm.sw.unroutable"); got != c.Switch.CellsUnroutable {
		t.Fatalf("obs counter %d != switch counter %d", got, c.Switch.CellsUnroutable)
	}
	for _, n := range c.Nodes {
		if len(n.Faults) != 0 {
			t.Fatalf("node %d faults: %v", n.ID, n.Faults)
		}
	}
}

// TestFrameLongerThanTxFIFO pushes cells faster than the wire drains them
// into a 4-cell TX FIFO, so the transmit path waits for space on most
// cells. The frame must arrive intact, and SendFrame must return when its
// last cell is accepted, paced by the wire.
func TestFrameLongerThanTxFIFO(t *testing.T) {
	p := model.Default
	p.CellPushTx = 100 * time.Nanosecond
	p.TxFIFOCells = 4
	env := des.NewEnv()
	c := New(env, &p, 2)
	var got []byte
	c.Nodes[1].RegisterProto(protoTest, func(_ *des.Proc, _ int, frame []byte) {
		got = append([]byte(nil), frame...)
	})
	payload := bytes.Repeat([]byte("0123456789abcdef"), 256) // 86 cells
	const cells = 86
	tx := c.Nodes[0].NIC.TX
	var returned des.Time
	env.Spawn("sender", func(pr *des.Proc) {
		c.Nodes[0].SendFrame(pr, 1, protoTest, CatClient, payload)
		returned = pr.Now()
		if n := c.Nodes[0].NIC.CellsSent; n != cells {
			t.Errorf("SendFrame returned with %d of %d cells accepted", n, cells)
		}
		if tx.Len() == 0 {
			t.Error("SendFrame returned after its last cell had left the TX FIFO")
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame arrived with %d bytes, want the %d sent", len(got), len(payload))
	}
	// Every cell beyond the FIFO's depth waited for the wire to take one.
	if min := des.Time(time.Duration(cells-p.TxFIFOCells-1) * p.CellWireTime()); returned < min {
		t.Fatalf("SendFrame returned at %v, before the wire could have drained the FIFO (%v)", returned, min)
	}
	if busy, want := c.Nodes[0].CPU.BusyTime(), cells*p.CellPushTx; busy != want {
		t.Fatalf("sender CPU busy %v, want %v", busy, want)
	}
}

// TestNodeFailsMidFrame crashes the receiver while a long frame streams
// in: the cells drained before the crash are charged, every later cell is
// absorbed with no CPU charge, and no frame is dispatched.
func TestNodeFailsMidFrame(t *testing.T) {
	env := des.NewEnv()
	c := New(env, &model.Default, 2)
	rx := c.Nodes[1]
	dispatched := 0
	rx.RegisterProto(protoTest, func(*des.Proc, int, []byte) { dispatched++ })
	env.Spawn("sender", func(p *des.Proc) {
		c.Nodes[0].SendFrame(p, 1, protoTest, CatClient, make([]byte, 4096))
	})
	env.Schedule(des.Time(150*time.Microsecond), rx.Fail)
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if dispatched != 0 || rx.FramesReceived != 0 || len(rx.Faults) != 0 {
		t.Fatalf("failed node dispatched %d frames, received %d, faults %v", dispatched, rx.FramesReceived, rx.Faults)
	}
	drained := rx.NIC.CellsReceived
	if drained == 0 || drained >= 86 {
		t.Fatalf("node drained %d of 86 cells before failing mid-frame", drained)
	}
	if busy, want := rx.CPU.BusyTime(), time.Duration(drained)*model.Default.CellDrainRx; busy != want {
		t.Fatalf("receiver CPU busy %v, want %v for the %d cells drained before the crash", busy, want, drained)
	}
	if rx.NIC.RX.Len() != 0 {
		t.Fatalf("%d cells left in the failed node's RX FIFO", rx.NIC.RX.Len())
	}
}

// TestReceiveAllocatesNothingPerCell streams multi-cell frames of a
// protocol with a per-cell surcharge straight into a node's RX FIFO. Once
// warm, the receive path (take, charge, reassemble, dispatch) allocates
// nothing, per cell or per frame.
func TestReceiveAllocatesNothingPerCell(t *testing.T) {
	env := des.NewEnv()
	c := New(env, &model.Default, 2)
	rx := c.Nodes[1]
	frames := 0
	rx.RegisterProtoEx(protoTest, func(*des.Proc, int, []byte) { frames++ },
		func(first []byte) des.Duration { return des.Duration(first[0]) })
	cells := atm.Segment(atm.MakeVCI(1, 0), append([]byte{protoTest, 7}, make([]byte, 400)...))
	if len(cells) < 2 || len(cells) > rx.NIC.RX.Cap() {
		t.Fatalf("frame of %d cells does not fit the %d-cell RX FIFO", len(cells), rx.NIC.RX.Cap())
	}
	frame := func() {
		for _, cell := range cells {
			rx.NIC.RX.TryPut(cell)
		}
		if err := env.RunUntil(env.Now().Add(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	frame()
	if got := testing.AllocsPerRun(100, frame); got != 0 {
		t.Fatalf("receive path allocates %.1f times per %d-cell frame, want 0", got, len(cells))
	}
	if frames != 102 || len(rx.Faults) != 0 {
		t.Fatalf("dispatched %d of 102 frames, faults %v", frames, rx.Faults)
	}
	// Every cell paid its drain cost plus the surcharge its frame's first
	// cell chose.
	perCell := model.Default.CellDrainRx + 7
	if busy, want := rx.CPU.BusyTime(), time.Duration(102*len(cells))*perCell; busy != want {
		t.Fatalf("receiver CPU busy %v, want %v", busy, want)
	}
}
