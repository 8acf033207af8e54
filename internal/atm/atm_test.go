package atm

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/model"
)

func TestSegmentReassembleRoundTrip(t *testing.T) {
	r := NewReassembler()
	for _, n := range []int{0, 1, 39, 40, 41, 48, 100, 4096, 8192} {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(i * 7)
		}
		cells := Segment(3, frame)
		if len(cells) != CellsForFrame(n) {
			t.Fatalf("n=%d: %d cells, want %d", n, len(cells), CellsForFrame(n))
		}
		for i, c := range cells {
			got, done, err := r.Add(c)
			last := i == len(cells)-1
			if done != last {
				t.Fatalf("n=%d cell %d: done=%v", n, i, done)
			}
			if last {
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if !bytes.Equal(got, frame) {
					t.Fatalf("n=%d: frame corrupted", n)
				}
			}
		}
	}
}

func TestReassembleInterleavedVCs(t *testing.T) {
	f1 := []byte("frame on circuit one, long enough to span multiple cells for sure........")
	f2 := []byte("and a second frame on another circuit, also spanning several cells.......")
	c1 := Segment(1, f1)
	c2 := Segment(MakeVCI(2, 0), f2)
	r := NewReassembler()
	var got1, got2 []byte
	i, j := 0, 0
	for i < len(c1) || j < len(c2) {
		if i < len(c1) {
			if f, done, err := r.Add(c1[i]); done {
				if err != nil {
					t.Fatal(err)
				}
				got1 = f
			}
			i++
		}
		if j < len(c2) {
			if f, done, err := r.Add(c2[j]); done {
				if err != nil {
					t.Fatal(err)
				}
				got2 = f
			}
			j++
		}
	}
	if !bytes.Equal(got1, f1) || !bytes.Equal(got2, f2) {
		t.Fatal("interleaved reassembly corrupted a frame")
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", r.Pending())
	}
}

func TestReassembleDetectsCorruption(t *testing.T) {
	cells := Segment(1, []byte("payload that will be corrupted in flight"))
	cells[0].Payload[3] ^= 0xff
	r := NewReassembler()
	var lastErr error
	for _, c := range cells {
		if _, done, err := r.Add(c); done {
			lastErr = err
		}
	}
	if lastErr == nil {
		t.Fatal("corrupted frame passed CRC")
	}
}

func TestSegmentRoundTripProperty(t *testing.T) {
	prop := func(frame []byte, vci uint16) bool {
		r := NewReassembler()
		cells := Segment(VCI(vci), frame)
		for i, c := range cells {
			got, done, err := r.Add(c)
			if done {
				return i == len(cells)-1 && err == nil && bytes.Equal(got, frame)
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectLinkDelivers(t *testing.T) {
	env := des.NewEnv()
	p := &model.Default
	a := NewInterface(env, p, 0)
	b := NewInterface(env, p, 1)
	DirectLink(env, p, a, b)

	frame := []byte("hello over the wire")
	var got []byte
	var at des.Time
	env.Spawn("sender", func(pr *des.Proc) {
		for _, c := range Segment(1, frame) {
			a.TX.Put(pr, c)
		}
	})
	env.Spawn("receiver", func(pr *des.Proc) {
		r := NewReassembler()
		for {
			c := b.RX.Get(pr)
			if f, done, err := c2frame(r, c); done {
				if err != nil {
					t.Error(err)
				}
				got, at = f, pr.Now()
				return
			}
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatalf("got %q, want %q", got, frame)
	}
	if at == 0 {
		t.Fatal("no delivery")
	}
	// One cell: delivery no earlier than the wire time.
	if at < des.Time(p.CellWireTime()) {
		t.Fatalf("delivered at %v, faster than the wire allows", at)
	}
}

func c2frame(r *Reassembler, c Cell) ([]byte, bool, error) { return r.Add(c) }

func TestLinkSerializationBoundsThroughput(t *testing.T) {
	// 1000 cells over one link cannot beat the 140 Mb/s serialization rate.
	env := des.NewEnv()
	p := &model.Default
	a := NewInterface(env, p, 0)
	b := NewInterface(env, p, 1)
	DirectLink(env, p, a, b)

	const n = 1000
	var doneAt des.Time
	env.Spawn("sender", func(pr *des.Proc) {
		for i := 0; i < n; i++ {
			a.TX.Put(pr, Cell{VCI: 1})
		}
	})
	env.Spawn("receiver", func(pr *des.Proc) {
		for i := 0; i < n; i++ {
			b.RX.Get(pr)
		}
		doneAt = pr.Now()
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	minTime := des.Time(time.Duration(n) * p.CellWireTime())
	if doneAt < minTime {
		t.Fatalf("1000 cells in %v, faster than serialization permits (%v)", doneAt, minTime)
	}
}

func TestFaultInjectionDrops(t *testing.T) {
	env := des.NewEnv()
	p := &model.Default
	a := NewInterface(env, p, 0)
	b := NewInterface(env, p, 1)
	eng := faults.NewEngine(env, faults.Campaign{Seed: 42, Default: faults.LinkFault{Loss: 0.5}})
	ab, _ := DirectLinkEngine(env, p, a, b, eng)

	const n = 500
	env.Spawn("sender", func(pr *des.Proc) {
		for i := 0; i < n; i++ {
			a.TX.Put(pr, Cell{VCI: 1})
		}
	})
	received := 0
	env.SpawnDaemon("receiver", func(pr *des.Proc) {
		for {
			b.RX.Get(pr)
			received++
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if ab.CellsDropped == 0 {
		t.Fatal("no cells dropped at 50% loss")
	}
	if received+int(ab.CellsDropped) != n {
		t.Fatalf("received %d + dropped %d != sent %d", received, ab.CellsDropped, n)
	}
	if received < n/4 || received > 3*n/4 {
		t.Fatalf("received %d of %d at 50%% loss; generator looks broken", received, n)
	}
}

func TestSwitchRoutesOnVCI(t *testing.T) {
	env := des.NewEnv()
	p := &model.Default
	sw := NewSwitch(env, p)
	nics := make([]*Interface, 4)
	for i := range nics {
		nics[i] = NewInterface(env, p, i)
		sw.Attach(nics[i])
	}

	// Node 0 sends a frame to node 2 and one to node 3.
	f2 := []byte("for node two")
	f3 := []byte("for node three")
	env.Spawn("sender", func(pr *des.Proc) {
		for _, c := range Segment(MakeVCI(2, 0), f2) {
			nics[0].TX.Put(pr, c)
		}
		for _, c := range Segment(MakeVCI(3, 0), f3) {
			nics[0].TX.Put(pr, c)
		}
	})
	got := make(map[int][]byte)
	for _, n := range []int{1, 2, 3} {
		n := n
		env.SpawnDaemon("recv", func(pr *des.Proc) {
			r := NewReassembler()
			for {
				c := nics[n].RX.Get(pr)
				if f, done, err := r.Add(c); done && err == nil {
					got[n] = f
				}
			}
		})
	}
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[2], f2) || !bytes.Equal(got[3], f3) {
		t.Fatalf("switch misrouted: %q %q", got[2], got[3])
	}
	if got[1] != nil {
		t.Fatalf("node 1 received traffic not addressed to it: %q", got[1])
	}
}

func TestSwitchAddsLatency(t *testing.T) {
	p := &model.Default

	measure := func(useSwitch bool) des.Time {
		env := des.NewEnv()
		a := NewInterface(env, p, 0)
		b := NewInterface(env, p, 1)
		if useSwitch {
			sw := NewSwitch(env, p)
			sw.Attach(a)
			sw.Attach(b)
		} else {
			DirectLink(env, p, a, b)
		}
		var at des.Time
		env.Spawn("sender", func(pr *des.Proc) {
			for _, c := range Segment(MakeVCI(1, 0), []byte("x")) {
				a.TX.Put(pr, c)
			}
		})
		env.Spawn("recv", func(pr *des.Proc) {
			b.RX.Get(pr)
			at = pr.Now()
		})
		if err := env.RunUntil(des.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		return at
	}

	direct, switched := measure(false), measure(true)
	if switched <= direct {
		t.Fatalf("switched path (%v) not slower than direct (%v)", switched, direct)
	}
	// "We expect next-generation switches to introduce only small
	// additional latency": the penalty should be a few µs, not tens.
	if switched.Sub(direct) > 10*time.Microsecond {
		t.Fatalf("switch penalty %v too large", switched.Sub(direct))
	}
}

func TestSwitchBackpressurePropagates(t *testing.T) {
	// Two senders flood one output port; the switch's output queue fills
	// and flow control pushes back into the senders' TX FIFOs rather than
	// dropping cells.
	env := des.NewEnv()
	p := &model.Default
	sw := NewSwitch(env, p)
	nics := make([]*Interface, 3)
	for i := range nics {
		nics[i] = NewInterface(env, p, i)
		sw.Attach(nics[i])
	}
	const per = 400
	for _, src := range []int{1, 2} {
		src := src
		env.Spawn("flood", func(pr *des.Proc) {
			for i := 0; i < per; i++ {
				nics[src].TX.Put(pr, Cell{VCI: MakeVCI(0, src)})
			}
		})
	}
	received := 0
	env.SpawnDaemon("sink", func(pr *des.Proc) {
		for {
			nics[0].RX.Get(pr)
			received++
			pr.Sleep(20 * time.Microsecond) // slow consumer
		}
	})
	if err := env.RunUntil(des.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if received != 2*per {
		t.Fatalf("received %d of %d cells; backpressure must not drop", received, 2*per)
	}
}

func TestReassemblerDiscardsPartialOnError(t *testing.T) {
	r := NewReassembler()
	cells := Segment(5, bytes.Repeat([]byte{7}, 100))
	// Feed a truncated frame: first cell, then a bogus "last" cell whose
	// trailer fails CRC. The partial state must be cleared either way.
	if _, done, _ := r.Add(cells[0]); done {
		t.Fatal("frame completed early")
	}
	bad := cells[len(cells)-1]
	bad.Payload[0] ^= 0xff
	if _, done, err := r.Add(bad); !done || err == nil {
		t.Fatalf("done=%v err=%v; want done with error", done, err)
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after failed frame", r.Pending())
	}
	// The circuit is reusable afterwards.
	for i, c := range Segment(5, []byte("fresh frame")) {
		f, done, err := r.Add(c)
		if done {
			if err != nil || string(f) != "fresh frame" {
				t.Fatalf("reuse after error: %q %v", f, err)
			}
		} else if i == len(cells)-1 {
			t.Fatal("frame never completed")
		}
	}
}

// TestSwitchCountsUnroutableCells: a cell whose destination has no port is
// counted and discarded, whether the destination lies past the last
// attached port or in a gap between ports, and traffic to attached ports
// still arrives.
func TestSwitchCountsUnroutableCells(t *testing.T) {
	env := des.NewEnv()
	p := &model.Default
	sw := NewSwitch(env, p)
	nics := map[int]*Interface{}
	for _, n := range []int{0, 2, 3} { // node 1 is a gap
		nics[n] = NewInterface(env, p, n)
		sw.Attach(nics[n])
	}
	env.Spawn("sender", func(pr *des.Proc) {
		for _, dst := range []int{1, 4, 255, 3} { // a gap, just past the end, far past it, a port
			nics[0].TX.Put(pr, Cell{VCI: MakeVCI(dst, 0), Last: true})
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if sw.CellsUnroutable != 3 {
		t.Fatalf("CellsUnroutable = %d, want 3", sw.CellsUnroutable)
	}
	if n := nics[3].RX.Len(); n != 1 {
		t.Fatalf("node 3 holds %d cells, want 1", n)
	}
	if n := nics[2].RX.Len(); n != 0 {
		t.Fatalf("node 2 holds %d cells addressed elsewhere", n)
	}
}

// TestReassemblerPendingCountsOpenCircuits: Pending stays exact while
// frames are open on circuits across the table, including the highest
// source byte and destinations other than zero.
func TestReassemblerPendingCountsOpenCircuits(t *testing.T) {
	r := NewReassembler()
	frame := bytes.Repeat([]byte{9}, 3*PayloadSize)
	vcis := []VCI{MakeVCI(1, 255), MakeVCI(200, 255), MakeVCI(1, 0), MakeVCI(255, 255)}
	cells := make([][]Cell, len(vcis))
	for i, v := range vcis {
		cells[i] = Segment(v, frame)
		if _, done, _ := r.Add(cells[i][0]); done {
			t.Fatalf("VCI %#x: frame completed on its first cell", uint16(v))
		}
		if got := r.Pending(); got != i+1 {
			t.Fatalf("after opening %d circuits Pending() = %d", i+1, got)
		}
	}
	// A second cell on an open circuit opens nothing.
	r.Add(cells[1][1])
	if got := r.Pending(); got != len(vcis) {
		t.Fatalf("Pending() = %d after a middle cell, want %d", got, len(vcis))
	}
	for i := range vcis {
		var got []byte
		fed := 1
		if i == 1 {
			fed = 2
		}
		for _, c := range cells[i][fed:] {
			f, done, err := r.Add(c)
			if done {
				if err != nil {
					t.Fatalf("VCI %#x: %v", uint16(vcis[i]), err)
				}
				got = f
			}
		}
		if !bytes.Equal(got, frame) {
			t.Fatalf("VCI %#x: frame corrupted", uint16(vcis[i]))
		}
		if want := len(vcis) - i - 1; r.Pending() != want {
			t.Fatalf("after closing %d circuits Pending() = %d, want %d", i+1, r.Pending(), want)
		}
	}
}
