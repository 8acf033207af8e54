package des

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// Ring tests: FIFO keeps its items in a power-of-two ring, so these drive
// the head around the end of the ring and grow it mid-wrap.

// drain empties f, returning its items oldest first.
func drain[T any](f *FIFO[T]) []T {
	var out []T
	for {
		v, ok := f.TryGet()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestFIFORingWrapsAround(t *testing.T) {
	f := NewFIFO[int](NewEnv(), "ring", 0)
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			f.TryPut(next)
			next++
		}
		for i := 0; i < 3; i++ {
			v, ok := f.TryGet()
			if !ok || v != want {
				t.Fatalf("round %d: got %d,%v, want %d", round, v, ok, want)
			}
			want++
		}
	}
	if len(f.ring) != 4 {
		t.Fatalf("a stream never more than 3 deep grew the ring to %d", len(f.ring))
	}
}

func TestFIFORingGrowsWhileWrapped(t *testing.T) {
	f := NewFIFO[int](NewEnv(), "ring", 0)
	for i := 0; i < 4; i++ {
		f.TryPut(i)
	}
	f.TryGet()
	f.TryGet()
	f.TryPut(4) // the head sits at 2, so 4 and 5 wrap to 0 and 1
	f.TryPut(5)
	if f.head != 2 || f.Len() != 4 || len(f.ring) != 4 {
		t.Fatalf("want a full, wrapped 4-slot ring: head %d, Len %d, ring %d", f.head, f.Len(), len(f.ring))
	}
	for i := 6; i < 20; i++ { // grows from the wrapped state, then again
		f.TryPut(i)
	}
	want := make([]int, 0, 18)
	for i := 2; i < 20; i++ {
		want = append(want, i)
	}
	if f.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(want))
	}
	if got := drain(f); !reflect.DeepEqual(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
}

func TestFIFORingLenAndFullAtCapacity(t *testing.T) {
	f := NewFIFO[int](NewEnv(), "ring", 5)
	for round := 0; round < 4; round++ { // each round starts the head further on
		for i := 0; i < 5; i++ {
			if f.Full() || f.Len() != i {
				t.Fatalf("round %d: Full %v, Len %d after %d puts", round, f.Full(), f.Len(), i)
			}
			if !f.TryPut(i) {
				t.Fatalf("round %d: put %d dropped below capacity", round, i)
			}
		}
		if !f.Full() || f.Len() != 5 || f.TryPut(9) {
			t.Fatalf("round %d at capacity: Full %v, Len %d", round, f.Full(), f.Len())
		}
		f.TryGet()
		f.TryGet()
		f.TryGet()
		drain(f)
	}
	if f.Drops != 4 {
		t.Fatalf("Drops = %d, want 4", f.Drops)
	}
}

// TestFIFOCallbacksAcrossWrap parks OnItem getters and OnSpace putters on a
// ring whose head has wrapped: they fire in registration order, each
// seeing the item or the space its turn gives it.
func TestFIFOCallbacksAcrossWrap(t *testing.T) {
	e := NewEnv()
	f := NewFIFO[int](e, "ring", 4)
	for i := 0; i < 4; i++ {
		f.TryPut(i)
	}
	drain(f)
	for i := 0; i < 3; i++ { // head at 3: the next three items wrap
		f.TryPut(0)
		f.TryGet()
	}
	var log []string
	for _, name := range []string{"g1", "g2", "g3"} {
		name := name
		f.OnItem(func() {
			v, _ := f.TryGet()
			log = append(log, fmt.Sprintf("%s=%d", name, v))
		})
	}
	for i := 0; i < 3; i++ {
		f.TryPut(i)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f.TryPut(10 + i)
	}
	for _, name := range []string{"p1", "p2"} {
		name := name
		f.OnSpace(func() {
			log = append(log, fmt.Sprintf("%s full=%v", name, f.Full()))
			f.TryPut(20)
		})
	}
	f.TryGet()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	f.TryGet()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"g1=0", "g2=1", "g3=2", "p1 full=false", "p2 full=false"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("callbacks fired %v, want %v", log, want)
	}
	if got := drain(f); !reflect.DeepEqual(got, []int{12, 13, 20, 20}) {
		t.Fatalf("drained %v after the putters", got)
	}
}

func TestFIFOSteadyStreamAllocatesNothing(t *testing.T) {
	f := NewFIFO[Time](NewEnv(), "cells", 64)
	for i := 0; i < 40; i++ {
		f.TryPut(0)
	}
	tryStream := func() {
		f.TryPut(1)
		f.TryGet()
	}
	if n := testing.AllocsPerRun(1000, tryStream); n != 0 {
		t.Fatalf("TryPut/TryGet allocates %v per item, want 0", n)
	}

	// A blocking producer and consumer through a full 8-slot FIFO, stepped
	// with RunUntil: every Put waits for space and every Get for an item.
	e := NewEnv()
	g := NewFIFO[Time](e, "cells", 8)
	e.SpawnDaemon("producer", func(p *Proc) {
		for {
			g.Put(p, p.Now())
		}
	})
	e.SpawnDaemon("consumer", func(p *Proc) {
		for {
			g.Get(p)
			p.Sleep(time.Microsecond)
		}
	})
	step := func() {
		if err := e.RunUntil(e.Now().Add(50 * time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a blocking Put/Get stream allocates %v per 50 items, want 0", n)
	}
	e.Shutdown()
}
