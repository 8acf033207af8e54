package des

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

const us = time.Microsecond

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.Schedule(Time(30*us), func() { order = append(order, 3) })
	e.Schedule(Time(10*us), func() { order = append(order, 1) })
	e.Schedule(Time(20*us), func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != Time(30*us) {
		t.Fatalf("clock = %v, want 30µs", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(5*us), func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEnv()
	fired := false
	cancel := e.Schedule(Time(us), func() { fired = true })
	cancel()
	cancel() // double-cancel is a no-op
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Schedule(Time(100*us), func() {
		e.Schedule(Time(10*us), func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(100*us) {
		t.Fatalf("past event ran at %v, want clamped to 100µs", at)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var stamps []Time
	e.Spawn("sleeper", func(p *Proc) {
		stamps = append(stamps, p.Now())
		p.Sleep(40 * us)
		stamps = append(stamps, p.Now())
		p.Sleep(0)
		stamps = append(stamps, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Time(40 * us), Time(40 * us)}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEnv()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * us)
		trace = append(trace, "a10")
		p.Sleep(20 * us)
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * us)
		trace = append(trace, "b15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEnv()
	cpu := NewResource(e, "cpu", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("worker", func(p *Proc) {
			cpu.Use(p, 10*us)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * us), Time(20 * us), Time(30 * us)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if got := cpu.BusyTime(); got != 30*us {
		t.Fatalf("busy time = %v, want 30µs", got)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "duo", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			r.Use(p, 10*us)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run 0–10, two run 10–20.
	want := []Time{Time(10 * us), Time(10 * us), Time(20 * us), Time(20 * us)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if got := r.BusyTime(); got != 40*us {
		t.Fatalf("busy = %v, want 40µs", got)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	cpu := NewResource(e, "cpu", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			cpu.Acquire(p)
			order = append(order, i)
			p.Sleep(us)
			cpu.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEnv()
	cpu := NewResource(e, "cpu", 1)
	e.Spawn("w", func(p *Proc) {
		cpu.Use(p, 25*us)
		p.Sleep(75 * us)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := cpu.Utilization(0); u < 0.249 || u > 0.251 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestWaitQueue(t *testing.T) {
	e := NewEnv()
	q := NewWaitQueue(e)
	var woke []Time
	for i := 0; i < 2; i++ {
		e.Spawn("waiter", func(p *Proc) {
			q.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Schedule(Time(50*us), func() { q.WakeOne() })
	e.Schedule(Time(70*us), func() { q.WakeAll() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != Time(50*us) || woke[1] != Time(70*us) {
		t.Fatalf("wake times = %v", woke)
	}
}

func TestWakeWithoutWaiterIsLost(t *testing.T) {
	e := NewEnv()
	q := NewWaitQueue(e)
	if q.WakeOne() {
		t.Fatal("WakeOne on empty queue reported a wake")
	}
	if n := q.WakeAll(); n != 0 {
		t.Fatalf("WakeAll on empty queue = %d", n)
	}
}

func TestFIFOBlockingGet(t *testing.T) {
	e := NewEnv()
	f := NewFIFO[int](e, "q", 0)
	var got int
	var at Time
	e.Spawn("consumer", func(p *Proc) {
		got = f.Get(p)
		at = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(30 * us)
		f.Put(p, 42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || at != Time(30*us) {
		t.Fatalf("got %d at %v, want 42 at 30µs", got, at)
	}
}

func TestFIFOBackpressure(t *testing.T) {
	e := NewEnv()
	f := NewFIFO[int](e, "q", 2)
	var lastPut Time
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			f.Put(p, i)
		}
		lastPut = p.Now()
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * us)
			if v := f.Get(p); v != i {
				t.Errorf("got %d, want %d", v, i)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Producer fills 2 slots at t=0, then blocks; slots free at 10 and 20.
	if lastPut != Time(20*us) {
		t.Fatalf("last put at %v, want 20µs", lastPut)
	}
}

func TestFIFOTryPutDrops(t *testing.T) {
	e := NewEnv()
	f := NewFIFO[int](e, "q", 1)
	if !f.TryPut(1) {
		t.Fatal("first TryPut failed")
	}
	if f.TryPut(2) {
		t.Fatal("TryPut into full queue succeeded")
	}
	if f.Drops != 1 {
		t.Fatalf("drops = %d, want 1", f.Drops)
	}
	v, ok := f.TryGet()
	if !ok || v != 1 {
		t.Fatalf("TryGet = %d,%v", v, ok)
	}
	if _, ok := f.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	// Property: for any batch of items, a FIFO delivers them in order
	// through a producer/consumer pair regardless of queue capacity.
	prop := func(items []byte, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		e := NewEnv()
		f := NewFIFO[byte](e, "q", capacity)
		var out []byte
		e.Spawn("producer", func(p *Proc) {
			for _, b := range items {
				f.Put(p, b)
				p.Sleep(Duration(b%3) * us)
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			for range items {
				out = append(out, f.Get(p))
				p.Sleep(Duration(b2(out)) * us)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(out) != len(items) {
			return false
		}
		for i := range items {
			if out[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func b2(out []byte) byte {
	if len(out) == 0 {
		return 0
	}
	return out[len(out)-1] % 2
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	var count int
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * us)
			count++
		}
	})
	if err := e.RunUntil(Time(35 * us)); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d after 35µs, want 3", count)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d after drain, want 10", count)
	}
}

func TestHalt(t *testing.T) {
	e := NewEnv()
	var count int
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(10 * us)
			count++
			if count == 5 {
				p.Env().Halt()
			}
		}
	})
	// The ticker loops forever; Halt must stop the run. The goroutine
	// stays blocked, which is fine for a halted simulation.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	q := NewWaitQueue(e)
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("Run returned nil for a deadlocked simulation")
	}
}

// TestStalledNamesProcessesNoEventWillResume: after a run stops, a waiter
// parked with nobody left to wake it is stalled; a sleeper with its wake
// pending is not, and neither is a daemon parked the same way.
func TestStalledNamesProcessesNoEventWillResume(t *testing.T) {
	e := NewEnv()
	q := NewWaitQueue(e)
	e.Spawn("waiter", func(p *Proc) { q.Wait(p) })
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	e.SpawnDaemon("daemon", func(p *Proc) { q.Wait(p) })
	e.Spawn("done", func(p *Proc) { p.Sleep(us) })
	if got := e.Stalled(); len(got) != 0 {
		t.Fatalf("Stalled() = %v before the run, want none: every process has its start pending", got)
	}
	if err := e.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stalled(); len(got) != 1 || got[0] != "waiter" {
		t.Fatalf("Stalled() = %v, want [waiter]", got)
	}
	e.Shutdown()
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		cpu := NewResource(e, "cpu", 1)
		f := NewFIFO[int](e, "q", 3)
		var trace []string
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					cpu.Use(p, Duration(i+1)*us)
					f.Put(p, i*10+j)
				}
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for k := 0; k < 9; k++ {
				v := f.Get(p)
				trace = append(trace, time.Duration(p.Now()).String()+":"+string(rune('0'+v%10)))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEnv()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10 * us)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(5 * us)
			childAt = c.Now()
		})
		p.Sleep(20 * us)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != Time(15*us) {
		t.Fatalf("child finished at %v, want 15µs", childAt)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on releasing an idle resource")
		}
	}()
	r.Release()
}

func TestUnboundedFIFONeverBlocksPut(t *testing.T) {
	e := NewEnv()
	f := NewFIFO[int](e, "q", 0)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			f.Put(p, i)
		}
		if p.Now() != 0 {
			t.Error("unbounded Put advanced time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1000 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestWaitQueueLen(t *testing.T) {
	e := NewEnv()
	q := NewWaitQueue(e)
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) { q.Wait(p) })
	}
	e.Schedule(Time(us), func() {
		if q.Len() != 3 {
			t.Errorf("len = %d", q.Len())
		}
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Fatalf("len after wake = %d", q.Len())
	}
}

func TestHaltThenResume(t *testing.T) {
	e := NewEnv()
	count := 0
	e.Spawn("t", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * us)
			count++
			if count == 3 {
				e.Halt()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d at halt", count)
	}
	// Run again: the simulation resumes where it stopped.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d after resume", count)
	}
}

func TestGoexitInProcDoesNotWedgeScheduler(t *testing.T) {
	// A process that dies via runtime.Goexit (as t.Fatal does) must not
	// deadlock the environment; other processes keep running.
	e := NewEnv()
	finished := false
	e.Spawn("dies", func(p *Proc) {
		p.Sleep(us)
		runtime.Goexit()
	})
	e.Spawn("lives", func(p *Proc) {
		p.Sleep(10 * us)
		finished = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("survivor did not finish")
	}
}
