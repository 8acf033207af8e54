package des

import (
	"testing"
	"time"
)

// Fast-path microbenchmarks. Run with -benchmem: the headline numbers are
// allocs/op and B/op, which must stay at zero for the pooled scheduler
// paths, and events/sec for raw event-loop throughput.

// BenchmarkSleepSelfWake measures the hottest path in the simulator: a
// process sleeping and resuming itself. With direct hand-off this is one
// heap push + pop and zero channel operations or allocations.
func BenchmarkSleepSelfWake(b *testing.B) {
	env := NewEnv()
	env.Spawn("sleeper", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScheduleFunc measures the callback path with a pre-bound
// function value (the cell-pump idiom): pooled event records, no closures.
func BenchmarkScheduleFunc(b *testing.B) {
	env := NewEnv()
	n := 0
	var fn func()
	fn = func() {
		if n < b.N {
			n++
			env.ScheduleFunc(env.Now().Add(time.Microsecond), fn)
		}
	}
	b.ResetTimer()
	env.ScheduleFunc(0, fn)
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScheduleCancel measures the timer-arm/disarm cycle (the
// reliability layer's retransmission timers): Schedule returns a cancel
// handle whose closure is the only allocation on this path. Each cancelled
// timer is a dead record 1 s out; the cancels compact the queue whenever
// those outnumber the live records, so the heap stays a few dozen deep
// instead of growing to b.N.
func BenchmarkScheduleCancel(b *testing.B) {
	env := NewEnv()
	nop := func() {}
	env.Spawn("arm", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cancel := env.Schedule(env.Now().Add(time.Second), nop)
			cancel()
			p.Sleep(time.Microsecond)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFIFOCellStream measures a cell FIFO in steady state: a
// 64-slot queue holding 32 cells, one in and one out per iteration, so
// the ring's head laps it every 64 cells. It must allocate nothing.
func BenchmarkFIFOCellStream(b *testing.B) {
	type cell struct {
		hdr     [5]byte
		payload [48]byte
	}
	f := NewFIFO[cell](NewEnv(), "rx", 64)
	for i := 0; i < 32; i++ {
		f.TryPut(cell{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TryPut(cell{hdr: [5]byte{byte(i)}})
		f.TryGet()
	}
}

// BenchmarkWakeOneHandoff measures the two-process rendezvous: a waiter
// parked on a WaitQueue, woken by a peer, over and over. Each round is one
// wake event plus one sleep event and exactly one goroutine hand-off.
func BenchmarkWakeOneHandoff(b *testing.B) {
	env := NewEnv()
	wq := NewWaitQueue(env)
	done := false
	env.SpawnDaemon("waiter", func(p *Proc) {
		for !done {
			wq.Wait(p)
		}
	})
	env.Spawn("waker", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wq.WakeOne()
			p.Sleep(time.Microsecond)
		}
		done = true
		wq.WakeOne()
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkHeapChurn measures the 4-ary heap of future events directly: a
// steady-state heap of 4096 pending events with one pop + one push per
// iteration, the access pattern of a busy simulation. The clock stays at
// zero and every event is later, so none lands on the ready list.
func BenchmarkHeapChurn(b *testing.B) {
	env := NewEnv()
	const depth = 4096
	nop := func() {}
	// Seed the heap with events spread over future time.
	for i := 0; i < depth; i++ {
		env.ScheduleFunc(Time(1+i*37%1024)*Time(time.Microsecond), nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := env.queue.heap.pop()
		env.recycle(s.ev)
		env.ScheduleFunc(s.at+Time(997*time.Nanosecond), nop)
	}
}

// BenchmarkAcquireFuncGrant measures the queued-callback grant: two
// callback users take turns on one slot, so every Release hands the slot
// to a queued callback. Each round is one grant event and one charge-end
// event, with no process and no allocation.
func BenchmarkAcquireFuncGrant(b *testing.B) {
	env := NewEnv()
	cpu := NewResource(env, "cpu", 1)
	n := 0
	var charge, end func()
	charge = func() { env.ScheduleFunc(env.Now().Add(time.Microsecond), end) }
	end = func() {
		cpu.Release()
		if n < b.N {
			n++
			if cpu.AcquireFunc(charge) {
				charge()
			}
		}
	}
	for i := 0; i < 2; i++ {
		if cpu.AcquireFunc(charge) {
			charge()
		}
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSleepWhileIdle measures an idle poller tick: the event loop
// re-arms the tick in place while idle() holds, so the poller's goroutine
// never runs and the record is never recycled.
func BenchmarkSleepWhileIdle(b *testing.B) {
	env := NewEnv()
	ticks := 0
	idle := func() bool {
		ticks++
		return ticks < b.N
	}
	env.Spawn("poller", func(p *Proc) {
		b.ResetTimer()
		p.SleepWhile(time.Microsecond, idle)
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/sec")
}
