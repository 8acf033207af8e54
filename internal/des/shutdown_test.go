package des

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until runtime.NumGoroutine falls to want: a
// goroutine that has run its last deferred call still takes a moment to
// leave the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownUnwindsParkedProcesses parks a process in every way one can
// outlive a run and checks each exits through its deferred calls.
func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	q := NewWaitQueue(e)
	cpu := NewResource(e, "cpu", 1)
	var unwound []string
	var pastBlock bool
	unwind := func(name string) { unwound = append(unwound, name) }
	e.SpawnDaemon("sleeper", func(p *Proc) {
		defer unwind("sleeper")
		p.Sleep(time.Hour)
	})
	e.Spawn("waiter", func(p *Proc) {
		defer unwind("waiter")
		q.Wait(p)
	})
	e.SpawnDaemon("holder", func(p *Proc) {
		cpu.Acquire(p)
		defer func() {
			// A blocking call from a deferred function exits too.
			unwind("holder")
			p.Sleep(0)
			pastBlock = true
		}()
		p.Park()
	})
	e.Spawn("queued", func(p *Proc) {
		defer unwind("queued")
		cpu.Acquire(p)
	})
	e.Spawn("finished", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := e.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Spawn("unstarted", func(p *Proc) { unwind("unstarted ran") })
	fired := false
	e.ScheduleFunc(e.Now(), func() { fired = true })
	events := e.Events()
	e.Shutdown()
	if len(unwound) != 4 || pastBlock {
		t.Fatalf("unwound %v (past the deferred block: %v), want the four parked processes once each", unwound, pastBlock)
	}
	if fired || e.Events() != events {
		t.Fatalf("Shutdown drove the event loop: %d events, %d before", e.Events(), events)
	}
	waitGoroutines(t, before)
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Shutdown did not panic")
		}
	}()
	_ = e.Run()
}

// TestShutdownLetsTheEnvBeCollected: after Shutdown nothing keeps the Env
// reachable, not even a cycle through its own pending events, which would
// stop its finalizer from ever running.
func TestShutdownLetsTheEnvBeCollected(t *testing.T) {
	before := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		e := NewEnv()
		runtime.SetFinalizer(e, func(*Env) { close(collected) })
		f := NewFIFO[int](e, "q", 1)
		for i := 0; i < 3; i++ {
			e.SpawnDaemon("consumer", func(p *Proc) {
				for {
					f.Get(p)
				}
			})
		}
		// A pending event whose callback refers back to the Env.
		e.After(time.Hour, func() { f.TryPut(int(e.Now())) })
		if err := e.RunUntil(Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
	}()
	waitGoroutines(t, before)
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("the Env was not collected after Shutdown")
		}
	}
}
