package des

import (
	"testing"
	"time"
)

// TestPanicInProcReachesRunCaller: a panic inside a process surfaces from
// Run with the value it was raised with.
func TestPanicInProcReachesRunCaller(t *testing.T) {
	e := NewEnv()
	boom := &struct{ msg string }{"boom"}
	e.Spawn("bystander", func(p *Proc) { p.Sleep(10 * us) })
	e.Spawn("panics", func(p *Proc) {
		p.Sleep(us)
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("recovered %v, want the process's panic value", r)
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned instead of panicking")
}

// TestRunInsideProcessOfAnotherEnv runs a second Env, with hand-offs of
// its own, from inside a process of the first: one process's coroutine
// becomes the inner Env's trampoline. Each Env keeps its own clock and
// order.
func TestRunInsideProcessOfAnotherEnv(t *testing.T) {
	outer := NewEnv()
	var log []string
	var inner *Env
	outer.Spawn("host", func(p *Proc) {
		p.Sleep(us)
		inner = NewEnv()
		q := NewWaitQueue(inner)
		for i := 0; i < 2; i++ {
			inner.Spawn("waiter", func(ip *Proc) {
				q.Wait(ip)
				log = append(log, "inner wake at "+ip.Now().String())
			})
		}
		inner.Spawn("waker", func(ip *Proc) {
			for i := 0; i < 2; i++ {
				ip.Sleep(5 * us)
				q.WakeOne()
			}
		})
		if err := inner.Run(); err != nil {
			t.Error(err)
		}
		log = append(log, "host at "+p.Now().String())
		p.Sleep(us)
		log = append(log, "host done at "+p.Now().String())
	})
	outer.Spawn("peer", func(p *Proc) {
		p.Sleep(us + us/2)
		log = append(log, "peer at "+p.Now().String())
	})
	if err := outer.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"inner wake at 5µs", "inner wake at 10µs",
		"host at 1µs", "peer at 1.5µs", "host done at 2µs",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %q, want %q", log, want)
		}
	}
	if inner.Handoffs() == 0 || outer.Handoffs() == 0 {
		t.Fatalf("hand-offs: inner %d, outer %d; the test needs both Envs to switch coroutines", inner.Handoffs(), outer.Handoffs())
	}
	if inner.Now() != Time(10*time.Microsecond) || outer.Now() != Time(2*time.Microsecond) {
		t.Fatalf("clocks: inner %v, outer %v", inner.Now(), outer.Now())
	}
}
