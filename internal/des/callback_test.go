package des

import (
	"fmt"
	"reflect"
	"testing"
)

// Equivalence of the callback primitives with the process code they stand
// in for. Each scenario runs once in process form and once in callback
// form; the firing order, stamped with the clock and the sequence counter
// at each step, and Events() must match, so a state machine built from the
// primitives is a drop-in for the process loop it replaces.

// firing is one observed step: its label, the virtual time, and the
// environment's sequence counter when it ran.
type firing struct {
	what string
	at   Time
	seq  uint64
}

type firingLog struct {
	env *Env
	log []firing
}

func (l *firingLog) note(format string, args ...any) {
	l.log = append(l.log, firing{fmt.Sprintf(format, args...), l.env.now, l.env.seq})
}

// equivalent runs scenario in both forms and compares the logs, the event
// counts and the sequence numbers consumed. It returns both runs' hand-offs.
func equivalent(t *testing.T, scenario func(e *Env, l *firingLog, callbacks bool)) (proc, cb uint64) {
	t.Helper()
	run := func(callbacks bool) (*Env, []firing) {
		e := NewEnv()
		l := &firingLog{env: e}
		scenario(e, l, callbacks)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e, l.log
	}
	pe, plog := run(false)
	ce, clog := run(true)
	if len(plog) == 0 {
		t.Fatal("scenario logged nothing")
	}
	if !reflect.DeepEqual(plog, clog) {
		for i := range plog {
			if i >= len(clog) || plog[i] != clog[i] {
				t.Fatalf("firing %d: process form %+v, callback form %+v", i, plog[i], clog[min(i, len(clog)-1)])
			}
		}
		t.Fatalf("callback form logged %d firings, process form %d", len(clog), len(plog))
	}
	if pe.Events() != ce.Events() || pe.seq != ce.seq {
		t.Fatalf("events/seq: process form %d/%d, callback form %d/%d", pe.Events(), pe.seq, ce.Events(), ce.seq)
	}
	return pe.Handoffs(), ce.Handoffs()
}

// TestAcquireFuncMatchesAcquire interleaves callback and process waiters on
// one contended resource: every other user queues a callback, which
// charges the resource and resumes its parked owner at the charge end.
// Grants stay FIFO across both kinds, at the same instants and sequence
// numbers as when every user blocks in Acquire.
func TestAcquireFuncMatchesAcquire(t *testing.T) {
	proc, cb := equivalent(t, func(e *Env, l *firingLog, callbacks bool) {
		cpu := NewResource(e, "cpu", 1)
		for i := 0; i < 6; i++ {
			hold := Duration(3+i%2) * us
			e.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
				for round := 0; round < 3; round++ {
					p.Sleep(Duration(i%3) * us)
					if callbacks && i%2 == 1 {
						grant := func() {
							l.note("grant %d", i)
							e.ResumeAt(e.Now().Add(hold), p)
						}
						if cpu.AcquireFunc(grant) {
							grant()
						}
						p.Park()
					} else {
						cpu.Acquire(p)
						l.note("grant %d", i)
						p.Sleep(hold)
					}
					cpu.Release()
					l.note("release %d", i)
				}
			})
		}
	})
	if cb >= proc {
		t.Errorf("callback waiters saved no hand-offs: %d against %d", cb, proc)
	}
}

// TestSleepWhileMatchesSleepLoop runs a poller whose passes mostly find
// nothing to do, beside a writer that ticks at twice its rate and feeds it
// work at irregular times. SleepWhile skips the no-op passes without
// resuming the poller, and the run is otherwise the same as a Sleep loop's.
func TestSleepWhileMatchesSleepLoop(t *testing.T) {
	proc, cb := equivalent(t, func(e *Env, l *firingLog, callbacks bool) {
		work, done := 0, false
		idle := func() bool { return work == 0 && !done }
		e.Spawn("writer", func(p *Proc) {
			for i := 0; i < 60; i++ {
				p.Sleep(us)
				if i%7 == 3 || i%11 == 5 {
					work++
					l.note("write %d", i)
				}
			}
			done = true
		})
		e.Spawn("poller", func(p *Proc) {
			for {
				if callbacks {
					p.SleepWhile(2*us, idle)
				} else {
					p.Sleep(2 * us)
				}
				if done {
					l.note("stop")
					return
				}
				if work == 0 {
					continue // the no-op pass
				}
				l.note("pass %d", work)
				work = 0
				p.Sleep(us) // the pass itself takes time
			}
		})
	})
	if cb >= proc {
		t.Errorf("SleepWhile saved no hand-offs: %d against %d", cb, proc)
	}
}

// TestParkResumeMatchesSleep replaces each Sleep with a ResumeAt the
// process schedules for itself plus a Park, among peers that fire at the
// same instants.
func TestParkResumeMatchesSleep(t *testing.T) {
	equivalent(t, func(e *Env, l *firingLog, callbacks bool) {
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for round := 0; round < 4; round++ {
					d := Duration(1+(i+round)%2) * us
					if callbacks && i%2 == 0 {
						e.ResumeAt(e.Now().Add(d), p)
						p.Park()
					} else {
						p.Sleep(d)
					}
					l.note("wake %d", i)
				}
			})
		}
	})
}

func TestHandoffsCountOnlyGoroutineSwitches(t *testing.T) {
	e := NewEnv()
	wq := NewWaitQueue(e)
	e.SpawnDaemon("waiter", func(p *Proc) {
		for {
			wq.Wait(p)
		}
	})
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(us)
			wq.WakeOne()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two first activations, five wakes of the waiter, and four switches
	// back to the sleeping waker (the last wake ends the run).
	if got, want := e.Handoffs(), uint64(2+5+4); got != want {
		t.Fatalf("Handoffs() = %d, want %d", got, want)
	}
}

func TestSleepWhileRejectsNonPositiveInterval(t *testing.T) {
	e := NewEnv()
	var recovered any
	e.Spawn("p", func(p *Proc) {
		defer func() { recovered = recover() }()
		p.SleepWhile(0, func() bool { return false })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("SleepWhile(0, …) did not panic")
	}
}
