package recovery_test

import (
	"errors"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/model"
	"netmem/internal/recovery"
	"netmem/internal/rmem"
)

// rig is a two-node detection testbed: a heartbeat on node 0 and a
// coordinator on node 1 watching it.
type rig struct {
	env *des.Env
	m0  *rmem.Manager
	m1  *rmem.Manager
	rec *recovery.Coordinator
}

func newRig(t *testing.T, seed int64, camp faults.Campaign, cfg recovery.Config, steps ...recovery.Step) *rig {
	t.Helper()
	env := des.NewEnv()
	if seed != 0 {
		env.Seed(seed)
	}
	eng := faults.NewEngine(env, camp)
	cl := cluster.New(env, &model.Default, 2, cluster.WithFaultEngine(eng))
	r := &rig{env: env, m0: rmem.NewManager(cl.Nodes[0]), m1: rmem.NewManager(cl.Nodes[1])}
	env.Spawn("setup", func(p *des.Proc) {
		rec, hb := recovery.Arm(p, r.m0, r.m1, 100*time.Microsecond, cfg)
		for _, s := range steps {
			rec.OnFailover(s.Name, s.Run)
		}
		rec.Watch(hb, 0)
		r.rec = rec
	})
	return r
}

// Satellite: the watchdog's liveness lease under the `flap` campaign.
// Repeated 200 µs link outages kill individual probes, but the outages are
// far shorter than the grace window, so a leased watchdog must never
// declare the peer dead — while a grace-1 watchdog (the naive detector)
// fires on the first unlucky probe. The probe interval is chosen coprime
// to the 2 ms flap period so probe phase sweeps through the outage window
// deterministically.
func TestFlapFalsePositives(t *testing.T) {
	camp, ok := faults.Named("flap")
	if !ok {
		t.Fatal("flap campaign missing")
	}
	for _, seed := range []int64{1, 7, 42, 1994, 123456} {
		for _, tc := range []struct {
			grace     int
			wantFired bool
		}{
			{grace: 1, wantFired: true},
			{grace: 3, wantFired: false},
			{grace: 5, wantFired: false},
		} {
			r := newRig(t, seed, camp, recovery.Config{
				Interval: 270 * time.Microsecond,
				Grace:    tc.grace,
			})
			if err := r.env.RunUntil(des.Time(350 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			w := r.rec.Watchdog()
			if w.Fired != tc.wantFired {
				t.Errorf("seed %d grace %d: Fired = %v, want %v (misses %d)",
					seed, tc.grace, w.Fired, tc.wantFired, w.Misses)
			}
			if !tc.wantFired && w.Misses == 0 {
				t.Errorf("seed %d grace %d: no probe ever missed — the flaps did not stress detection",
					seed, tc.grace)
			}
			if r.rec.Failed() != tc.wantFired {
				t.Errorf("seed %d grace %d: coordinator Failed = %v, want %v",
					seed, tc.grace, r.rec.Failed(), tc.wantFired)
			}
		}
	}
}

// A real crash must fire through the same grace that suppressed the flaps,
// the registered steps must run in order, and the measured MTTR must be
// positive, finite, and reproducible for the seed.
func TestCoordinatorFailoverMTTR(t *testing.T) {
	camp := faults.Campaign{Name: "one-crash", Crashes: []faults.Crash{
		{Node: 0, At: 5 * time.Millisecond},
	}}
	runOnce := func(seed int64) (des.Duration, []string) {
		var order []string
		r := newRig(t, seed, camp, recovery.Config{Grace: 4},
			recovery.Step{Name: "takeover", Run: func(p *des.Proc) error {
				order = append(order, "takeover")
				return nil
			}},
			recovery.Step{Name: "rebind", Run: func(p *des.Proc) error {
				order = append(order, "rebind")
				return nil
			}},
		)
		var awaited error
		r.env.Spawn("waiter", func(p *des.Proc) {
			for r.rec == nil {
				p.Sleep(100 * time.Microsecond) // let setup finish wiring
			}
			awaited = r.rec.AwaitRestored(p, 100*time.Millisecond)
		})
		if err := r.env.RunUntil(des.Time(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if !r.rec.Restored() {
			t.Fatal("coordinator never restored after the crash")
		}
		if awaited != nil {
			t.Fatalf("AwaitRestored: %v", awaited)
		}
		if r.rec.Rebinds != 2 {
			t.Fatalf("Rebinds = %d, want 2", r.rec.Rebinds)
		}
		return r.rec.MTTR(), order
	}

	mttr, order := runOnce(1)
	if len(order) != 2 || order[0] != "takeover" || order[1] != "rebind" {
		t.Fatalf("step order = %v", order)
	}
	if mttr <= 0 || mttr > 10*time.Millisecond {
		t.Fatalf("MTTR = %v, want finite positive under 10ms", mttr)
	}
	if again, _ := runOnce(1); again != mttr {
		t.Fatalf("MTTR not deterministic: %v vs %v", again, mttr)
	}
}

// A step that keeps failing exhausts its retry budget; the coordinator
// reports the stall as a node fault and stays un-restored, and waiters
// time out instead of hanging. The retries back off on the model's
// schedule: RetryTimeout, doubling each time, capped at RetryBackoffMax —
// eight retries are enough to reach the cap.
func TestCoordinatorStepGiveup(t *testing.T) {
	camp := faults.Campaign{Name: "one-crash", Crashes: []faults.Crash{
		{Node: 0, At: 2 * time.Millisecond},
	}}
	broken := errors.New("standby also dead")
	var at []des.Time
	r := newRig(t, 1, camp, recovery.Config{Grace: 2, Attempts: 8},
		recovery.Step{Name: "takeover", Run: func(p *des.Proc) error {
			at = append(at, p.Now())
			return broken
		}},
	)
	var awaited error
	r.env.Spawn("waiter", func(p *des.Proc) {
		for r.rec == nil {
			p.Sleep(100 * time.Microsecond) // let setup finish wiring
		}
		awaited = r.rec.AwaitRestored(p, 20*time.Millisecond)
	})
	if err := r.env.RunUntil(des.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(at) != 9 { // initial try + 8 retries
		t.Fatalf("attempts = %d, want 9", len(at))
	}
	want := model.Default.RetryTimeout
	for i := 1; i < len(at); i++ {
		if gap := time.Duration(at[i].Sub(at[i-1])); gap != want {
			t.Errorf("gap before retry %d = %v, want %v", i, gap, want)
		}
		want = min(2*want, model.Default.RetryBackoffMax)
	}
	if last := time.Duration(at[8].Sub(at[7])); last != model.Default.RetryBackoffMax {
		t.Fatalf("last gap %v, want the %v cap", last, model.Default.RetryBackoffMax)
	}
	if r.rec.Restored() {
		t.Fatal("coordinator restored despite a permanently failing step")
	}
	if !errors.Is(awaited, rmem.ErrTimeout) {
		t.Fatalf("AwaitRestored = %v, want ErrTimeout", awaited)
	}
	if len(r.m1.Node.Faults) == 0 {
		t.Fatal("give-up not recorded in node faults")
	}
}
