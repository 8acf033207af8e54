package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"

	"netmem/internal/des"
)

// smallOpenLoop is the test-sized config: enough arrivals for the
// statistics, small enough to run in milliseconds of wall time.
func smallOpenLoop(shape Shape, theta float64) OpenLoopConfig {
	return OpenLoopConfig{
		Clients:       10_000,
		RatePerClient: 0.2,
		Window:        500 * time.Millisecond,
		Shape:         shape,
		ZipfTheta:     theta,
		Shards:        2,
		Replicas:      0,
		Lanes:         4,
		Seed:          7,
	}
}

// drain pulls every arrival out of a schedule.
func drain(s *Schedule) []Arrival {
	var out []Arrival
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// TestScheduleDeterministic: the same seed yields the identical arrival
// stream, op for op; a different seed yields a different one.
func TestScheduleDeterministic(t *testing.T) {
	cfg := smallOpenLoop(ShapeDiurnal, 0.9)
	cfg.Fill()
	a := drain(NewSchedule(cfg, 64, 8))
	b := drain(NewSchedule(cfg, 64, 8))
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 8
	c := drain(NewSchedule(cfg, 64, 8))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical stream")
	}
}

// TestScheduleMonotoneInWindow: arrival times never go backward and stay
// inside the window, for every shape.
func TestScheduleMonotoneInWindow(t *testing.T) {
	for _, shape := range []Shape{ShapeSteady, ShapeDiurnal, ShapeFlash} {
		cfg := smallOpenLoop(shape, 0.9)
		cfg.Fill()
		prev := time.Duration(-1)
		for i, a := range drain(NewSchedule(cfg, 64, 8)) {
			if a.At < prev {
				t.Fatalf("%v: arrival %d out of order: %v after %v", shape, i, a.At, prev)
			}
			prev = a.At
			if a.At < 0 || a.At >= cfg.Window {
				t.Fatalf("%v: arrival %d outside window: %v", shape, i, a.At)
			}
			if a.Client < 0 || a.Client >= cfg.Clients {
				t.Fatalf("%v: client %d out of range", shape, a.Client)
			}
			if a.Tenant < 0 || a.Tenant >= len(cfg.Tenants) {
				t.Fatalf("%v: tenant %d out of range", shape, a.Tenant)
			}
		}
	}
}

// TestScheduleZipfMatchesTheta: the empirical key-frequency distribution
// of the generated stream matches the configured Zipf exponent within
// tolerance, at both the uniform and the skewed end.
func TestScheduleZipfMatchesTheta(t *testing.T) {
	const files = 32
	for _, theta := range []float64{0, 0.9, 1.2} {
		cfg := smallOpenLoop(ShapeSteady, theta)
		cfg.Clients = 100_000 // ~100k arrivals for tight frequencies
		cfg.RatePerClient = 1
		cfg.Window = time.Second
		cfg.Fill()
		z := NewZipf(files, theta)
		counts := make([]int64, files)
		var n int64
		for _, a := range drain(NewSchedule(cfg, files, 8)) {
			counts[a.Op.File]++
			n++
		}
		if n < 50_000 {
			t.Fatalf("theta=%.1f: only %d arrivals", theta, n)
		}
		for k := 0; k < files; k++ {
			want := z.Prob(k)
			got := float64(counts[k]) / float64(n)
			// Absolute tolerance: 1% plus 20% relative on the expected mass.
			if math.Abs(got-want) > 0.01+0.2*want {
				t.Errorf("theta=%.1f rank %d: frequency %.4f, want %.4f", theta, k, got, want)
			}
		}
		if theta > 0 && float64(counts[0]) <= float64(counts[files-1]) {
			t.Errorf("theta=%.1f: hottest rank not hotter than coldest (%d vs %d)",
				theta, counts[0], counts[files-1])
		}
	}
}

// TestShapeFlashBurst: the flash shape concentrates arrivals in the burst
// window — its arrival density there must be several times the baseline.
func TestShapeFlashBurst(t *testing.T) {
	cfg := smallOpenLoop(ShapeFlash, 0)
	cfg.Clients = 50_000
	cfg.RatePerClient = 1
	cfg.Window = time.Second
	cfg.Fill()
	var burst, rest int
	for _, a := range drain(NewSchedule(cfg, 64, 8)) {
		frac := float64(a.At) / float64(cfg.Window)
		if frac >= 0.45 && frac < 0.60 {
			burst++
		} else {
			rest++
		}
	}
	// Burst density: burst/0.15 vs rest/0.85; the shape ratio is 4.0/0.5 = 8.
	burstRate := float64(burst) / 0.15
	restRate := float64(rest) / 0.85
	if ratio := burstRate / restRate; ratio < 6 || ratio > 10 {
		t.Fatalf("flash burst density ratio %.2f, want ~8", ratio)
	}
}

// TestOpenLoopDeterministic: two identical small end-to-end runs produce
// byte-identical reports — the property the CI golden diff depends on.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := RunOpenLoop(smallOpenLoop(ShapeSteady, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Offered == 0 || res.Report.Total.Ops == 0 {
			t.Fatalf("degenerate run: %s", b)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("identical configs diverged:\n%s\n%s", a, b)
	}
}

// TestRunOpenLoopTearsDown: a run on the chain tier leaves no goroutine
// behind, and its Env, with the whole simulation, can be collected.
func TestRunOpenLoopTearsDown(t *testing.T) {
	before := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		env := des.NewEnv()
		runtime.SetFinalizer(env, func(*des.Env) { close(collected) })
		cfg := smallOpenLoop(ShapeSteady, 0.9)
		cfg.Replicas = 2
		cfg.Window = 50 * time.Millisecond
		res, err := runOpenLoop(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Total.Ops == 0 {
			t.Fatal("no op completed")
		}
	}()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 5000 {
			t.Fatalf("%d goroutines remain after RunOpenLoop, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("the run's Env was not collected")
		}
	}
}

// TestOpenLoopBackpressure: starving the lane pool under the same offered
// load must shed arrivals at the bounded FIFO and inflate tail latency —
// the backpressure accounting the engine exists to surface.
func TestOpenLoopBackpressure(t *testing.T) {
	cfg := smallOpenLoop(ShapeFlash, 0.9)
	cfg.Lanes = 1
	cfg.MaxQueue = 32
	cfg.StragglerPerMille = 20
	res, err := RunOpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Errorf("1-lane flash crowd with a 32-deep FIFO shed nothing (offered %d, peak queue %d)",
			res.Offered, res.PeakQueue)
	}
	if res.Report.Total.Shed != res.Shed {
		t.Errorf("shed mismatch: result %d, report %d", res.Shed, res.Report.Total.Shed)
	}
	// The same starved pool behind a deep FIFO: nothing sheds, so the
	// backlog turns into queueing delay instead — deeper queue, fatter
	// tail. Shedding trades completed ops for a bounded tail.
	deep := cfg
	deep.MaxQueue = 1 << 20
	dres, err := RunOpenLoop(deep)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Shed != 0 {
		t.Errorf("unbounded FIFO shed %d arrivals", dres.Shed)
	}
	if dres.PeakQueue <= res.PeakQueue {
		t.Errorf("deep FIFO peaked at %d, not above the bounded %d", dres.PeakQueue, res.PeakQueue)
	}
	if dres.Report.Total.P99Ms <= res.Report.Total.P99Ms {
		t.Errorf("deep FIFO p99 %.2fms not above shedding p99 %.2fms",
			dres.Report.Total.P99Ms, res.Report.Total.P99Ms)
	}
}

// TestOpenLoopStragglers: straggler injection shows up in the count and
// the sum of op latencies.
func TestOpenLoopStragglers(t *testing.T) {
	cfg := smallOpenLoop(ShapeSteady, 0)
	cfg.StragglerPerMille = 50
	res, err := RunOpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stragglers == 0 {
		t.Fatalf("50‰ straggler rate injected none over %d ops", res.Offered)
	}
}
