package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"netmem/internal/des"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestProfileChargesDes profiles a des event loop in-test and checks the
// reader decodes the profile and charges most of its CPU time to des.
func TestProfileChargesDes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	// A thousand self-rescheduling timers keep the event heap busy while
	// the callbacks themselves do nothing.
	env := des.NewEnv()
	for i := 0; i < 1000; i++ {
		var tick func()
		step := des.Duration(i + 1)
		tick = func() { env.ScheduleFunc(env.Now().Add(step), tick) }
		env.ScheduleFunc(des.Time(i), tick)
	}
	start := time.Now()
	for horizon := des.Time(0); time.Since(start) < time.Second; {
		horizon = horizon.Add(des.Duration(time.Millisecond))
		if err := env.RunUntil(horizon); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 20 {
		t.Skipf("only %d samples in a second of CPU: profiler starved", len(samples))
	}
	shares := hostShares(samples)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	t.Logf("des share %.2f of %d samples", shares["des"], len(samples))
	if raceEnabled {
		t.Skip("the race detector's own frames hide the stacks")
	}
	if shares["des"] <= 0.5 {
		t.Fatalf("des share %.2f of %d samples, want the majority: %v", shares["des"], len(samples), shares)
	}
}

// TestModuleOf: a sample is charged to the innermost netmem frame on its
// stack; this program's own frames are "bench"; no netmem frame at all is
// "runtime".
func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memequal", "bytes.Equal", "netmem/internal/dfs.(*Server).chainPass", "netmem/internal/des.(*Env).loop"}, "dfs"},
		{[]string{"runtime.mallocgc", "main.(*tracer).begin", "netmem/internal/workload.(*Replayer).Apply"}, "bench"},
		{[]string{"netmem/internal/obs.(*Tracer).Span"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
