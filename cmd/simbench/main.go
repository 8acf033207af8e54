// Command simbench is the reproducible wall-clock benchmark suite for the
// simulator fast path. It runs the heaviest workloads in the repository —
// the mixed chaos campaign, the six-client scale experiment, and the
// open-loop smoke point on the replica-chain tier — several times each,
// takes the best wall-clock rep (least scheduler noise), and emits a JSON
// report (BENCH_PR4.json in CI).
//
// Each leg also records its goroutine hand-offs (des.Env.Handoffs): process
// resumptions that switch goroutines, the dominant host cost of the event
// loop. The count is deterministic, so it is gated exactly. And it records
// its heap allocations (the runtime.MemStats.Mallocs delta over the rep),
// which repeat to within a fraction of a percent for a given toolchain.
//
// With -baseline, it compares the events/sec of the gated legs (the mixed
// campaign and the chain tier) against a previously committed report and
// exits nonzero when either regressed more than -gate percent, when any
// leg makes more hand-offs than the baseline records, or when any leg
// allocates more than mallocMargin above its baseline — the CI regression
// gate for the fast path.
//
// Usage:
//
//	go run ./cmd/simbench -out BENCH_PR4.json
//	go run ./cmd/simbench -out BENCH_PR4.json -baseline BENCH_BASELINE.json -gate 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"netmem/internal/consensus"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/workload"
)

// Result is one benchmark's best-of-reps measurement.
type Result struct {
	Name         string  `json:"name"`
	Reps         int     `json:"reps"`
	WallSeconds  float64 `json:"wall_seconds"` // best rep
	Events       uint64  `json:"events"`       // simulator events in one rep
	Handoffs     uint64  `json:"handoffs"`     // goroutine hand-offs in one rep, over every Env it runs
	Mallocs      uint64  `json:"mallocs"`      // heap allocations in one rep
	EventsPerSec float64 `json:"events_per_sec"`
}

// Report is the emitted JSON document.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
}

// Benchmark names; gatedNames are the ones the -baseline gate applies to.
// chain-steady is the leg that runs replica read chains under load, so it
// is the one that catches a chain pusher that goes back to rescanning
// memory; mixed-chaos runs only a one-member standby chain.
const (
	mixedChaosName  = "mixed-chaos"
	chainSteadyName = "chain-steady"
)

var gatedNames = []string{mixedChaosName, chainSteadyName}

// mallocMargin is how far above its baseline a leg's allocation count may
// rise before the gate fails: room for run-to-run and toolchain drift, far
// below the doubling a per-cell or per-event allocation brings back.
const mallocMargin = 0.10

func main() {
	out := flag.String("out", "BENCH_PR4.json", "write the JSON report here ('-' for stdout only)")
	reps := flag.Int("reps", 3, "repetitions per benchmark; the best wall-clock rep is reported")
	baseline := flag.String("baseline", "", "compare against this committed report")
	gate := flag.Float64("gate", 20, "fail if a gated leg's events/sec regresses more than this percent vs -baseline")
	flag.Parse()

	benches := []struct {
		name string
		run  func() (uint64, error)
	}{
		{mixedChaosName, runMixedChaos},
		{"scale6-dx", func() (uint64, error) { return runScale6(dfs.DX) }},
		{"scale6-hy", func() (uint64, error) { return runScale6(dfs.HY) }},
		{"cas-contend", runCASContend},
		{chainSteadyName, runChainSteady},
	}

	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, bm := range benches {
		res := Result{Name: bm.name, Reps: *reps}
		for r := 0; r < *reps; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			h0 := des.TotalHandoffs()
			start := time.Now()
			events, err := bm.run()
			wall := time.Since(start).Seconds()
			handoffs := des.TotalHandoffs() - h0
			runtime.ReadMemStats(&m1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", bm.name, err)
				os.Exit(1)
			}
			if r == 0 || wall < res.WallSeconds {
				res.WallSeconds = wall
				res.Events = events
				res.Handoffs = handoffs
				res.Mallocs = m1.Mallocs - m0.Mallocs
			}
		}
		res.EventsPerSec = float64(res.Events) / res.WallSeconds
		fmt.Printf("%-12s %d reps  best %8.3fs  %9d events  %8d handoffs  %9d mallocs  %12.0f events/sec\n",
			res.Name, res.Reps, res.WallSeconds, res.Events, res.Handoffs, res.Mallocs, res.EventsPerSec)
		rep.Benchmarks = append(rep.Benchmarks, res)
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: marshal: %v\n", err)
		os.Exit(1)
	}
	js = append(js, '\n')
	if *out != "-" {
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		os.Stdout.Write(js)
	}

	if *baseline != "" {
		if err := checkGate(rep, *baseline, *gate); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: REGRESSION GATE: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate passed (within %.0f%% of %s, no leg above its hand-offs or %.0f%% above its mallocs)\n",
			*gate, *baseline, mallocMargin*100)
	}
}

// runMixedChaos runs the full mixed campaign (loss + corruption + dup +
// reorder + crash/failover) once and returns the simulator event count.
func runMixedChaos() (uint64, error) {
	camp, ok := faults.Named("mixed")
	if !ok {
		return 0, fmt.Errorf("mixed campaign not registered")
	}
	res, err := dfs.RunChaos(dfs.ChaosConfig{Campaign: camp, Seed: 1, Mode: dfs.DX})
	if err != nil {
		return 0, err
	}
	if res.Completed != len(res.Ops) {
		return 0, fmt.Errorf("goodput %d/%d — campaign result wrong, refusing to time it", res.Completed, len(res.Ops))
	}
	return res.Events, nil
}

// runScale6 runs the six-client closed-loop mix once in the given mode.
func runScale6(mode dfs.Mode) (uint64, error) {
	pt, err := workload.RunScale(workload.ScaleConfig{
		Clients: 6, Mode: mode, Window: time.Second})
	if err != nil {
		return 0, err
	}
	if pt.OpsDone == 0 {
		return 0, fmt.Errorf("no operations completed")
	}
	return pt.Events, nil
}

// runCASContend runs the consensus CAS-contention scramble — eight clerks
// hammering one acceptor word with one-sided CAS — once. RunCASBench
// self-validates (exact final count, zero acceptor agreement CPU), so a
// wrong result fails the bench instead of being timed.
func runCASContend() (uint64, error) {
	res, err := consensus.RunCASBench(consensus.CASBenchConfig{
		Clerks: 8, WinsPerClerk: 200, Seed: 1})
	if err != nil {
		return 0, err
	}
	return res.Events, nil
}

// runChainSteady runs the open-loop smoke point once: 100k clients at
// 0.05 ops/s each, steady shape, Zipf θ=0.9, for 500 ms of virtual time on
// four shards with three-member replica chains (fsbench -slo-smoke). A
// failed op means the result is wrong, so it is not timed.
func runChainSteady() (uint64, error) {
	cfg := workload.OpenLoopConfig{
		Clients:           100_000,
		RatePerClient:     0.05,
		Window:            500 * time.Millisecond,
		Shape:             workload.ShapeSteady,
		ZipfTheta:         0.9,
		Shards:            4,
		Replicas:          3,
		StragglerPerMille: 5,
		Seed:              1,
	}
	res, err := workload.RunOpenLoop(cfg)
	if err != nil {
		return 0, err
	}
	tot := res.Report.Total
	if tot.Failed != 0 || tot.Ops == 0 {
		return 0, fmt.Errorf("%d of %d ops failed — open-loop result wrong, refusing to time it", tot.Failed, tot.Ops)
	}
	return res.Events, nil
}

// checkGate fails when a gated leg's events/sec fell more than pct percent
// below the committed baseline report, or when any leg made more hand-offs
// than the baseline records for it or allocated more than mallocMargin
// above the baseline's count.
func checkGate(cur Report, baselinePath string, pct float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	find := func(rep Report, name string) (Result, bool) {
		for _, r := range rep.Benchmarks {
			if r.Name == name {
				return r, true
			}
		}
		return Result{}, false
	}
	for _, name := range gatedNames {
		b, ok := find(base, name)
		if !ok {
			return fmt.Errorf("baseline has no %q entry", name)
		}
		c, ok := find(cur, name)
		if !ok {
			return fmt.Errorf("current run has no %q entry", name)
		}
		floor := b.EventsPerSec * (1 - pct/100)
		if c.EventsPerSec < floor {
			return fmt.Errorf("%s: %.0f events/sec is %.1f%% below baseline %.0f (floor %.0f)",
				name, c.EventsPerSec,
				(1-c.EventsPerSec/b.EventsPerSec)*100, b.EventsPerSec, floor)
		}
	}
	for _, c := range cur.Benchmarks {
		b, ok := find(base, c.Name)
		if !ok {
			return fmt.Errorf("baseline has no %q entry", c.Name)
		}
		if c.Handoffs > b.Handoffs {
			return fmt.Errorf("%s: %d hand-offs exceed baseline %d", c.Name, c.Handoffs, b.Handoffs)
		}
		if ceil := float64(b.Mallocs) * (1 + mallocMargin); float64(c.Mallocs) > ceil {
			return fmt.Errorf("%s: %d mallocs exceed baseline %d by more than %.0f%%",
				c.Name, c.Mallocs, b.Mallocs, mallocMargin*100)
		}
	}
	return nil
}
