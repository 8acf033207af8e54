// Command bench is the repository benchmark: open-loop workloads measured
// end to end on two clocks, plus a traced run for per-layer numbers.
//
// Virtual-time metrics (latency, SLO attainment, goodput) are the modelled
// system's and repeat exactly for a seed. Host-time metrics (the
// simulator's wall clock, set-up time and memory) are noisy and reported
// as medians. A run of a workload is several sub-runs under seeds derived
// from -seed; each sub-run's set-up runs and its measured run get fresh
// processes (the bench re-execs itself), and the sub-runs of several
// workloads are interleaved, so a slow period on a shared machine hits
// every workload alike.
//
// Usage, from the repository root (README.md has the details):
//
//	bash bench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --reps 5 --trace 1 --trace-dir traces --out report.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"netmem/internal/workload"
)

func main() {
	name := flag.String("workload", "", "workload to run, a comma-separated list, or all")
	seed := flag.Int64("seed", 1, "workload seed (1 is the default, 7 the holdout)")
	seconds := flag.Float64("seconds", 10, "keep adding rounds until this many seconds per workload have passed")
	reps := flag.Int("reps", 1, "minimum number of rounds (one untraced rep of every sub-run each)")
	trace := flag.Int("trace", 0, "1 adds a traced run per workload and reports per-layer metrics")
	traceDir := flag.String("trace-dir", "", "with -trace 1, write one Chrome trace per workload here")
	out := flag.String("out", "", "write the JSON report here")
	child := flag.String("child", "", "internal: run one setup, untraced or traced rep and print it as JSON")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *name, *seed, *traceDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	defs, err := selectWorkloads(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err == nil && *reps < 1 {
		err = fmt.Errorf("-reps must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	s := newSet(*seed, defs)
	s.minReps, s.traced, s.traceDir = *reps, *trace == 1, *traceDir
	s.budget = time.Duration(*seconds * float64(time.Second) * float64(len(defs)))
	if err := s.measure(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !s.report(*out) {
		os.Exit(1)
	}
}

func selectWorkloads(list string) ([]*workloadDef, error) {
	if list == "all" {
		return workloads, nil
	}
	var defs []*workloadDef
	for _, n := range strings.Split(list, ",") {
		d := findWorkload(n)
		if d == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (want %s, or all)", n, strings.Join(names, ", "))
		}
		defs = append(defs, d)
	}
	return defs, nil
}

// ---------------------------------------------------------------------------
// Child side: one rep in a fresh process.

// setupRep is one process's set-up runs. Set-up time is the same config
// with a 1 ms window: topology build, tree warm-up, chain attach and
// convergence, and a handful of ops. It is repeated until minSetups runs
// and setupBudget of wall time have passed, so a 30 ms set-up is timed as
// steadily as a 150 ms one. Set-up runs get a process of their own because
// RunOpenLoop never stops its daemon procs: each run's simulation stays
// reachable, and would inflate the measured run's memory and GC work.
type setupRep struct {
	SetupS []float64 `json:"setup_s"`
}

const (
	minSetups   = 3
	setupBudget = 500 * time.Millisecond
	setupWindow = time.Millisecond
)

// untracedRep is one timed workload.RunOpenLoop call in a fresh process.
type untracedRep struct {
	HostS     float64                  `json:"host_s"`
	Result    *workload.OpenLoopResult `json:"result"`
	PeakRSSMB float64                  `json:"-"` // the process's ru_maxrss, read by the parent
}

// tracedRep is one run through the rig with spans and a CPU profile.
type tracedRep struct {
	HostS         float64                  `json:"host_s"`
	Result        *workload.OpenLoopResult `json:"result"`
	Layers        []metric                 `json:"layers"`
	HostShares    map[string]float64       `json:"host_shares"`
	DispatchLagMs float64                  `json:"dispatch_lag_ms"`
	Errors        []string                 `json:"errors"`
}

func runChild(mode, name string, seed int64, traceDir string) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := def.cfg(seed)
	var v any
	var err error
	switch mode {
	case "setup":
		v, err = setups(cfg)
	case "untraced":
		v, err = untraced(cfg)
	case "traced":
		v, err = traced(cfg, name, traceDir)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

func setups(cfg workload.OpenLoopConfig) (*setupRep, error) {
	cfg.Window = setupWindow
	rep := &setupRep{}
	var first []byte
	var total time.Duration
	for len(rep.SetupS) < minSetups || total < setupBudget {
		t0 := time.Now()
		res, err := workload.RunOpenLoop(cfg)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up run: %w", err)
		}
		total += d
		rep.SetupS = append(rep.SetupS, d.Seconds())
		// Every set-up run is the same seeded config: a cheap determinism
		// check on every sub-run, whatever its window.
		b, _ := json.Marshal(res)
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			return nil, fmt.Errorf("set-up run %d differs from the first: the simulation is not deterministic", len(rep.SetupS))
		}
	}
	return rep, nil
}

func untraced(cfg workload.OpenLoopConfig) (*untracedRep, error) {
	t0 := time.Now()
	res, err := workload.RunOpenLoop(cfg)
	if err != nil {
		return nil, err
	}
	return &untracedRep{HostS: time.Since(t0).Seconds(), Result: res}, nil
}

func traced(cfg workload.OpenLoopConfig, name, traceDir string) (*tracedRep, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t0 := time.Now()
	r, err := runRig(cfg)
	host := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	rep := &tracedRep{
		HostS:         host,
		Result:        r.res,
		Layers:        r.layerMetrics(),
		HostShares:    hostShares(samples),
		DispatchLagMs: ms(int64(r.dispatchLag)),
		Errors:        r.errs,
	}
	if traceDir != "" {
		if err := r.tr.writeChrome(filepath.Join(traceDir, name+".trace.json"), name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
