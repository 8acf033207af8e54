package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"netmem/internal/workload"
)

// A run of a workload is subRuns sub-runs: the same config under seeds
// derived from the run's seed. Under load this system's tail moves between
// regimes that persist for a whole window (which lanes hold which tokens,
// when a write starves), so independent seeds steady a run's virtual
// metrics faster than one longer window does. A run reports the median over
// its sub-runs.
const subRuns = 2

// subSeed derives sub-run i's seed; sub-run 0 runs the run's own seed.
func subSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

type subRun struct {
	seed   int64
	setups []*setupRep    // one per round
	reps   []*untracedRep // one per round
}

type wlRun struct {
	def    *workloadDef
	subs   []*subRun
	traced *tracedRep // sub-run 0 through the rig
	// maxRate is the capacity ladder's result (steady, in full sets only).
	maxRate float64
}

type set struct {
	seed     int64
	minReps  int
	traced   bool
	traceDir string
	budget   time.Duration
	runs     []*wlRun
	elapsed  time.Duration
}

func newSet(seed int64, defs []*workloadDef) *set {
	s := &set{seed: seed}
	for _, d := range defs {
		w := &wlRun{def: d}
		for i := 0; i < subRuns; i++ {
			w.subs = append(w.subs, &subRun{seed: subSeed(seed, i)})
		}
		s.runs = append(s.runs, w)
	}
	return s
}

// measure runs rounds, each a set-up process and an untraced rep of every
// sub-run of every workload, interleaved, until both the minimum rep count
// and the time budget are met; then the capacity ladder and the traced runs.
func (s *set) measure() error {
	started := time.Now()
	for round := 0; round < s.minReps || time.Since(started) < s.budget; round++ {
		for _, w := range s.runs {
			for _, sr := range w.subs {
				setup := &setupRep{}
				if _, err := s.child(w.def.name, sr.seed, "setup", setup); err != nil {
					return err
				}
				sr.setups = append(sr.setups, setup)
				rep := &untracedRep{}
				ps, err := s.child(w.def.name, sr.seed, "untraced", rep)
				if err != nil {
					return err
				}
				if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
					rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux
				}
				sr.reps = append(sr.reps, rep)
			}
		}
	}
	if len(s.runs) == len(workloads) {
		if err := s.ladder(); err != nil {
			return err
		}
	}
	if s.traced {
		for _, w := range s.runs {
			w.traced = &tracedRep{}
			if _, err := s.child(w.def.name, w.subs[0].seed, "traced", w.traced); err != nil {
				return err
			}
		}
	}
	s.elapsed = time.Since(started)
	return nil
}

// child re-execs this binary for one rep and decodes its JSON line.
func (s *set) child(name string, seed int64, mode string, v any) (*os.ProcessState, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", mode, "-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	if mode == "traced" && s.traceDir != "" {
		args = append(args, "-trace-dir", s.traceDir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d %s rep: %w", name, seed, mode, err)
	}
	if err := json.Unmarshal(out, v); err != nil {
		return nil, fmt.Errorf("%s seed %d %s rep: %w", name, seed, mode, err)
	}
	return cmd.ProcessState, nil
}

// The capacity ladder is the steady config at a 1 s window over ascending
// offered rates; it stops at the first rung whose p99 exceeds the limit or
// that sheds, and reports the highest passing rate. Virtual time only, so
// it runs once per full set, in this process.
var ladderRates = []float64{5000, 6250, 7500, 8750, 10000}

const ladderP99Ms = 10.0

func (s *set) ladder() error {
	var steady *wlRun
	for _, w := range s.runs {
		if w.def.name == "steady" {
			steady = w
		}
	}
	for _, rate := range ladderRates {
		cfg := steady.def.cfg(s.seed)
		cfg.Window = time.Second
		cfg.RatePerClient = rate / float64(cfg.Clients)
		res, err := workload.RunOpenLoop(cfg)
		if err != nil {
			return fmt.Errorf("ladder at %.0f ops/s: %w", rate, err)
		}
		if res.Report.Total.P99Ms > ladderP99Ms || res.Shed > 0 {
			break
		}
		steady.maxRate = rate
	}
	return nil
}

// ---------------------------------------------------------------------------
// Metrics and checks.

// quartiles summarizes host-time samples.
type quartiles struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		// Linear interpolation between closest ranks.
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return quartiles{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), Samples: xs}
}

// results returns each sub-run's virtual result (identical across rounds).
func (w *wlRun) results() []*workload.OpenLoopResult {
	out := make([]*workload.OpenLoopResult, len(w.subs))
	for i, sr := range w.subs {
		out[i] = sr.reps[0].Result
	}
	return out
}

// medianOf is the median over sub-runs of one virtual quantity.
func (w *wlRun) medianOf(f func(*workload.OpenLoopResult) float64) float64 {
	var xs []float64
	for _, r := range w.results() {
		xs = append(xs, f(r))
	}
	return summarize(xs).Median
}

// endToEnd returns a workload's end-to-end metrics: first the ones
// BENCHMARK.json bounds, in its order, then informational ones.
func (w *wlRun) endToEnd() (bounded, info []metric, host map[string]quartiles) {
	var hostS, setupS, rss []float64
	var offered, failed, shed int64
	for _, sr := range w.subs {
		for _, r := range sr.reps {
			hostS = append(hostS, r.HostS)
			rss = append(rss, r.PeakRSSMB)
		}
		for _, r := range sr.setups {
			setupS = append(setupS, r.SetupS...)
		}
		res := sr.reps[0].Result
		offered += res.Offered
		failed += res.Report.Total.Failed
		shed += res.Shed
	}
	host = map[string]quartiles{"host_s": summarize(hostS), "setup_s": summarize(setupS), "peak_rss_mb": summarize(rss)}
	tot := func(f func(workload.TenantReport) float64) float64 {
		return w.medianOf(func(r *workload.OpenLoopResult) float64 { return f(r.Report.Total) })
	}
	bounded = []metric{
		{"mean_ms", tot(func(t workload.TenantReport) float64 { return t.MeanMs }), "ms"},
		{"p99_ms", tot(func(t workload.TenantReport) float64 { return t.P99Ms }), "ms"},
		{"attainment", tot(func(t workload.TenantReport) float64 { return t.Attainment }), "ratio"},
		{"goodput_ops_s", tot(func(t workload.TenantReport) float64 { return t.GoodputOps }), "ops/s"},
		{"host_s", host["host_s"].Median, "s"},
		{"setup_s", host["setup_s"].Median, "s"},
		{"peak_rss_mb", host["peak_rss_mb"].Median, "MB"},
	}
	info = []metric{
		{"p50_ms", tot(func(t workload.TenantReport) float64 { return t.P50Ms }), "ms"},
		{"p999_ms", tot(func(t workload.TenantReport) float64 { return t.P999Ms }), "ms"},
		{"qwait_p99_ms", w.medianOf(func(r *workload.OpenLoopResult) float64 { return r.QWaitP99Ms }), "ms"},
		{"mean_shard_util", w.medianOf(func(r *workload.OpenLoopResult) float64 { return r.MeanShardUtil }), "ratio"},
		{"offered_ops", float64(offered), "count"},
		{"fail_ratio", float64(failed) / float64(offered), "ratio"},
		{"shed_ratio", float64(shed) / float64(offered), "ratio"},
	}
	for _, m := range bounded {
		if q, ok := host[m.Name]; ok {
			info = append(info, metric{m.Name + "_q1", q.Q1, m.Unit}, metric{m.Name + "_q3", q.Q3, m.Unit})
		}
	}
	if w.def.cfg(0).Campaign != nil {
		info = append(info, metric{"mttr_ms", w.medianOf(func(r *workload.OpenLoopResult) float64 { return r.MTTRMs }), "ms"})
	}
	if w.maxRate > 0 {
		info = append(info, metric{"max_rate_ops_s", w.maxRate, "ops/s"})
	}
	return bounded, info, host
}

// perLayer returns the traced run's per-layer metrics, its host shares,
// and the two host ratios that need sub-run 0's untraced reps.
func (w *wlRun) perLayer() []metric {
	t := w.traced
	var hostS []float64
	for _, r := range w.subs[0].reps {
		hostS = append(hostS, r.HostS)
	}
	untraced := summarize(hostS).Median
	out := append([]metric(nil), t.Layers...)
	out = append(out, metric{"des.events_per_host_s", float64(t.Result.Events) / untraced, "1/s"})
	for _, m := range hostModules {
		out = append(out, metric{"host." + m + ".share", t.HostShares[m], "ratio"})
	}
	return append(out, metric{"host.trace_overhead", t.HostS/untraced - 1, "ratio"})
}

// check returns every failed correctness check of a workload.
func (w *wlRun) check() []string {
	var bad []string
	for _, sr := range w.subs {
		first, _ := json.Marshal(sr.reps[0].Result)
		for i, r := range sr.reps[1:] {
			if b, _ := json.Marshal(r.Result); !bytes.Equal(b, first) {
				bad = append(bad, fmt.Sprintf("seed %d: rep %d's virtual results differ from rep 1's", sr.seed, i+2))
			}
		}
		res := sr.reps[0].Result
		if f := res.Report.Total.Failed; f > 0 && !w.def.fails {
			bad = append(bad, fmt.Sprintf("seed %d: %d ops failed", sr.seed, f))
		}
		if res.Shed > 0 && !w.def.sheds {
			bad = append(bad, fmt.Sprintf("seed %d: %d ops shed", sr.seed, res.Shed))
		}
		if res.Campaign != "" && (!res.FailedOver || res.MTTRMs <= 0) {
			bad = append(bad, fmt.Sprintf("seed %d: campaign %s ended with failed_over=%v mttr_ms=%v", sr.seed, res.Campaign, res.FailedOver, res.MTTRMs))
		}
	}
	if t := w.traced; t != nil {
		first, _ := json.Marshal(w.subs[0].reps[0].Result)
		if b, _ := json.Marshal(t.Result); !bytes.Equal(b, first) {
			bad = append(bad, "rig drifted: the traced run's virtual results or event count differ from RunOpenLoop's")
		}
		if t.DispatchLagMs != 0 {
			bad = append(bad, fmt.Sprintf("the generator ran %v ms behind its schedule", t.DispatchLagMs))
		}
	}
	return bad
}

// ---------------------------------------------------------------------------
// Output.

// jsonMetric is one entry of the final line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type wlReport struct {
	Name      string                     `json:"name"`
	Why       string                     `json:"why"`
	Config    workload.OpenLoopConfig    `json:"config"`
	Seeds     []int64                    `json:"seeds"`
	Reps      int                        `json:"reps"`
	EndToEnd  []metric                   `json:"end_to_end"`
	Info      []metric                   `json:"info"`
	Host      map[string]quartiles       `json:"host"`
	PerLayer  []metric                   `json:"per_layer,omitempty"`
	Results   []*workload.OpenLoopResult `json:"results"`
	Failures  []string                   `json:"failures,omitempty"`
	TraceFile string                     `json:"trace_file,omitempty"`
}

type fullReport struct {
	GoVersion  string     `json:"go_version"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Revision   string     `json:"revision"`
	Seed       int64      `json:"seed"`
	MinReps    int        `json:"min_reps"`
	Traced     bool       `json:"traced"`
	WallS      float64    `json:"wall_s"`
	Workloads  []wlReport `json:"workloads"`
}

// revision is the VCS revision the binary was built from, when known.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// report prints one line per metric, the JSON report when asked, and the
// final JSON line; it returns whether every check passed.
func (s *set) report(outPath string) bool {
	line := finalLine{Correct: true, Metrics: map[string]jsonMetric{}}
	full := fullReport{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: revision(),
		Seed: s.seed, MinReps: s.minReps, Traced: s.traced, WallS: s.elapsed.Seconds()}
	for _, w := range s.runs {
		bounded, info, host := w.endToEnd()
		wr := wlReport{Name: w.def.name, Why: w.def.why, Config: w.def.cfg(s.seed), Reps: len(w.subs[0].reps),
			EndToEnd: bounded, Info: info, Host: host, Results: w.results(), Failures: w.check()}
		for _, sr := range w.subs {
			wr.Seeds = append(wr.Seeds, sr.seed)
		}
		final := bounded
		printed := append(append([]metric(nil), bounded...), info...)
		if w.traced != nil {
			wr.PerLayer = w.perLayer()
			final = wr.PerLayer
			printed = append(printed, wr.PerLayer...)
			if s.traceDir != "" {
				wr.TraceFile = filepath.Join(s.traceDir, w.def.name+".trace.json")
			}
			for _, e := range w.traced.Errors {
				fmt.Fprintf(os.Stderr, "bench: %s: failed op: %s\n", w.def.name, e)
			}
		}
		for _, m := range printed {
			fmt.Printf("%s %s %v %s\n", w.def.name, m.Name, m.Value, m.Unit)
		}
		prefix := ""
		if len(s.runs) > 1 {
			prefix = w.def.name + "."
		}
		for _, m := range final {
			line.Metrics[prefix+m.Name] = jsonMetric{m.Value, m.Unit}
		}
		for _, sr := range w.subs {
			for _, r := range sr.reps {
				line.Attempted += r.Result.Offered
				line.Failed += r.Result.Report.Total.Failed
			}
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.def.name, f)
			line.Correct = false
		}
		full.Workloads = append(full.Workloads, wr)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			line.Correct = false
		}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
	return line.Correct
}
