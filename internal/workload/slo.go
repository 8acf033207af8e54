package workload

import (
	"fmt"
	"time"

	"netmem/internal/faults"
)

// The SLO sweep: the open-loop engine swept over arrival shape × key skew
// at a fixed client population, emitting one machine-readable document
// (BENCH_SLO.json) that later scaling PRs are judged against.

// SLOSweepConfig parameterizes RunSLOSweep. Every point serves 100k
// simulated clients for a 1 s window on the 4-shard + 3-replica tier with
// 5‰ stragglers, over all three shapes × key skew {0, 0.9, 1.2}.
type SLOSweepConfig struct {
	// Seed pins the whole sweep (default 1).
	Seed int64
	// Campaign, when set, runs every point under the fault schedule.
	Campaign *faults.Campaign
}

// The tier and load every grid point runs.
const (
	sloClients    = 100_000
	sloWindow     = time.Second
	sloShards     = 4
	sloReplicas   = 3
	sloStragglers = 5 // per mille
)

// BenchSLOSchema identifies the BENCH_SLO.json layout.
const BenchSLOSchema = "netmem/bench_slo/v1"

// BenchSLO is the sweep document.
type BenchSLO struct {
	Schema   string            `json:"schema"`
	Seed     int64             `json:"seed"`
	Clients  int               `json:"clients"`
	Shards   int               `json:"shards"`
	Replicas int               `json:"replicas"`
	WindowMs float64           `json:"window_ms"`
	Points   []*OpenLoopResult `json:"points"`
}

// points returns the filled OpenLoopConfig of every grid cell, shape-major.
func (c SLOSweepConfig) points() []OpenLoopConfig {
	var pts []OpenLoopConfig
	for _, shape := range []Shape{ShapeSteady, ShapeDiurnal, ShapeFlash} {
		for _, theta := range []float64{0, 0.9, 1.2} {
			pt := OpenLoopConfig{
				Clients:           sloClients,
				Window:            sloWindow,
				Shape:             shape,
				ZipfTheta:         theta,
				Shards:            sloShards,
				Replicas:          sloReplicas,
				StragglerPerMille: sloStragglers,
				Seed:              c.Seed,
				Campaign:          c.Campaign,
			}
			pt.Fill()
			pts = append(pts, pt)
		}
	}
	return pts
}

// RunSLOSweep measures every (shape, theta) grid cell.
func RunSLOSweep(cfg SLOSweepConfig) (*BenchSLO, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	doc := &BenchSLO{
		Schema:   BenchSLOSchema,
		Seed:     cfg.Seed,
		Clients:  sloClients,
		Shards:   sloShards,
		Replicas: sloReplicas,
		WindowMs: float64(sloWindow) / 1e6,
	}
	for _, pt := range cfg.points() {
		res, err := RunOpenLoop(pt)
		if err != nil {
			return nil, fmt.Errorf("workload: slo point shape=%v theta=%.2f: %w", pt.Shape, pt.ZipfTheta, err)
		}
		doc.Points = append(doc.Points, res)
	}
	return doc, nil
}

// SLOGate is one PASS/FAIL verdict over a sweep point.
type SLOGate struct {
	Point  string
	Pass   bool
	Detail string
}

// attainFloor is the minimum total SLO attainment a healthy system clears
// per shape: steady and diurnal stay inside capacity end to end, while a
// flash crowd is *designed* to overload the lanes — its floor only proves
// the system kept serving rather than collapsing.
func attainFloor(shape string) float64 {
	if shape == "flash" {
		return 0.20
	}
	return 0.90
}

// GateSLO renders verdicts for a sweep document: every point must drain
// (no failed ops without a campaign), clear its shape's attainment floor,
// and keep inter-tenant fairness above 0.80.
func GateSLO(doc *BenchSLO) []SLOGate {
	var gates []SLOGate
	for _, pt := range doc.Points {
		name := fmt.Sprintf("%s/theta=%.1f", pt.Shape, pt.ZipfTheta)
		floor := attainFloor(pt.Shape)
		switch {
		case pt.Campaign == "" && pt.Report.Total.Failed > 0:
			gates = append(gates, SLOGate{name, false,
				fmt.Sprintf("%d ops failed on a fault-free run", pt.Report.Total.Failed)})
		case pt.Report.Total.Attainment < floor:
			gates = append(gates, SLOGate{name, false,
				fmt.Sprintf("attainment %.3f below %.2f floor", pt.Report.Total.Attainment, floor)})
		case pt.Report.Fairness < 0.80:
			gates = append(gates, SLOGate{name, false,
				fmt.Sprintf("fairness %.3f below 0.80", pt.Report.Fairness)})
		default:
			gates = append(gates, SLOGate{name, true,
				fmt.Sprintf("attainment %.3f fairness %.3f", pt.Report.Total.Attainment, pt.Report.Fairness)})
		}
	}
	return gates
}
