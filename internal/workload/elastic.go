package workload

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/shard"
)

// The elastic scaling experiment: a fixed client population runs the
// Table 1a mix non-stop while the shard fleet sweeps StartShards →
// PeakShards → StartShards one join or drain at a time. The claims under
// test are the elastic tier's: no operation fails across any cutover, tail
// latency stays bounded while keys migrate, the donor's CPU during a
// migration stays within a whisker of its serving-only baseline (the
// migration is plain one-sided rmem WRITEs — cheap sender PIO, no server
// procedure on either end), and key movement per transition stays near the
// consistent-hash ideal K/N.

// ElasticStep is one plateau of the sweep: the transition into it (zero
// values for the first step) plus the hold-window measurements at the
// target size.
type ElasticStep struct {
	Target int // live shards during this step's hold window

	// Transition measurements.
	CutoverMs       float64 // wall-clock of the ScaleTo call
	MigratedBuckets int64   // dirty buckets pushed donor→owner
	EvictedBuckets  int64   // clean moved residents evicted
	MovedKeys       int     // tree handles whose owner changed
	IdealMoved      float64 // consistent-hash ideal: K/max(old,new)
	DonorUtil       float64 // mean donor-node CPU during the cutover
	DonorBase       float64 // same nodes' mean util in the preceding hold window

	// Client-side measurements over the transition plus the hold window
	// (ops issued while keys migrate count against this plateau's tail).
	Ops      int64
	Failed   int64
	P99Ms    float64
	MeanUtil float64 // mean live-shard CPU during the hold
}

// ElasticResult is the whole sweep.
type ElasticResult struct {
	Mode       dfs.Mode
	TokenCache bool
	Keys       int // tree handles tracked for movement accounting
	Steps      []ElasticStep

	TotalOps    int64
	TotalFailed int64
	MaxP99Ms    float64
	// WorstDonorDelta is the one-sided worst case of (DonorUtil -
	// DonorBase) across transitions: how much busier migration made the
	// busiest donor than plain serving.
	WorstDonorDelta float64
	// MovedWorstRatio is the worst MovedKeys/IdealMoved across transitions.
	MovedWorstRatio float64
	Cutovers        int64
	MigratedTotal   int64
	Strays          int // divergence strays after the sweep (want 0)
	Repaired        int
	Events          uint64
}

// ElasticConfig parameterizes the sweep. Clients run the DX structure with
// the token cache on.
type ElasticConfig struct {
	StartShards int           // sweep start and end (default 2)
	PeakShards  int           // sweep apex (default 8)
	Clients     int           // fixed client population (default 8)
	Hold        time.Duration // plateau hold window (default 150ms)
	Seed        int64         // default 1
}

func (c *ElasticConfig) fill() {
	if c.StartShards <= 0 {
		c.StartShards = 2
	}
	if c.PeakShards <= c.StartShards {
		c.PeakShards = c.StartShards + 6
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Hold <= 0 {
		c.Hold = 150 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = loopSeed
	}
}

// RunElastic executes the sweep: shard slots on nodes 0..Peak-1 (only
// StartShards live at boot), clients on the nodes after.
func RunElastic(cfg ElasticConfig) (*ElasticResult, error) {
	cfg.fill()
	nodes := cfg.PeakShards + cfg.Clients
	leg := dfs.NewLeg(nil, cfg.Seed, nodes)
	cl := leg.Cluster
	var svc *shard.Service
	var mgr *shard.Manager
	var tree *Tree
	var clerks []*shard.Clerk
	err := leg.Setup("setup", 500*time.Millisecond, func(p *des.Proc) (err error) {
		svc = shard.NewService(p, leg.Mgrs[:cfg.StartShards], nodes, dfs.Geometry{})
		mgr = shard.NewManager(svc, leg.Mgrs[cfg.StartShards:cfg.PeakShards])
		if tree, err = BuildTreeOn(svc.Store, svc, loopDirs, loopPerDir); err != nil {
			return err
		}
		clerks = shardClerks(p, leg.Mgrs[cfg.PeakShards:], svc, true)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var keys []fstore.Handle
	keys = append(keys, tree.Files...)
	keys = append(keys, tree.Dirs...)
	keys = append(keys, tree.Links...)

	res := &ElasticResult{Mode: dfs.DX, TokenCache: true, Keys: len(keys)}
	// Failures do not stop the clients: they land in the plateau's
	// recorder, which the sweep swaps at each phase boundary.
	cs := startClients(leg.Env, clerks, tree, cfg.Seed, 0, false)

	// The sweep: StartShards → PeakShards → StartShards, one at a time.
	var sweep []int
	for s := cfg.StartShards; s <= cfg.PeakShards; s++ {
		sweep = append(sweep, s)
	}
	for s := cfg.PeakShards - 1; s >= cfg.StartShards; s-- {
		sweep = append(sweep, s)
	}

	var sweepErr error
	holdUtil := make(map[int]float64) // node → util in its last hold window
	leg.Env.Spawn("sweep", func(p *des.Proc) {
		defer func() { cs.stop = true }()
		for _, target := range sweep {
			var step ElasticStep
			step.Target = target
			// Swap the recorder in before the transition: ops issued while
			// keys migrate land in the plateau they cut over into, so the
			// plateau's tail includes migration-inflated latencies instead
			// of silently dropping them.
			cs.rec = NewRecorder()
			if target != svc.Size() {
				pre := svc.Ring.Clone()
				// Donors: on a join every pre-member pushes; on a drain only
				// the leaver does.
				var donors []int
				if target > svc.Size() {
					donors = pre.Members()
				}
				mig0, ev0 := svc.MigratedBuckets, svc.EvictedBuckets
				preNodes := make(map[int]int)
				for _, s := range pre.Members() {
					preNodes[s] = svc.NodeOf(s)
					cl.Nodes[svc.NodeOf(s)].ResetCPUAcct()
				}
				t0 := p.Now()
				if err := mgr.ScaleTo(p, target); err != nil {
					sweepErr = fmt.Errorf("scale to %d: %w", target, err)
					return
				}
				t1 := p.Now()
				if target < pre.Size() {
					for _, s := range pre.Members() {
						if svc.Shards[s] == nil {
							donors = append(donors, s)
						}
					}
				}
				step.CutoverMs = time.Duration(t1.Sub(t0)).Seconds() * 1000
				step.MigratedBuckets = svc.MigratedBuckets - mig0
				step.EvictedBuckets = svc.EvictedBuckets - ev0
				for _, s := range donors {
					node := preNodes[s]
					step.DonorUtil += cl.Nodes[node].CPU.Utilization(t0)
					step.DonorBase += holdUtil[node]
				}
				if len(donors) > 0 {
					step.DonorUtil /= float64(len(donors))
					step.DonorBase /= float64(len(donors))
				}
				for _, h := range keys {
					if pre.Owner(h.U64()) != svc.Ring.Owner(h.U64()) {
						step.MovedKeys++
					}
				}
				den := pre.Size()
				if svc.Size() > den {
					den = svc.Size()
				}
				step.IdealMoved = float64(len(keys)) / float64(den)
				if d := step.DonorUtil - step.DonorBase; d > res.WorstDonorDelta {
					res.WorstDonorDelta = d
				}
				if step.IdealMoved > 0 {
					if r := float64(step.MovedKeys) / step.IdealMoved; r > res.MovedWorstRatio {
						res.MovedWorstRatio = r
					}
				}
			}

			// Hold window at the target size.
			ring, _ := svc.Membership().Current()
			for _, s := range ring.Members() {
				cl.Nodes[svc.NodeOf(s)].ResetCPUAcct()
			}
			h0 := p.Now()
			p.Sleep(cfg.Hold)
			for _, s := range ring.Members() {
				u := cl.Nodes[svc.NodeOf(s)].CPU.Utilization(h0)
				holdUtil[svc.NodeOf(s)] = u
				step.MeanUtil += u
			}
			step.MeanUtil /= float64(ring.Size())
			st := &cs.rec.Tenants[0]
			step.Ops = st.Ops
			step.Failed = st.Failed
			step.P99Ms = ms(st.Lat.P99())
			res.TotalOps += step.Ops
			res.TotalFailed += step.Failed
			if step.P99Ms > res.MaxP99Ms {
				res.MaxP99Ms = step.P99Ms
			}
			res.Steps = append(res.Steps, step)
		}
		strays, repaired, err := svc.CheckDivergence(p)
		if err != nil {
			sweepErr = fmt.Errorf("divergence check: %w", err)
			return
		}
		res.Strays, res.Repaired = strays, repaired
	})

	horizon := des.Time(time.Duration(len(sweep)+2) * (cfg.Hold + time.Second))
	if err := leg.Env.RunUntil(horizon); err != nil {
		return nil, err
	}
	if sweepErr != nil {
		return nil, sweepErr
	}
	res.Cutovers = svc.Cutovers
	res.MigratedTotal = svc.MigratedBuckets
	res.Events = leg.Env.Events()
	return res, nil
}
