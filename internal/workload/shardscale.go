package workload

import (
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/shard"
)

// The sharded scaling experiment: partitioning the namespace across N
// servers by consistent hashing should let aggregate throughput grow with
// N while each shard's CPU occupancy stays near the single-server
// baseline — the load is divided, not replicated. Clients scale
// proportionally with shards (ClientsPerShard each), so every point
// presents each shard with roughly the single-shard workload.

// ShardScalePoint is one (mode, shard-count) measurement.
type ShardScalePoint struct {
	Mode      dfs.Mode
	Shards    int
	Clients   int
	OpsDone   int64
	OpsPerSec float64
	ShardUtil []float64 // per-shard-node CPU utilization during the window
	MeanUtil  float64   // mean of ShardUtil
	MeanLatMs float64
	P99Ms     float64 // p99 per-operation latency, milliseconds
	TokenHits int64   // reads served from the token-coherent cache
	Events    uint64
}

// ShardScaleConfig parameterizes the experiment.
type ShardScaleConfig struct {
	Shards          int
	ClientsPerShard int
	Mode            dfs.Mode
	TokenCache      bool // layer the token-coherent client block cache
	Window          time.Duration
	ThinkTime       time.Duration
	Seed            int64
	Dirs            int
	PerDir          int
}

func (c *ShardScaleConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ClientsPerShard <= 0 {
		c.ClientsPerShard = 4
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
	loopDefaults(&c.ThinkTime, &c.Seed, &c.Dirs, &c.PerDir)
}

// RunShardScale executes one sharded scalability measurement: shard nodes
// 0..S-1, client nodes S..S+C-1, C = S * ClientsPerShard.
func RunShardScale(cfg ShardScaleConfig) (ShardScalePoint, error) {
	cfg.fill()
	clients := cfg.Shards * cfg.ClientsPerShard
	nodes := cfg.Shards + clients
	leg := dfs.NewLeg(nil, 0, nodes)
	var tree *Tree
	var clerks []*shard.Clerk
	err := leg.Setup("setup", 500*time.Millisecond, func(p *des.Proc) (err error) {
		svc := shard.NewService(p, leg.Mgrs[:cfg.Shards], nodes, dfs.Geometry{})
		if tree, err = BuildTreeOn(svc.Store, svc, cfg.Dirs, cfg.PerDir); err != nil {
			return err
		}
		clerks = shardClerks(p, leg.Mgrs[cfg.Shards:], svc, cfg.Mode, cfg.TokenCache)
		return nil
	})
	if err != nil {
		return ShardScalePoint{}, err
	}

	start := leg.Env.Now()
	shardNodes := leg.Cluster.Nodes[:cfg.Shards]
	for _, n := range shardNodes {
		n.ResetCPUAcct()
	}
	lp, err := startClients(leg.Env, clerks, tree, cfg.Seed, cfg.ThinkTime, true).window(leg.Env, start, cfg.Window)
	if err != nil {
		return ShardScalePoint{}, err
	}
	pt := ShardScalePoint{
		Mode:      cfg.Mode,
		Shards:    cfg.Shards,
		Clients:   clients,
		OpsDone:   lp.Ops,
		OpsPerSec: lp.OpsPerSec,
		MeanLatMs: lp.MeanLatMs,
		P99Ms:     lp.P99Ms,
		Events:    leg.Env.Events(),
	}
	for _, n := range shardNodes {
		u := n.CPU.Utilization(start)
		pt.ShardUtil = append(pt.ShardUtil, u)
		pt.MeanUtil += u
	}
	pt.MeanUtil /= float64(cfg.Shards)
	for _, c := range clerks {
		pt.TokenHits += c.TokenHits
	}
	return pt, nil
}
