package workload

import (
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
)

// The scalability experiment extends §3's argument to a measurement: "if
// we can eliminate both the traffic and the server involvement, we have
// the potential to improve scalability by lowering both network and server
// load." N closed-loop clients replay the Table 1a mix against one server;
// the interesting outputs are server CPU utilization and delivered
// operation throughput as N grows. Under HY the server saturates early
// (every call burns the 260 µs control-transfer path plus the procedure);
// under DX the same mix leaves the server CPU doing only data-transfer
// emulation.

// ScalePoint is one (mode, client-count) measurement.
type ScalePoint struct {
	Mode       dfs.Mode
	Clients    int
	OpsDone    int64
	OpsPerSec  float64
	ServerUtil float64 // server CPU utilization during the window
	MeanLatMs  float64 // mean per-operation latency, milliseconds
	P99Ms      float64 // p99 per-operation latency, milliseconds
	Events     uint64  // simulator events executed (see des.Env.Events)
}

// ScaleConfig parameterizes the experiment.
type ScaleConfig struct {
	Clients int
	Mode    dfs.Mode
	Window  time.Duration // measurement window of virtual time (default 2s)
}

// RunScale executes one scalability measurement: the server on node 0,
// client i on node i+1. All clients report through one shared Recorder —
// the same accounting path the open-loop engine uses — so both loop styles
// emit the same stat schema.
func RunScale(cfg ScaleConfig) (ScalePoint, error) {
	if cfg.Window <= 0 {
		cfg.Window = 2 * time.Second
	}
	leg := dfs.NewLeg(nil, 0, cfg.Clients+1)
	var srv *dfs.Server
	var tree *Tree
	clerks := make([]*dfs.Clerk, cfg.Clients)
	err := leg.Setup("setup", 500*time.Millisecond, func(p *des.Proc) (err error) {
		srv = dfs.NewServer(p, leg.Mgrs[0], cfg.Clients+1, dfs.Geometry{})
		if tree, err = BuildTree(srv, loopDirs, loopPerDir); err != nil {
			return err
		}
		for i := range clerks {
			clerks[i] = dfs.NewClerk(p, leg.Mgrs[i+1], srv, cfg.Mode)
		}
		return nil
	})
	if err != nil {
		return ScalePoint{}, err
	}

	start := leg.Env.Now()
	srv.Node().ResetCPUAcct()
	lp, err := startClients(leg.Env, clerks, tree, loopSeed, loopThink, true).window(leg.Env, start, cfg.Window)
	if err != nil {
		return ScalePoint{}, err
	}
	return ScalePoint{
		Mode:       cfg.Mode,
		Clients:    cfg.Clients,
		OpsDone:    lp.Ops,
		OpsPerSec:  lp.OpsPerSec,
		ServerUtil: srv.Node().CPU.Utilization(start),
		MeanLatMs:  lp.MeanLatMs,
		P99Ms:      lp.P99Ms,
		Events:     leg.Env.Events(),
	}, nil
}
