package dfs

import (
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/obs"
	"netmem/internal/rmem"
)

// This file is the §5.2 experiment harness: the twelve representative file
// operations of Figures 2 and 3, measured under both structures (HY =
// Hybrid-1, DX = pure data transfer) on a two-machine cluster with a warm
// server cache, exactly as the paper sets it up: "We assume 100% hit rates
// in the server cache. We also neglect the communication cost between
// client and clerk."

// OpSpec is one bar group of Figure 2/3.
type OpSpec struct {
	Label string
	Op    Op
	Size  int // transfer size in bytes (0 for metadata ops)
}

// Figure2Ops lists the operations in the paper's order (top to bottom).
var Figure2Ops = []OpSpec{
	{"GetAttribute", OpGetAttr, 0},
	{"LookupName", OpLookup, 0},
	{"ReadLink", OpReadLink, 0},
	{"Readfile(8K)", OpRead, 8192},
	{"Readfile(4K)", OpRead, 4096},
	{"Readfile(1K)", OpRead, 1024},
	{"ReadDirectory(4K)", OpReadDir, 4096},
	{"ReadDirectory(1K)", OpReadDir, 1024},
	{"ReadDirectory(512)", OpReadDir, 512},
	{"WriteFile(8K)", OpWrite, 8192},
	{"Writefile(4K)", OpWrite, 4096},
	{"Writefile(1K)", OpWrite, 1024},
}

// OpResult is one measured bar: client latency plus the server CPU
// breakdown (Figure 3's components: data reception, control transfer,
// procedure execution, data reply).
type OpResult struct {
	Label   string
	Mode    Mode
	Latency time.Duration

	ServerRx      time.Duration // data reception (drain + deposit emulation)
	ServerControl time.Duration // control transfer (notification path)
	ServerProc    time.Duration // invoked procedure (file service code)
	ServerReply   time.Duration // data reply (fetch + transmit emulation)
}

// ServerTotal is the operation's total server CPU demand.
func (r *OpResult) ServerTotal() time.Duration {
	return r.ServerRx + r.ServerControl + r.ServerProc + r.ServerReply
}

// experimentRig builds the standard two-node measurement setup with a
// warm server cache and returns the pieces.
type experimentRig struct {
	env   *des.Env
	cl    *cluster.Cluster
	srv   *Server
	clerk *Clerk
	tree  WarmTree
}

func newExperimentRigP(mode Mode, params *model.Params) (*experimentRig, error) {
	return newExperimentRigObs(mode, params, nil)
}

// newExperimentRigObs is newExperimentRigP with an observability tracer
// attached to the environment before any simulated activity (nil = off).
func newExperimentRigObs(mode Mode, params *model.Params, tr *obs.Tracer) (*experimentRig, error) {
	env := des.NewEnv()
	env.SetTracer(tr)
	cl := cluster.New(env, params, 2)
	r := &experimentRig{env: env, cl: cl}
	ms := rmem.NewManager(cl.Nodes[0])
	mc := rmem.NewManager(cl.Nodes[1])
	var setupErr error
	env.Spawn("setup", func(p *des.Proc) {
		r.srv = NewServer(p, ms, 2, Geometry{})
		r.clerk = NewClerk(p, mc, r.srv, mode)
		r.tree, setupErr = BuildWarmTree(r.srv.Store, r.srv, patterned(16384))
	})
	if err := env.RunUntil(des.Time(200 * time.Millisecond)); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}
	return r, nil
}

// runOp executes one operation through the clerk and returns the client
// latency. For DX writes — fire-and-forget remote writes — latency runs
// until the data has been deposited in the server's memory, which is the
// cost Figure 2 attributes to the data transfer primitive.
func (r *experimentRig) runOp(p *des.Proc, spec OpSpec) (time.Duration, error) {
	c, t := r.clerk, r.tree
	start := p.Now()
	switch spec.Op {
	case OpGetAttr:
		if _, err := c.GetAttr(p, t.File); err != nil {
			return 0, err
		}
	case OpLookup:
		if _, _, err := c.Lookup(p, t.Dir, "entry007"); err != nil {
			return 0, err
		}
	case OpReadLink:
		if _, err := c.ReadLink(p, t.Link); err != nil {
			return 0, err
		}
	case OpRead:
		data, err := c.Read(p, t.File, 0, spec.Size)
		if err != nil {
			return 0, err
		}
		if len(data) != spec.Size {
			return 0, fmt.Errorf("read %d of %d bytes", len(data), spec.Size)
		}
	case OpReadDir:
		data, err := c.ReadDir(p, t.Dir, 0, spec.Size)
		if err != nil {
			return 0, err
		}
		if len(data) != spec.Size {
			return 0, fmt.Errorf("readdir %d of %d bytes", len(data), spec.Size)
		}
	case OpWrite:
		before := r.srv.data.RemoteWrites
		if err := c.Write(p, t.File, 0, patterned(spec.Size)); err != nil {
			return 0, err
		}
		if c.Mode == DX {
			// Wait for the deposit to complete at the server.
			for r.srv.data.RemoteWrites == before {
				p.Sleep(2 * time.Microsecond)
			}
		}
	default:
		return 0, fmt.Errorf("dfs: no experiment runner for %v", spec.Op)
	}
	return time.Duration(p.Now().Sub(start)), nil
}

// MeasureOp measures one operation in one mode on a fresh rig: the clerk's
// local cache is cold (the request must cross the network), the server's
// cache is warm, and the server CPU accounting isolates just this op.
func MeasureOp(spec OpSpec, mode Mode) (OpResult, error) {
	return MeasureOpP(spec, mode, &model.Default)
}

// MeasureOpP is MeasureOp under an alternative cost model, for ablations
// (free control transfer, faster links, cheaper hosts, …).
func MeasureOpP(spec OpSpec, mode Mode, params *model.Params) (OpResult, error) {
	res, _, err := measureOpObs(spec, mode, params, obs.New(obs.Config{}))
	return res, err
}

// TraceOp is MeasureOp with the given observability configuration: it runs
// the operation on a fresh rig with a tracer attached and returns the
// tracer alongside the result, reset just before the measured op — so its
// events and metrics cover exactly one clerk operation (warm-up excluded),
// ready for Snapshot() or WriteChromeTrace.
func TraceOp(spec OpSpec, mode Mode, cfg obs.Config) (OpResult, *obs.Tracer, error) {
	return measureOpObs(spec, mode, &model.Default, obs.New(cfg))
}

// serverCPU reads one Figure 3 occupancy component from the obs metrics:
// the per-category CPU-demand counter the cluster layer maintains for the
// server's node (nanoseconds of charged CPU time).
func serverCPU(snap obs.Snapshot, node int, cat string) time.Duration {
	return time.Duration(snap.Counter(fmt.Sprintf("cpu.node%d.%s", node, cat)))
}

func measureOpObs(spec OpSpec, mode Mode, params *model.Params, tr *obs.Tracer) (OpResult, *obs.Tracer, error) {
	r, err := newExperimentRigObs(mode, params, tr)
	if err != nil {
		return OpResult{}, nil, err
	}
	res := OpResult{Label: spec.Label, Mode: mode}
	var runErr error
	r.env.Spawn("measure", func(p *des.Proc) {
		// One untimed warm-up of the *name* path only for writes: DX
		// write ownership is established by the preceding read, which is
		// how a real clerk would have fetched the block before modifying
		// it. The warm-up is excluded from the measurement, then the
		// local data copy is kept (ownership) while attr/name caches are
		// also retained — but the measured op below touches the network
		// regardless (writes always push; reads were flushed).
		if spec.Op == OpWrite && mode == DX {
			blocks := (spec.Size + fstore.BlockSize - 1) / fstore.BlockSize
			if _, err := r.clerk.Read(p, r.tree.File, 0, blocks*fstore.BlockSize); err != nil {
				runErr = err
				return
			}
		}
		if spec.Op != OpWrite {
			r.clerk.FlushLocal()
		}
		r.srv.Node().ResetCPUAcct()
		tr.Reset()
		lat, err := r.runOp(p, spec)
		if err != nil {
			runErr = err
			return
		}
		res.Latency = lat
		// Figure 3's components come from the observability counters the
		// cluster layer maintains per CPU charge, not from ad-hoc
		// accumulators: each UseCPU with a tracer attached adds its
		// duration to "cpu.node<i>.<cat>".
		snap := tr.Snapshot()
		sn := r.srv.Node().ID
		res.ServerRx = serverCPU(snap, sn, cluster.CatRx)
		res.ServerControl = serverCPU(snap, sn, cluster.CatControl)
		res.ServerProc = serverCPU(snap, sn, cluster.CatProc)
		res.ServerReply = serverCPU(snap, sn, cluster.CatReply)
	})
	if err := r.env.RunUntil(des.Time(60 * time.Second)); err != nil {
		return OpResult{}, nil, err
	}
	if runErr != nil {
		return OpResult{}, nil, runErr
	}
	return res, tr, nil
}

// RunFigure2And3 measures all twelve operations in both modes, returning
// results keyed [opIndex][mode] with mode 0 = HY, 1 = DX (the paper's bar
// order).
func RunFigure2And3() ([][2]OpResult, error) {
	out := make([][2]OpResult, len(Figure2Ops))
	for i, spec := range Figure2Ops {
		hy, err := MeasureOp(spec, HY)
		if err != nil {
			return nil, fmt.Errorf("%s/HY: %w", spec.Label, err)
		}
		dx, err := MeasureOp(spec, DX)
		if err != nil {
			return nil, fmt.Errorf("%s/DX: %w", spec.Label, err)
		}
		out[i] = [2]OpResult{hy, dx}
	}
	return out, nil
}
