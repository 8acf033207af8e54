package main

import (
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/rmem"
	"netmem/internal/shard"
	"netmem/internal/stats"
	"netmem/internal/workload"
)

// The rig is workload.RunOpenLoop rebuilt from exported constructors, so
// the traced run can wrap each lane's clerk and time the lane loop from
// outside the program. Node layout, spawn order, daemon intervals and the
// quantized stop all match RunOpenLoop, which is what lets a traced run
// reproduce the untraced run's virtual results and des event count
// exactly; the bench checks that on every traced run. Once the layers
// carry op IDs themselves, spans come from the program and this copy goes.

// rigRun is one traced open-loop run: the OpenLoopResult RunOpenLoop would
// have returned, the spans, and the live topology for reading counters.
type rigRun struct {
	cfg   workload.OpenLoopConfig
	env   *des.Env
	cl    *cluster.Cluster
	svc   *shard.Service
	lanes []*shard.Clerk
	res   *workload.OpenLoopResult
	rec   *workload.Recorder
	tr    *tracer

	// start and end bound the measured window: the first arrival slot and
	// the last completion.
	start, end des.Time
	// dispatchLag is how late the generator ran behind its own schedule.
	dispatchLag des.Duration
	// errs holds the first few failed ops, for the correctness report.
	errs []string
	// base is every counter at the window start; layer metrics are deltas.
	base counters
}

// stepRun is RunOpenLoop's quantized, predicate-gated stop: the chain and
// heartbeat daemons never idle, so the event count is only deterministic
// when the loop stops on whole steps.
func stepRun(env *des.Env, step, horizon time.Duration, stop func() bool) error {
	end := des.Time(horizon)
	for !stop() && env.Now() < end {
		next := env.Now().Add(step)
		if next > end {
			next = end
		}
		env.ScheduleFunc(next, func() {})
		if err := env.RunUntil(next); err != nil {
			return err
		}
	}
	return nil
}

func ms(d int64) float64 { return float64(d) / 1e6 }

// queued is one admitted arrival and its op id (its index among offered
// arrivals), which every span of the op carries.
type queued struct {
	a  workload.Arrival
	id int64
}

// runRig executes cfg through the rig and records spans.
func runRig(cfg workload.OpenLoopConfig) (*rigRun, error) {
	cfg.Fill()
	r := &rigRun{cfg: cfg, tr: &tracer{}}
	env := des.NewEnv()
	env.Seed(cfg.Seed)
	r.env = env

	var eng *faults.Engine
	var clusterOpts []cluster.Option
	if cfg.Campaign != nil {
		eng = faults.NewEngine(env, *cfg.Campaign)
		clusterOpts = append(clusterOpts, cluster.WithFaultEngine(eng))
	}
	nodes := cfg.Shards + cfg.Shards*cfg.Replicas + cfg.Lanes
	watcherNode := -1
	if cfg.Campaign != nil && cfg.Replicas > 0 {
		watcherNode = nodes
		nodes++
	}
	cl := cluster.New(env, &model.Default, nodes, clusterOpts...)
	r.cl = cl
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	for i := range mgrs {
		eng.OnRecover(i, mgrs[i].Restart)
	}
	laneBase := cfg.Shards + cfg.Shards*cfg.Replicas

	var tree *workload.Tree
	var setupErr error
	var setupDone bool
	r.lanes = make([]*shard.Clerk, cfg.Lanes)
	env.Spawn("openloop.setup", func(p *des.Proc) {
		defer func() { setupDone = true }()
		var svcOpts []dfs.ServerOption
		if cfg.Campaign != nil {
			svcOpts = append(svcOpts, dfs.WithReliableReplies())
		}
		r.svc = shard.NewService(p, mgrs[:cfg.Shards], nodes, dfs.Geometry{}, svcOpts...)
		tree, setupErr = workload.BuildTreeOn(r.svc.Store, r.svc, cfg.Dirs, cfg.PerDir)
		if setupErr != nil {
			return
		}
		copts := []shard.ClerkOption{shard.WithTokenCache()}
		if cfg.Campaign != nil {
			copts = append(copts, shard.WithSubOptions(dfs.WithReliable(), dfs.WithFencing()))
		}
		for i := range r.lanes {
			r.lanes[i] = shard.NewClerk(p, mgrs[laneBase+i], r.svc, cfg.Mode, copts...)
		}
		shard.ConnectTokenPeers(p, r.lanes...)
		for slot := 0; slot < cfg.Shards && cfg.Replicas > 0; slot++ {
			members := mgrs[cfg.Shards+slot*cfg.Replicas : cfg.Shards+(slot+1)*cfg.Replicas]
			if setupErr = r.svc.AttachReplicas(p, slot, members, 100*time.Microsecond); setupErr != nil {
				return
			}
		}
		if watcherNode >= 0 {
			for slot := 0; slot < cfg.Shards; slot++ {
				if _, setupErr = r.svc.ArmChainFailover(p, slot, mgrs[watcherNode], 100*time.Microsecond); setupErr != nil {
					return
				}
			}
		}
		for tries := 0; cfg.Replicas > 0 && tries < 100; tries++ {
			converged := true
			for slot := 0; slot < cfg.Shards; slot++ {
				lo, hi := ^uint64(0), uint64(0)
				for _, cr := range r.svc.Replicas(slot) {
					a := cr.Applied()
					lo = min(lo, a)
					hi = max(hi, a)
				}
				if lo != hi || lo == 0 {
					converged = false
				}
			}
			if converged {
				return
			}
			p.Sleep(time.Millisecond)
		}
	})
	if err := stepRun(env, time.Millisecond, time.Second, func() bool { return setupDone }); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}
	if !setupDone {
		return nil, fmt.Errorf("rig: setup did not finish within 1s")
	}

	classes := make([]workload.SLOClass, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		classes[i] = workload.SLOClass{Name: t.Name, Deadline: t.Deadline}
	}
	rec := workload.NewRecorder(classes...)
	r.rec = rec
	res := &workload.OpenLoopResult{
		Shape:     cfg.Shape.String(),
		ZipfTheta: cfg.ZipfTheta,
		Clients:   cfg.Clients,
		Shards:    cfg.Shards,
		Replicas:  cfg.Replicas,
		Lanes:     cfg.Lanes,
	}
	if cfg.Campaign != nil {
		res.Campaign = cfg.Campaign.Name
	}
	r.res = res

	start := env.Now()
	r.start = start
	for i := 0; i < cfg.Shards; i++ {
		cl.Nodes[i].ResetCPUAcct()
	}
	r.base = r.counters()
	var queue []queued
	var qhead int
	qlen := func() int { return len(queue) - qhead }
	wq := des.NewWaitQueue(env)
	var dispatchDone bool
	var accounted int64
	var qwait stats.Sketch

	env.Spawn("openloop.dispatch", func(p *des.Proc) {
		sched := workload.NewSchedule(cfg, len(tree.Files), len(tree.Dirs))
		for {
			a, ok := sched.Next()
			if !ok {
				break
			}
			at := start.Add(a.At)
			if at > p.Now() {
				p.Sleep(time.Duration(at.Sub(p.Now())))
			}
			r.dispatchLag = max(r.dispatchLag, p.Now().Sub(at))
			id := res.Offered
			res.Offered++
			if qlen() >= cfg.MaxQueue {
				rec.RecordShed(a.Tenant)
				res.Shed++
				accounted++
				continue
			}
			queue = append(queue, queued{a, id})
			if l := qlen(); l > res.PeakQueue {
				res.PeakQueue = l
			}
			wq.WakeOne()
		}
		dispatchDone = true
		wq.WakeAll()
	})
	for i := 0; i < cfg.Lanes; i++ {
		i := i
		env.Spawn(fmt.Sprintf("openloop.lane%d", i), func(p *des.Proc) {
			api := &tracedClerk{c: r.lanes[i], tr: r.tr, lane: int16(i)}
			rep := &workload.Replayer{Clerk: api, Tree: tree, LocalCaching: true}
			for {
				if qlen() == 0 {
					if dispatchDone {
						return
					}
					wq.Wait(p)
					continue
				}
				q := queue[qhead]
				qhead++
				if qhead == len(queue) {
					queue = queue[:0]
					qhead = 0
				}
				a := q.a
				sched := start.Add(a.At)
				pick := p.Now()
				qwait.ObserveDuration(time.Duration(pick.Sub(sched)))
				root := r.tr.begin(q.id, -1, int16(i), spanOp, sched)
				r.tr.add(q.id, root, int16(i), spanQWait, sched, pick)
				if a.Straggler {
					res.Stragglers++
					p.Sleep(cfg.StragglerDelay)
					r.tr.add(q.id, root, int16(i), spanHold, pick, p.Now())
				}
				api.op = q.id
				api.parent = r.tr.begin(q.id, root, int16(i), spanApply, p.Now())
				err := rep.Apply(p, a.Op)
				r.tr.end(api.parent, p.Now(), err)
				rec.Record(a.Tenant, time.Duration(p.Now().Sub(sched)), err)
				r.tr.end(root, p.Now(), err)
				r.end = max(r.end, p.Now())
				if err != nil && len(r.errs) < 8 {
					r.errs = append(r.errs, fmt.Sprintf("op %d (%v on file %d) at %v: %v", q.id, a.Op.Activity, a.Op.File, p.Now(), err))
				}
				accounted++
			}
		})
	}

	horizon := time.Duration(start) + cfg.Window + 2*time.Second
	err := stepRun(env, time.Millisecond, horizon, func() bool {
		return dispatchDone && qlen() == 0 && accounted == res.Offered
	})
	if err != nil {
		return nil, err
	}
	if accounted != res.Offered {
		return nil, fmt.Errorf("rig: open-loop drain incomplete: %d of %d ops accounted", accounted, res.Offered)
	}

	res.Report = rec.Report(cfg.Window)
	res.QWaitP50Ms = ms(qwait.P50())
	res.QWaitP99Ms = ms(qwait.P99())
	for _, c := range r.lanes {
		res.TokenHits += c.TokenHits
		res.ReplicaReads += c.ReplicaReads
		res.ReplicaFallbacks += c.ReplicaFallbacks
	}
	for i := 0; i < cfg.Shards; i++ {
		res.MeanShardUtil += cl.Nodes[i].CPU.Utilization(start)
	}
	res.MeanShardUtil /= float64(cfg.Shards)
	for _, rc := range r.svc.Coordinators() {
		if rc == nil || !rc.Restored() {
			continue
		}
		res.FailedOver = true
		if m := ms(int64(rc.MTTR())); m > res.MTTRMs {
			res.MTTRMs = m
		}
	}
	res.Events = env.Events()
	return r, nil
}

// tracedClerk is the workload.FileAPI decorator each lane's Replayer
// drives: one span around every shard.Clerk call, parented to the op's
// apply span. It reads the virtual clock only, so it adds no events.
type tracedClerk struct {
	c      *shard.Clerk
	tr     *tracer
	lane   int16
	op     int64
	parent int32
}

func (t *tracedClerk) begin(p *des.Proc, name spanName) int32 {
	return t.tr.begin(t.op, t.parent, t.lane, name, p.Now())
}

func (t *tracedClerk) FlushLocal() { t.c.FlushLocal() }

func (t *tracedClerk) GetAttr(p *des.Proc, h fstore.Handle) (fstore.Attr, error) {
	s := t.begin(p, spanGetAttr)
	a, err := t.c.GetAttr(p, h)
	t.tr.end(s, p.Now(), err)
	return a, err
}

func (t *tracedClerk) SetAttr(p *des.Proc, h fstore.Handle, mode uint16, size int64) (fstore.Attr, error) {
	s := t.begin(p, spanSetAttr)
	a, err := t.c.SetAttr(p, h, mode, size)
	t.tr.end(s, p.Now(), err)
	return a, err
}

func (t *tracedClerk) Lookup(p *des.Proc, dir fstore.Handle, name string) (fstore.Handle, fstore.Attr, error) {
	s := t.begin(p, spanLookup)
	h, a, err := t.c.Lookup(p, dir, name)
	t.tr.end(s, p.Now(), err)
	return h, a, err
}

func (t *tracedClerk) ReadLink(p *des.Proc, h fstore.Handle) (string, error) {
	s := t.begin(p, spanReadLink)
	target, err := t.c.ReadLink(p, h)
	t.tr.end(s, p.Now(), err)
	return target, err
}

func (t *tracedClerk) Read(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error) {
	s := t.begin(p, spanRead)
	b, err := t.c.Read(p, h, offset, count)
	t.tr.end(s, p.Now(), err)
	return b, err
}

func (t *tracedClerk) Write(p *des.Proc, h fstore.Handle, offset int64, data []byte) error {
	s := t.begin(p, spanWrite)
	err := t.c.Write(p, h, offset, data)
	t.tr.end(s, p.Now(), err)
	return err
}

func (t *tracedClerk) ReadDir(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error) {
	s := t.begin(p, spanReadDir)
	b, err := t.c.ReadDir(p, h, offset, count)
	t.tr.end(s, p.Now(), err)
	return b, err
}

func (t *tracedClerk) Null(p *des.Proc) error {
	s := t.begin(p, spanNull)
	err := t.c.Null(p)
	t.tr.end(s, p.Now(), err)
	return err
}

func (t *tracedClerk) StatFS(p *des.Proc) (fstore.FSStat, error) {
	s := t.begin(p, spanStatFS)
	st, err := t.c.StatFS(p)
	t.tr.end(s, p.Now(), err)
	return st, err
}
