package dfs

import (
	"bytes"
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/faults"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/obs"
	"netmem/internal/recovery"
	"netmem/internal/rmem"
)

// Chaos harness: the Figure 2 operation mix run under a fault campaign
// with the reliability layer on, verifying every operation end to end —
// not just that it returned the right number of bytes, but that the bytes
// are correct. The paper measures the fault-free fast path; this measures
// what the same structure costs when the network misbehaves (§3.7).
//
// Every chaos rig (this package's single-server rig, the sharded and
// replica-chain rigs, the control-plane and split-brain rigs) is built from
// the helpers here: NewLeg for the simulated cluster, NewMix for the warm
// tree and the verified operation, Leg.RunMix for the replay loop, and
// Leg.Result for the result. A rig keeps only its placement, spawn order,
// anchor time, pacing, horizon, seed pattern and audits.
//
// NewLeg and Leg.Setup also build every fault-free harness above this
// package: the closed-loop scaling and elastic experiments (workload), the
// replica read-scaling sweep and the zero-CPU re-read probes (shard), and
// the CAS-contention and compaction benches (consensus).

// ChaosConfig selects one chaos run.
type ChaosConfig struct {
	// Campaign is the fault schedule (its Seed field, when zero, defers to
	// Seed below).
	Campaign faults.Campaign
	// Seed seeds the simulation environment; 0 means des.DefaultSeed.
	Seed int64
	// Mode is the file-service structure; chaos runs default to DX, the
	// paper's proposed structure.
	Mode Mode
}

// ChaosOpResult is one operation of the mix under chaos.
type ChaosOpResult struct {
	Label    string
	Baseline time.Duration // fault-free latency, reliability on
	Chaos    time.Duration // latency under the campaign
	OK       bool          // completed with byte-correct results
	Err      string        // failure detail when !OK
}

// Degradation is the latency multiplier the campaign imposed.
func (r ChaosOpResult) Degradation() float64 {
	if r.Baseline <= 0 {
		return 0
	}
	return float64(r.Chaos) / float64(r.Baseline)
}

// ChaosResult is one full chaos run over the Figure 2 mix. The other rigs'
// results embed it and add their own audits.
type ChaosResult struct {
	Campaign  string
	Seed      int64
	Mode      Mode
	Ops       []ChaosOpResult
	Completed int      // ops that finished byte-correct
	Retries   int64    // reliable-layer retransmissions
	Giveups   int64    // operations that exhausted their retry budget
	Injected  []string // the engine's per-kind fault tally ("loss=412", …)
	Events    uint64   // simulator events executed in the measured leg
	// Metrics is the deterministic metric snapshot of the chaos run —
	// identical seeds produce byte-identical snapshots.
	Metrics obs.Snapshot

	// Failover measurements (campaigns with a crash schedule; zero
	// otherwise). MTTR runs from the last heartbeat that proved the
	// primary alive to the moment the clerk was rebound to the promoted
	// standby; Window is the mix's wall-clock, so 1−MTTR/Window is the
	// measured availability. Window is zero when the mix did not finish
	// before the rig's horizon.
	FailedOver bool
	MTTR       time.Duration
	Window     time.Duration
	Rebinds    int64 // failover steps executed (takeover + rebind)
	Replays    int64 // ops replayed against the new incarnation
}

// Goodput is the fraction of the mix that completed byte-correct.
func (r *ChaosResult) Goodput() float64 {
	if len(r.Ops) == 0 {
		return 0
	}
	return float64(r.Completed) / float64(len(r.Ops))
}

// Availability is the fraction of the measured window the service was
// reachable: 1 − MTTR/Window. 1.0 when no failover occurred.
func (r *ChaosResult) Availability() float64 {
	if r.Window <= 0 || r.MTTR <= 0 {
		return 1
	}
	a := 1 - float64(r.MTTR)/float64(r.Window)
	if a < 0 {
		a = 0
	}
	return a
}

// Leg is one leg of a chaos run, or one fault-free harness: a seeded
// environment, the cluster, and one remote-memory manager per node in node
// order. A campaign leg also carries the campaign's fault engine and the
// metrics tracer Result reads; a fault-free leg has neither, so it runs
// uninstrumented. RunMix fills in the measured mix.
type Leg struct {
	Env     *des.Env
	Tracer  *obs.Tracer
	Engine  *faults.Engine
	Cluster *cluster.Cluster
	Mgrs    []*rmem.Manager

	Ops     []ChaosOpResult
	Replays int64         // ops replayed after a failed attempt
	Window  time.Duration // virtual time the mix took
}

// NewLeg builds a leg of nodes machines; camp == nil is a fault-free leg
// (a chaos baseline or a harness). seed == 0 keeps des.DefaultSeed.
func NewLeg(camp *faults.Campaign, seed int64, nodes int) *Leg {
	l := &Leg{Env: des.NewEnv(), Mgrs: make([]*rmem.Manager, nodes), Ops: make([]ChaosOpResult, len(Figure2Ops))}
	if seed != 0 {
		l.Env.Seed(seed)
	}
	var opts []cluster.Option
	if camp != nil {
		l.Tracer = obs.New(obs.Config{})
		l.Env.SetTracer(l.Tracer)
		l.Engine = faults.NewEngine(l.Env, *camp)
		opts = append(opts, cluster.WithFaultEngine(l.Engine))
	}
	l.Cluster = cluster.New(l.Env, &model.Default, nodes, opts...)
	for i := range l.Mgrs {
		l.Mgrs[i] = rmem.NewManager(l.Cluster.Nodes[i])
	}
	return l
}

// Setup runs fn as the named process and advances the leg to virtual time
// at, returning fn's error.
func (l *Leg) Setup(name string, at time.Duration, fn func(p *des.Proc) error) error {
	var setupErr error
	l.Env.Spawn(name, func(p *des.Proc) { setupErr = fn(p) })
	if err := l.Env.RunUntil(des.Time(at)); err != nil {
		return err
	}
	return setupErr
}

// RunMix runs the twelve operations in order through mix, starting one
// every pace (0: back to back). A failed op is replayed up to three times
// while await allows it: await parks until any failover in progress has
// finished and returns nil to replay, or an error to give the op up. A nil
// await never replays.
func (l *Leg) RunMix(p *des.Proc, mix *Mix, pace time.Duration, await func(p *des.Proc, spec OpSpec) error) {
	start := p.Now()
	for i, spec := range Figure2Ops {
		p.SleepUntil(start.Add(time.Duration(i) * pace))
		l.Ops[i] = mix.RunOp(p, spec)
		// A failed op either died in an outage window or exhausted its
		// retransmission budget against ongoing link faults. The
		// reliability layer's dedup window makes replays idempotent even
		// if an earlier attempt half-landed.
		for tries := 0; !l.Ops[i].OK && await != nil && tries < 3; tries++ {
			if err := await(p, spec); err != nil {
				break
			}
			l.Replays++
			l.Ops[i] = mix.RunOp(p, spec)
		}
	}
	l.Window = time.Duration(p.Now().Sub(start))
}

// Result assembles the chaos result of this campaign leg against its
// fault-free baseline leg. recs are the rig's failover coordinators: MTTR
// is the worst restored one's, Rebinds their sum.
func (l *Leg) Result(campaign string, mode Mode, base *Leg, recs ...*recovery.Coordinator) ChaosResult {
	res := ChaosResult{
		Campaign: campaign,
		Seed:     l.Engine.Seed(),
		Mode:     mode,
		Injected: l.Engine.Counts(),
		Events:   l.Env.Events(),
		Metrics:  l.Tracer.Snapshot(),
		Window:   l.Window,
		Replays:  l.Replays,
	}
	res.Retries = res.Metrics.Counter("reliable.retries")
	res.Giveups = res.Metrics.Counter("reliable.giveup")
	for _, rec := range recs {
		if rec == nil || !rec.Restored() {
			continue
		}
		res.FailedOver = true
		if mttr := time.Duration(rec.MTTR()); mttr > res.MTTR {
			res.MTTR = mttr
		}
		res.Rebinds += rec.Rebinds
	}
	for i, op := range l.Ops {
		if op.Label == "" {
			op.Label, op.Err = Figure2Ops[i].Label, "not run: mix unfinished at the horizon"
		}
		op.Baseline = base.Ops[i].Chaos
		res.Ops = append(res.Ops, op)
		if op.OK {
			res.Completed++
		}
	}
	return res
}

// RunLegs runs a rig twice — the fault-free baseline leg, then the leg
// under camp — on identical topologies, so both legs carry the same
// background traffic. what prefixes failures ("dfs: chaos").
func RunLegs[L any](what string, camp faults.Campaign, run func(camp *faults.Campaign) (L, error)) (base, leg L, err error) {
	if base, err = run(nil); err != nil {
		return base, leg, fmt.Errorf("%s baseline: %w", what, err)
	}
	if leg, err = run(&camp); err != nil {
		return base, leg, fmt.Errorf("%s run: %w", what, err)
	}
	return base, leg, nil
}

// MixClerk is the clerk a verified mix drives: *Clerk and the sharded
// clerk both satisfy it.
type MixClerk interface {
	GetAttr(p *des.Proc, h fstore.Handle) (fstore.Attr, error)
	Lookup(p *des.Proc, dir fstore.Handle, name string) (fstore.Handle, fstore.Attr, error)
	ReadLink(p *des.Proc, h fstore.Handle) (string, error)
	Read(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error)
	ReadDir(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error)
	Write(p *des.Proc, h fstore.Handle, offset int64, data []byte) error
	FlushLocal()
	EffectiveCallTimeout() time.Duration
}

// MixServer is the server side a verified mix checks against: *Server and
// the sharded service both satisfy it.
type MixServer interface {
	WarmFile(h fstore.Handle) error
	WarmDir(h fstore.Handle) error
	// Sync applies write-behind state to the store.
	Sync(p *des.Proc) (int, error)
	// Deposits counts remote writes landed at the server owning h.
	Deposits(h fstore.Handle) int64
}

// WarmTree is the Figure 2/3 file tree, resident in the server cache
// (the paper assumes 100% server hit rates).
type WarmTree struct {
	Store *fstore.Store
	File  fstore.Handle // 16K data file
	Dir   fstore.Handle // directory with ≥4K of serialized entries
	Link  fstore.Handle // symlink to the data file
}

// BuildWarmTree writes the tree into st, the data file filled with seed,
// and warms every record into srv's cache.
func BuildWarmTree(st *fstore.Store, srv MixServer, seed []byte) (WarmTree, error) {
	t := WarmTree{Store: st}
	var err error
	if t.File, err = st.WriteFile("/export/data.bin", seed); err != nil {
		return t, err
	}
	// ~250 entries × ~17 bytes ≈ 4.3 KB of stream, so ReadDirectory(4K)
	// is meaningful.
	for i := 0; i < 260; i++ {
		if _, err := st.WriteFile(fmt.Sprintf("/export/pub/entry%03d", i), nil); err != nil {
			return t, err
		}
	}
	if t.Dir, _, err = st.ResolvePath("/export/pub"); err != nil {
		return t, err
	}
	exp, _, err := st.ResolvePath("/export")
	if err != nil {
		return t, err
	}
	if t.Link, _, err = st.Symlink(exp, "current", "/export/data.bin"); err != nil {
		return t, err
	}
	for _, h := range []fstore.Handle{t.File, t.Link} {
		if err := srv.WarmFile(h); err != nil {
			return t, err
		}
	}
	if err := srv.WarmDir(exp); err != nil {
		return t, err
	}
	return t, srv.WarmDir(t.Dir)
}

// Mix is the verified Figure 2 mix over one data plane.
type Mix struct {
	Clerk MixClerk
	Mode  Mode
	Tree  WarmTree
	// Server returns the live server side. Failover swaps it, so the mix
	// resolves it afresh on every use.
	Server func() MixServer
}

// NewMix builds the warm tree, its data file filled with seed, in st and
// the server side's cache, and returns the mix driving clerk against it.
func NewMix(clerk MixClerk, mode Mode, st *fstore.Store, server func() MixServer, seed []byte) (*Mix, error) {
	tree, err := BuildWarmTree(st, server(), seed)
	return &Mix{Clerk: clerk, Mode: mode, Tree: tree, Server: server}, err
}

// RunOp executes one mix operation and verifies its result bytes against
// the store's ground truth.
func (m *Mix) RunOp(p *des.Proc, spec OpSpec) ChaosOpResult {
	res := ChaosOpResult{Label: spec.Label}
	c, t, st := m.Clerk, m.Tree, m.Tree.Store

	fail := func(err error) ChaosOpResult {
		res.Err = err.Error()
		res.Chaos = 0
		return res
	}

	// Writes establish DX block ownership with an untimed read, as a real
	// clerk would have; reads measure the network path, so flush first.
	if spec.Op == OpWrite && m.Mode == DX {
		blocks := (spec.Size + fstore.BlockSize - 1) / fstore.BlockSize
		if _, err := c.Read(p, t.File, 0, blocks*fstore.BlockSize); err != nil {
			return fail(fmt.Errorf("ownership read: %w", err))
		}
	} else {
		c.FlushLocal()
	}

	start := p.Now()
	switch spec.Op {
	case OpGetAttr:
		a, err := c.GetAttr(p, t.File)
		if err != nil {
			return fail(err)
		}
		want, err := st.GetAttr(t.File)
		if err != nil {
			return fail(err)
		}
		if a.Size != want.Size || a.Type != want.Type {
			return fail(fmt.Errorf("attr mismatch: got size %d, want %d", a.Size, want.Size))
		}
	case OpLookup:
		h, _, err := c.Lookup(p, t.Dir, "entry007")
		if err != nil {
			return fail(err)
		}
		want, _, err := st.Lookup(t.Dir, "entry007")
		if err != nil {
			return fail(err)
		}
		if h != want {
			return fail(fmt.Errorf("lookup handle mismatch"))
		}
	case OpReadLink:
		target, err := c.ReadLink(p, t.Link)
		if err != nil {
			return fail(err)
		}
		if target != "/export/data.bin" {
			return fail(fmt.Errorf("readlink returned %q", target))
		}
	case OpRead:
		data, err := c.Read(p, t.File, 0, spec.Size)
		if err != nil {
			return fail(err)
		}
		want, err := st.Read(t.File, 0, spec.Size)
		if err != nil {
			return fail(err)
		}
		if !bytes.Equal(data, want) {
			return fail(fmt.Errorf("read returned wrong bytes"))
		}
	case OpReadDir:
		data, err := c.ReadDir(p, t.Dir, 0, spec.Size)
		if err != nil {
			return fail(err)
		}
		ents, err := st.ReadDir(t.Dir)
		if err != nil {
			return fail(err)
		}
		want := serializeDir(ents)[:spec.Size]
		if !bytes.Equal(data, want) {
			return fail(fmt.Errorf("readdir returned wrong bytes"))
		}
	case OpWrite:
		payload := chaosPattern(spec.Size)
		before := m.Server().Deposits(t.File)
		if err := c.Write(p, t.File, 0, payload); err != nil {
			return fail(err)
		}
		if m.Mode == DX {
			// Bounded: a crash between the deposit and this observation
			// swaps the server for a promoted successor, whose counter may
			// never match — fail the op and let the replay path settle it.
			deadline := p.Now().Add(c.EffectiveCallTimeout())
			for m.Server().Deposits(t.File) == before {
				if p.Now() > deadline {
					return fail(fmt.Errorf("write deposit not observed"))
				}
				p.Sleep(2 * time.Microsecond)
			}
		}
		res.Chaos = time.Duration(p.Now().Sub(start))
		// Verification (untimed): apply the write-behind cache and read the
		// store back — the full §3.1 deposit path, end to end.
		if _, err := m.Server().Sync(p); err != nil {
			return fail(err)
		}
		got, err := st.Read(t.File, 0, spec.Size)
		if err != nil {
			return fail(err)
		}
		if !bytes.Equal(got, payload) {
			return fail(fmt.Errorf("written bytes did not reach the store intact"))
		}
		res.OK = true
		return res
	}
	res.Chaos = time.Duration(p.Now().Sub(start))
	res.OK = true
	return res
}

// Payload patterns. The warm data file is seeded with patterned (the
// Figure 2/3 content, single-server rigs) or CyclicPattern (sharded and
// control-plane rigs); chaosPattern, every rig's write payload, differs
// from both, so a lost or misdeposited write cannot be masked by
// pre-existing bytes.

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// CyclicPattern fills n bytes with i mod 251.
func CyclicPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

func chaosPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 129)
	}
	return b
}

// ServerPlane is a single-server data plane under a verified mix: the
// server, one clerk, and the mix driving them. A failover step that
// promotes a successor assigns it to Srv; the mix follows.
type ServerPlane struct {
	Srv   *Server
	Clerk *Clerk
	Mix   *Mix
}

// NewServerPlane builds the server on ms (with reliable replies) and a
// clerk on mc, and warms the Figure 2 tree seeded with seed. Call from a
// Proc.
func NewServerPlane(p *des.Proc, ms, mc *rmem.Manager, nodes int, mode Mode, seed []byte, copts ...ClerkOption) (*ServerPlane, error) {
	d := &ServerPlane{Srv: NewServer(p, ms, nodes, Geometry{}, WithReliableReplies())}
	d.Clerk = NewClerk(p, mc, d.Srv, mode, copts...)
	var err error
	d.Mix, err = NewMix(d.Clerk, mode, d.Srv.Store, func() MixServer { return d.Srv }, seed)
	return d, err
}

// ArmFailover arms the plane's recovery path: a one-member replica chain
// on msb holding the server's write-behind state, a heartbeat on the
// server's node, a coordinator on the clerk's node, and the two failover
// steps — chain takeover, then clerk rebind. guard, when non-nil, readies
// the successor before it goes live. Start detection with rec.Watch(hb, 0).
func (d *ServerPlane) ArmFailover(p *des.Proc, msb *rmem.Manager, nodes int, cfg recovery.Config, guard func(*des.Proc, *Server) error) (rec *recovery.Coordinator, hb *rmem.Import, err error) {
	cr := NewChainReplica(p, msb, d.Srv.Geo)
	if err = d.Srv.AttachChain(p, 1, []*ChainReplica{cr}, 100*time.Microsecond); err != nil {
		return nil, nil, err
	}

	rec, hb = recovery.Arm(p, d.Srv.m, d.Clerk.m, 100*time.Microsecond, cfg)
	rec.OnFailover("chain.takeover", func(p *des.Proc) error {
		srv, err := cr.TakeOver(p, d.Srv.Store, nodes, WithReliableReplies())
		if err == nil && guard != nil {
			err = guard(p, srv)
		}
		if err != nil {
			return err
		}
		d.Srv = srv
		return nil
	})
	rec.OnFailover("clerk.rebind", func(p *des.Proc) error {
		d.Clerk.Rebind(p, d.Srv)
		return nil
	})
	return rec, hb, nil
}

// RunChaos measures the Figure 2 mix twice — once fault-free for the
// baseline, once under the campaign — both with the reliability layer on,
// and returns the per-op latencies, verification results, and fault/retry
// tallies. A campaign with a crash schedule runs on the recovery rig
// (three nodes: primary, clerk, hot standby) in BOTH legs, so the
// baseline's topology and background traffic match the measured leg's.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	failover := len(cfg.Campaign.Crashes) > 0
	base, leg, err := RunLegs("dfs: chaos", cfg.Campaign, func(camp *faults.Campaign) (*chaosRig, error) {
		return runChaosMix(camp, cfg.Seed, cfg.Mode, failover)
	})
	if err != nil {
		return nil, err
	}
	res := leg.Result(cfg.Campaign.Name, cfg.Mode, base.Leg, leg.rec)
	return &res, nil
}

// chaosRig is the single-server rig: the server on node 0, the clerk on
// node 1, and with failover the hot standby (a one-member chain) on node 2.
type chaosRig struct {
	*Leg
	*ServerPlane
	rec *recovery.Coordinator
}

// runChaosMix runs the twelve operations sequentially on one rig. camp ==
// nil means fault-free (the baseline leg). failover selects the three-node
// recovery rig (standby, heartbeat, coordinator).
func runChaosMix(camp *faults.Campaign, seed int64, mode Mode, failover bool) (*chaosRig, error) {
	nodes := 2
	if failover {
		nodes = 3
	}
	r := &chaosRig{Leg: NewLeg(camp, seed, nodes)}
	// A recovered node reboots cold: its restarted manager fences every
	// descriptor issued by the dead incarnation (nil-safe without engine).
	r.Engine.OnRecover(0, r.Mgrs[0].Restart)
	err := r.Setup("chaos.setup", 200*time.Millisecond, func(p *des.Proc) (err error) {
		copts := []ClerkOption{WithReliable()}
		if failover {
			// Fencing turns a post-restart stall into a typed fast
			// failure; the call timeout stays at the model-derived default
			// (the full retry ladder) — a switched rig pays the campaign's
			// per-link rates on two hops, and an 8K exchange needs the
			// whole capped-backoff schedule to clear sustained loss.
			copts = append(copts, WithFencing())
		}
		if r.ServerPlane, err = NewServerPlane(p, r.Mgrs[0], r.Mgrs[1], nodes, mode, patterned(16384), copts...); err != nil {
			return err
		}
		if failover {
			var hb *rmem.Import
			if r.rec, hb, err = r.ArmFailover(p, r.Mgrs[2], nodes, recovery.Config{}, nil); err != nil {
				return err
			}
			r.rec.Watch(hb, 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var await func(*des.Proc, OpSpec) error
	if failover {
		// Park until the coordinator finishes any failover in progress.
		await = func(p *des.Proc, _ OpSpec) error { return r.rec.AwaitRestored(p, time.Second) }
	}
	r.Env.Spawn("chaos.mix", func(p *des.Proc) {
		// Campaign flap and crash schedules are keyed to virtual time;
		// anchor the mix at t = 200ms so those windows land inside the
		// measured run no matter how quickly warm-up drained the queue.
		p.SleepUntil(des.Time(200 * time.Millisecond))
		r.RunMix(p, r.Mix, 0, await)
	})
	// The recovery rig's daemons (heartbeat, watchdog, chain) never idle,
	// so its horizon must be finite; the plain rig keeps the long horizon
	// and returns as soon as its event queue drains.
	horizon := des.Time(120 * time.Second)
	if failover {
		horizon = des.Time(3 * time.Second)
	}
	if err := r.Env.RunUntil(horizon); err != nil {
		return nil, err
	}
	return r, nil
}
