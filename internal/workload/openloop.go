package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/model"
	"netmem/internal/rmem"
	"netmem/internal/shard"
	"netmem/internal/stats"
)

// Open-loop traffic engine. The closed-loop rigs (RunScale, RunShardScale)
// measure capacity: each client issues, waits, thinks — so when the system
// slows down, the offered load politely slows with it, and tail latency is
// flattered (coordinated omission). Production traffic does not wait.
// Here arrivals are scheduled on the virtual clock *independent of
// completions*: a Poisson process shaped over the window (steady, diurnal,
// flash crowd), thinned per Lewis & Shedler, with each arrival stamped
// with its tenant, its Zipf-ranked target, and its latency clock starting
// at the *scheduled* arrival — queueing delay counts. Simulated clients
// are just identities on arrivals (a Poisson superposition), so a million
// of them cost nothing; the ops execute on a small pool of clerk "lanes"
// behind a bounded FIFO, and when the FIFO fills the arrival is shed and
// charged against SLO attainment.

// Shape selects the arrival-rate envelope over the run window.
type Shape int

const (
	// ShapeSteady holds the configured rate flat.
	ShapeSteady Shape = iota
	// ShapeDiurnal ramps rate up to the configured peak mid-window and
	// back down — one day compressed into the window.
	ShapeDiurnal
	// ShapeFlash holds half rate, then bursts to 4x for 15% of the window
	// starting at its 45% mark — a flash crowd landing on a warm system.
	ShapeFlash
)

var shapeNames = map[Shape]string{
	ShapeSteady:  "steady",
	ShapeDiurnal: "diurnal",
	ShapeFlash:   "flash",
}

func (s Shape) String() string {
	if n, ok := shapeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// ParseShape resolves a shape name.
func ParseShape(name string) (Shape, error) {
	for s, n := range shapeNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown shape %q (want steady, diurnal, flash)", name)
}

// ShapeNames lists the arrival shapes, in definition order.
func ShapeNames() []string { return []string{"steady", "diurnal", "flash"} }

// factor returns the rate multiplier at fraction frac of the window.
func (s Shape) factor(frac float64) float64 {
	switch s {
	case ShapeDiurnal:
		sin := math.Sin(math.Pi * frac)
		return 0.35 + 0.65*sin*sin
	case ShapeFlash:
		if frac >= 0.45 && frac < 0.60 {
			return 4.0
		}
		return 0.5
	}
	return 1.0
}

// peak returns the maximum of factor over the window — the thinning
// envelope rate.
func (s Shape) peak() float64 {
	switch s {
	case ShapeFlash:
		return 4.0
	}
	return 1.0
}

// ---------------------------------------------------------------------------
// Zipfian key popularity.

// Zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^theta via an inverse-CDF
// table — theta 0 is uniform, theta ≥ 1 the classic hot-key regime
// (math/rand's Zipf needs s > 1; workload sweeps cross 1.0).
type Zipf struct {
	cum []float64
}

// NewZipf builds the popularity table for n keys.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{cum: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -theta)
		z.cum[k] = sum
	}
	for k := range z.cum {
		z.cum[k] /= sum
	}
	return z
}

// Sample maps a uniform u in [0,1) to a rank by binary search.
func (z *Zipf) Sample(u float64) int {
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u <= z.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Prob returns P(rank k).
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cum) {
		return 0
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}

// ---------------------------------------------------------------------------
// Tenant mixes.

// MixKind selects a tenant's operation mix.
type MixKind int

const (
	// MixDepartmental replays the paper's Table 1a NFS mix.
	MixDepartmental MixKind = iota
	// MixVideo models streaming: almost all large-block sequential reads.
	MixVideo
	// MixMetadata models a microservice control path: attribute and name
	// traffic with small reads and a write tail — the writes are what
	// trigger token recalls on Zipf-hot blocks.
	MixMetadata
)

var mixNames = map[MixKind]string{
	MixDepartmental: "departmental",
	MixVideo:        "video",
	MixMetadata:     "metadata",
}

func (k MixKind) String() string {
	if n, ok := mixNames[k]; ok {
		return n
	}
	return fmt.Sprintf("MixKind(%d)", int(k))
}

// mixFreqs returns the activity frequencies of a mix kind.
func mixFreqs(k MixKind) [numActivities]float64 {
	switch k {
	case MixVideo:
		var f [numActivities]float64
		f[ActRead] = 0.85
		f[ActGetAttr] = 0.10
		f[ActLookup] = 0.05
		return f
	case MixMetadata:
		var f [numActivities]float64
		f[ActGetAttr] = 0.40
		f[ActLookup] = 0.30
		f[ActReadDir] = 0.12
		f[ActRead] = 0.08
		f[ActWrite] = 0.07
		f[ActStatFS] = 0.03
		return f
	}
	return Mix()
}

// drawSize picks the transfer size for a data-bearing op of the mix.
func drawSize(rng *rand.Rand, k MixKind, a Activity) int {
	switch k {
	case MixVideo:
		if a == ActRead {
			return 8192
		}
		return 512
	case MixMetadata:
		return 512
	}
	switch a {
	case ActRead:
		return readSizes[rng.Intn(len(readSizes))]
	case ActWrite:
		return writeSizes[rng.Intn(len(writeSizes))]
	case ActReadDir:
		return dirSizes[rng.Intn(len(dirSizes))]
	}
	return 512
}

// TenantSpec declares one tenant: its share of the arrival stream, its
// operation mix, and its per-op latency deadline.
type TenantSpec struct {
	Name     string
	Share    float64
	Mix      MixKind
	Deadline time.Duration
}

// DefaultTenants is the production-shaped three-tenant population: the
// departmental NFS base load, a video-streaming tenant that tolerates more
// latency, and a metadata-heavy microservice tenant with a tight deadline.
func DefaultTenants() []TenantSpec {
	return []TenantSpec{
		{Name: "dept", Share: 0.50, Mix: MixDepartmental, Deadline: 5 * time.Millisecond},
		{Name: "video", Share: 0.25, Mix: MixVideo, Deadline: 8 * time.Millisecond},
		{Name: "micro", Share: 0.25, Mix: MixMetadata, Deadline: 3 * time.Millisecond},
	}
}

// ---------------------------------------------------------------------------
// The arrival schedule.

// Arrival is one scheduled operation: its virtual arrival offset from the
// window start (non-decreasing across the stream), the simulated client it
// belongs to, its tenant, and the drawn op.
type Arrival struct {
	At        time.Duration
	Client    int
	Tenant    int
	Straggler bool
	Op        TraceOp
}

// Schedule generates the open-loop arrival stream: a non-homogeneous
// Poisson process at aggregate rate Clients·RatePerClient·shape(t),
// realized by thinning candidates generated at the shape's peak rate.
// Everything is drawn from one seeded generator, so a seed fully
// determines the stream.
type Schedule struct {
	cfg         OpenLoopConfig
	rng         *rand.Rand
	zipf        *Zipf
	tenantCum   []float64
	files, dirs int
	peakRate    float64 // candidates per second
	tSec        float64 // current virtual offset, seconds
}

// NewSchedule builds the arrival stream for a filled config over a
// population of files and dirs. Callers outside RunOpenLoop should fill
// the config first (see OpenLoopConfig.Fill).
func NewSchedule(cfg OpenLoopConfig, files, dirs int) *Schedule {
	s := &Schedule{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		zipf:  NewZipf(files, cfg.ZipfTheta),
		files: files,
		dirs:  dirs,
	}
	var sum float64
	for _, t := range cfg.Tenants {
		sum += t.Share
	}
	acc := 0.0
	for _, t := range cfg.Tenants {
		acc += t.Share / sum
		s.tenantCum = append(s.tenantCum, acc)
	}
	s.peakRate = float64(cfg.Clients) * cfg.RatePerClient * cfg.Shape.peak()
	return s
}

// Next returns the next accepted arrival; ok is false once the window is
// exhausted. Arrival times are non-decreasing by construction — the
// candidate clock only moves forward and thinning never reorders.
func (s *Schedule) Next() (Arrival, bool) {
	window := s.cfg.Window.Seconds()
	for {
		s.tSec += s.rng.ExpFloat64() / s.peakRate
		if s.tSec >= window {
			return Arrival{}, false
		}
		// Thinning: accept with probability rate(t)/peak.
		if s.rng.Float64()*s.cfg.Shape.peak() > s.cfg.Shape.factor(s.tSec/window) {
			continue
		}
		a := Arrival{
			At:     time.Duration(s.tSec * float64(time.Second)),
			Client: s.rng.Intn(s.cfg.Clients),
		}
		u := s.rng.Float64()
		for i, c := range s.tenantCum {
			if u <= c {
				a.Tenant = i
				break
			}
			a.Tenant = i
		}
		spec := s.cfg.Tenants[a.Tenant]
		a.Straggler = s.rng.Float64()*1000 < float64(s.cfg.StragglerPerMille)
		rank := s.zipf.Sample(s.rng.Float64())
		a.Op.File = rank
		a.Op.Dir = rank * s.dirs / s.files // hot files live in hot dirs
		freqs := mixFreqs(spec.Mix)
		ua := s.rng.Float64()
		acc := 0.0
		a.Op.Activity = ActGetAttr
		for act := Activity(0); act < numActivities; act++ {
			if freqs[act] == 0 {
				continue
			}
			acc += freqs[act]
			if ua <= acc {
				a.Op.Activity = act
				break
			}
		}
		switch a.Op.Activity {
		case ActRead, ActWrite, ActReadDir:
			a.Op.Size = drawSize(s.rng, spec.Mix, a.Op.Activity)
		}
		return a, true
	}
}

// ---------------------------------------------------------------------------
// The rig.

// OpenLoopConfig parameterizes one open-loop run.
type OpenLoopConfig struct {
	// Clients is the simulated client population; arrivals form the
	// superposition of their independent Poisson streams.
	Clients int
	// RatePerClient is each client's mean rate in ops/sec (at shape
	// factor 1), so the aggregate steady rate is Clients·RatePerClient.
	RatePerClient float64
	// Window is the arrival window of virtual time; lanes drain after.
	Window time.Duration
	// Shape is the arrival-rate envelope.
	Shape Shape
	// ZipfTheta skews key popularity (0 uniform; 0.9–1.2 hot-key regime).
	ZipfTheta float64
	// Tenants is the SLO-class population (DefaultTenants when empty).
	Tenants []TenantSpec
	// Shards and Replicas shape the serving tier: Shards primaries, each
	// with a Replicas-member chain (0 = no chains).
	Shards   int
	Replicas int
	// Lanes is the clerk-pool size ops execute on; MaxQueue bounds the
	// dispatch FIFO — arrivals past it are shed.
	Lanes    int
	MaxQueue int
	// StragglerPerMille is the per-arrival probability (in ‰) that the op
	// simulates a slow client holding its lane StragglerDelay before
	// executing — backpressure the queue accounting must absorb.
	StragglerPerMille int
	StragglerDelay    time.Duration
	// Seed fixes both the simulation and the arrival stream.
	Seed int64
	// Dirs × PerDir is the file population (Zipf ranks map onto it).
	Dirs   int
	PerDir int
	// Mode is the file-service structure (DX default).
	Mode dfs.Mode
	// Campaign, when set, runs the window under the fault schedule with
	// the reliability layer, fencing, and chain failover armed.
	Campaign *faults.Campaign
}

// Fill applies defaults in place.
func (c *OpenLoopConfig) Fill() {
	if c.Clients <= 0 {
		c.Clients = 100_000
	}
	if c.RatePerClient <= 0 {
		c.RatePerClient = 0.05
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
	if len(c.Tenants) == 0 {
		c.Tenants = DefaultTenants()
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	}
	if c.Lanes <= 0 {
		c.Lanes = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4096
	}
	if c.StragglerPerMille < 0 {
		c.StragglerPerMille = 0
	}
	if c.StragglerDelay <= 0 {
		c.StragglerDelay = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Dirs <= 0 {
		c.Dirs = 4
	}
	if c.PerDir <= 0 {
		c.PerDir = 8
	}
}

// OpenLoopResult is one run's machine-readable summary. Every field is
// derived from virtual time and seeded draws — byte-deterministic for a
// fixed config.
type OpenLoopResult struct {
	Shape     string  `json:"shape"`
	ZipfTheta float64 `json:"zipf_theta"`
	Clients   int     `json:"clients"`
	Shards    int     `json:"shards"`
	Replicas  int     `json:"replicas"`
	Lanes     int     `json:"lanes"`
	Campaign  string  `json:"campaign,omitempty"`

	// Offered counts scheduled arrivals; Shed the ones dropped at the
	// full FIFO; Stragglers the slow-client injections that executed.
	Offered    int64 `json:"offered"`
	Shed       int64 `json:"shed"`
	Stragglers int64 `json:"stragglers"`
	PeakQueue  int   `json:"peak_queue"`

	// QWaitP50Ms/QWaitP99Ms summarize time spent queued before a lane
	// picked the op up (already included in per-op latency).
	QWaitP50Ms float64 `json:"qwait_p50_ms"`
	QWaitP99Ms float64 `json:"qwait_p99_ms"`

	// Report is the per-tenant SLO summary (the Recorder schema).
	Report Report `json:"report"`

	// Serving-tier counters over the run.
	TokenHits        int64   `json:"token_hits"`
	ReplicaReads     int64   `json:"replica_reads"`
	ReplicaFallbacks int64   `json:"replica_fallbacks"`
	MeanShardUtil    float64 `json:"mean_shard_util"`

	// Failover outcome under a campaign.
	FailedOver bool    `json:"failed_over"`
	MTTRMs     float64 `json:"mttr_ms"`

	Events uint64 `json:"events"`
}

// stepRun advances env in step-sized slices until stop() or the horizon —
// the chain and heartbeat daemons never idle, so a run needs a quantized,
// predicate-gated stop to keep its event count deterministic.
func stepRun(env *des.Env, step, horizon time.Duration, stop func() bool) error {
	end := des.Time(horizon)
	for !stop() && env.Now() < end {
		next := env.Now().Add(step)
		if next > end {
			next = end
		}
		// An empty tick pins an event on the boundary: RunUntil leaves the
		// clock at the last executed event, so a quiet stretch (no chain
		// daemons, next arrival beyond the step) would otherwise freeze
		// now — and with it this loop.
		env.ScheduleFunc(next, func() {})
		if err := env.RunUntil(next); err != nil {
			return err
		}
	}
	return nil
}

// RunOpenLoop executes one open-loop measurement. Topology: shard
// primaries on nodes 0..S-1, chain members on the next S·K, lane clerks
// after, and (under a campaign) a failover watcher on the last node.
func RunOpenLoop(cfg OpenLoopConfig) (*OpenLoopResult, error) {
	return runOpenLoop(des.NewEnv(), cfg)
}

// runOpenLoop is RunOpenLoop on a fresh env the caller made. It shuts env
// down before returning, unwinding the lanes and every daemon; otherwise
// their parked goroutines would keep the whole simulation reachable.
func runOpenLoop(env *des.Env, cfg OpenLoopConfig) (*OpenLoopResult, error) {
	cfg.Fill()
	env.Seed(cfg.Seed)
	defer env.Shutdown()

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
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	for i := range mgrs {
		eng.OnRecover(i, mgrs[i].Restart)
	}
	laneBase := cfg.Shards + cfg.Shards*cfg.Replicas

	var svc *shard.Service
	var tree *Tree
	var setupErr error
	var setupDone bool
	laneClerks := make([]*shard.Clerk, cfg.Lanes)
	env.Spawn("openloop.setup", func(p *des.Proc) {
		defer func() { setupDone = true }()
		var svcOpts []dfs.ServerOption
		if cfg.Campaign != nil {
			svcOpts = append(svcOpts, dfs.WithReliableReplies())
		}
		svc = shard.NewService(p, mgrs[:cfg.Shards], nodes, dfs.Geometry{}, svcOpts...)
		tree, setupErr = BuildTreeOn(svc.Store, svc, cfg.Dirs, cfg.PerDir)
		if setupErr != nil {
			return
		}
		copts := []shard.ClerkOption{shard.WithTokenCache()}
		if cfg.Campaign != nil {
			copts = append(copts, shard.WithSubOptions(dfs.WithReliable(), dfs.WithFencing()))
		}
		for i := range laneClerks {
			laneClerks[i] = shard.NewClerk(p, mgrs[laneBase+i], svc, cfg.Mode, copts...)
		}
		shard.ConnectTokenPeers(p, laneClerks...)
		for slot := 0; slot < cfg.Shards && cfg.Replicas > 0; slot++ {
			members := mgrs[cfg.Shards+slot*cfg.Replicas : cfg.Shards+(slot+1)*cfg.Replicas]
			if setupErr = svc.AttachReplicas(p, slot, members, 100*time.Microsecond); setupErr != nil {
				return
			}
		}
		if watcherNode >= 0 {
			for slot := 0; slot < cfg.Shards; slot++ {
				if _, setupErr = svc.ArmChainFailover(p, slot, mgrs[watcherNode], 100*time.Microsecond); setupErr != nil {
					return
				}
			}
		}
		// Let every chain converge on the warm frames before arrivals.
		for tries := 0; cfg.Replicas > 0 && tries < 100; tries++ {
			converged := true
			for slot := 0; slot < cfg.Shards; slot++ {
				lo, hi := ^uint64(0), uint64(0)
				for _, cr := range svc.Replicas(slot) {
					a := cr.Applied()
					if a < lo {
						lo = a
					}
					if a > hi {
						hi = a
					}
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
	// The quantized stop puts the window start on a whole-millisecond
	// boundary deterministically; under the stock campaigns (crash at
	// ~202ms) setup completes first, so the crash lands inside the window.
	if err := stepRun(env, time.Millisecond, time.Second, func() bool { return setupDone }); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}
	if !setupDone {
		return nil, fmt.Errorf("workload: open-loop setup did not finish within 1s")
	}

	classes := make([]SLOClass, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		classes[i] = SLOClass{Name: t.Name, Deadline: t.Deadline}
	}
	rec := NewRecorder(classes...)
	res := &OpenLoopResult{
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

	start := env.Now()
	for i := 0; i < cfg.Shards; i++ {
		cl.Nodes[i].ResetCPUAcct()
	}
	var queue []Arrival
	var qhead int
	qlen := func() int { return len(queue) - qhead }
	wq := des.NewWaitQueue(env)
	var dispatchDone bool
	var accounted int64
	var qwait stats.Sketch

	// The dispatcher only waits for each arrival's time, admits the
	// arrival and wakes a lane, so it needs no process: it runs as a
	// callback chain. Each step takes the sequence number a dispatcher
	// process's Sleep would (the first, its spawn's), so event order and
	// Events() are as with a process, without its hand-offs.
	sched := NewSchedule(cfg, len(tree.Files), len(tree.Dirs))
	var next Arrival
	var held bool // next is due at a later step
	var dispatch func()
	dispatch = func() {
		for {
			if !held {
				var ok bool
				if next, ok = sched.Next(); !ok {
					dispatchDone = true
					wq.WakeAll()
					return
				}
				if at := start.Add(next.At); at > env.Now() {
					held = true
					env.ScheduleFunc(at, dispatch)
					return
				}
			}
			held = false
			res.Offered++
			if qlen() >= cfg.MaxQueue {
				rec.RecordShed(next.Tenant)
				res.Shed++
				accounted++
				continue
			}
			queue = append(queue, next)
			if l := qlen(); l > res.PeakQueue {
				res.PeakQueue = l
			}
			wq.WakeOne()
		}
	}
	env.ScheduleFunc(env.Now(), dispatch)
	// serving[i] is the op lane i is inside, named by the drain error: an
	// op that outlives the horizon is slow, not lost, while each layer
	// below the lane waits on a timeout of its own.
	type laneOp struct {
		act  Activity
		sent des.Time // scheduled arrival
		busy bool
	}
	serving := make([]laneOp, cfg.Lanes)
	for i := 0; i < cfg.Lanes; i++ {
		i := i
		env.Spawn(fmt.Sprintf("openloop.lane%d", i), func(p *des.Proc) {
			// The token-coherent cache stays live across ops (production
			// posture): reads on hot blocks hit locally until a tenant's
			// write recalls the tokens.
			rep := &Replayer{Clerk: laneClerks[i], Tree: tree, LocalCaching: true}
			for {
				if qlen() == 0 {
					if dispatchDone {
						return
					}
					wq.Wait(p)
					continue
				}
				a := queue[qhead]
				qhead++
				if qhead == len(queue) {
					queue = queue[:0]
					qhead = 0
				}
				sched := start.Add(a.At)
				serving[i] = laneOp{a.Op.Activity, sched, true}
				qwait.ObserveDuration(time.Duration(p.Now().Sub(sched)))
				if a.Straggler {
					res.Stragglers++
					p.Sleep(cfg.StragglerDelay)
				}
				err := rep.Apply(p, a.Op)
				// Latency runs from the *scheduled* arrival: queueing and
				// straggler holds count, exactly what a closed loop hides.
				rec.Record(a.Tenant, time.Duration(p.Now().Sub(sched)), err)
				serving[i].busy = false
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
		var inside []string
		for i, op := range serving {
			if op.busy {
				inside = append(inside, fmt.Sprintf("openloop.lane%d in %v for %v", i, op.act, env.Now().Sub(op.sent)))
			}
		}
		return nil, fmt.Errorf("workload: open-loop drain incomplete: %d of %d ops accounted, %d queued; in flight: [%s]",
			accounted, res.Offered, qlen(), strings.Join(inside, ", "))
	}

	res.Report = rec.Report(cfg.Window)
	res.QWaitP50Ms = ms(qwait.P50())
	res.QWaitP99Ms = ms(qwait.P99())
	for _, c := range laneClerks {
		res.TokenHits += c.TokenHits
		res.ReplicaReads += c.ReplicaReads
		res.ReplicaFallbacks += c.ReplicaFallbacks
	}
	for i := 0; i < cfg.Shards; i++ {
		res.MeanShardUtil += cl.Nodes[i].CPU.Utilization(start)
	}
	res.MeanShardUtil /= float64(cfg.Shards)
	if svc != nil {
		for _, rc := range svc.Coordinators() {
			if rc == nil || !rc.Restored() {
				continue
			}
			res.FailedOver = true
			if m := ms(int64(rc.MTTR())); m > res.MTTRMs {
				res.MTTRMs = m
			}
		}
	}
	res.Events = env.Events()
	return res, nil
}
