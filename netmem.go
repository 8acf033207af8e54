// Package netmem is the public API of the remote-network-memory toolkit: a
// faithful reproduction of Thekkath, Levy & Lazowska, "Separating Data and
// Control Transfer in Distributed Operating Systems" (ASPLOS 1994).
//
// The package simulates a cluster of DECstation-class workstations on a
// 140 Mb/s ATM network and provides the paper's communication model —
// exported memory segments accessed remotely with non-blocking WRITE, READ
// and compare-and-swap meta-instructions, with control transfer
// (notification) fully decoupled from data transfer — plus the systems
// built on it: a distributed segment name service, the Hybrid-1 RPC-like
// comparator, a conventional RPC baseline, and an NFS-like distributed
// file service structured both ways.
//
// Everything runs on a deterministic discrete-event simulation calibrated
// to the paper's measurements (Table 2: 30 µs remote write, 45 µs read,
// 38 µs CAS, 35.4 Mb/s block throughput, 260 µs notification). Simulated
// code runs in processes (Proc); all blocking and timing flows through
// them. A minimal session (the package's runnable Example):
//
//	sys := netmem.New(2, netmem.WithTrace(netmem.TraceConfig{}))
//	sys.Spawn("demo", func(p *netmem.Proc) {
//		seg := sys.Mem[1].Export(p, 4096)
//		seg.SetDefaultRights(netmem.RightsAll)
//		imp := sys.Mem[0].Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
//		if err := imp.Write(p, 0, []byte("hello"), false); err != nil {
//			log.Fatal(err)
//		}
//	})
//	sys.Run()
//
// WithTrace attaches the observability layer: after the run,
// sys.Obs().Snapshot() holds per-layer counters and latency histograms,
// and with TraceConfig.Events set the full event timeline can be exported
// as Chrome trace_event JSON (Tracer.WriteChromeTrace) for
// chrome://tracing or Perfetto.
package netmem

import (
	"time"

	"netmem/internal/cluster"
	"netmem/internal/consensus"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/hybrid"
	"netmem/internal/lrpc"
	"netmem/internal/model"
	"netmem/internal/nameserver"
	"netmem/internal/obs"
	"netmem/internal/recovery"
	"netmem/internal/rmem"
	"netmem/internal/rpc"
	"netmem/internal/secure"
	"netmem/internal/shard"
	"netmem/internal/stats"
	"netmem/internal/svm"
	"netmem/internal/tokens"
	"netmem/internal/workload"
)

// Core simulation types.
type (
	// Env is the discrete-event simulation environment.
	Env = des.Env
	// Proc is a simulated process; all blocking APIs take one.
	Proc = des.Proc
	// Time is absolute virtual time.
	Time = des.Time
	// Resource is a serially shared resource with a FIFO queue (a CPU).
	Resource = des.Resource

	// Cluster is a set of workstations on an ATM network.
	Cluster = cluster.Cluster
	// Node is one simulated workstation.
	Node = cluster.Node
	// Params is the calibrated hardware/software cost model.
	Params = model.Params
)

// Fault injection and reliability (§3.7).
type (
	// FaultCampaign is a deterministic, seeded fault schedule: per-link
	// cell loss/corruption/duplication/reordering rates, link-outage
	// windows, FIFO-overflow drops, and node crash/restart events, all
	// keyed to virtual time so identical seeds replay identically.
	FaultCampaign = faults.Campaign
	// LinkFault is one link's misbehaviour within a campaign.
	LinkFault = faults.LinkFault
	// LinkFlap is a scheduled link-outage window.
	LinkFlap = faults.Flap
	// NodeCrash schedules a node failure and optional restart.
	NodeCrash = faults.Crash
	// FaultEngine executes a campaign; read it back via System.Faults.
	FaultEngine = faults.Engine
)

var (
	// NamedCampaign looks up a predefined chaos campaign ("loss1",
	// "mixed", "flap", …) by name.
	NamedCampaign = faults.Named
	// CampaignNames lists the predefined chaos campaigns.
	CampaignNames = faults.CampaignNames
)

// Remote memory model (the paper's contribution).
type (
	// Manager is the per-node kernel side of the remote memory model.
	Manager = rmem.Manager
	// Segment is an exported region of a process's memory.
	Segment = rmem.Segment
	// Import is an installed descriptor for a remote segment.
	Import = rmem.Import
	// Notification is one control-transfer event.
	Notification = rmem.Notification
	// Rights is a segment access mask.
	Rights = rmem.Rights
	// NotifyMode is the per-descriptor notification control flag.
	NotifyMode = rmem.NotifyMode
	// ReadOp is an outstanding non-blocking READ.
	ReadOp = rmem.ReadOp
)

// Name service, local RPC, transports.
type (
	// NameClerk is the per-machine distributed name-service agent.
	NameClerk = nameserver.Clerk
	// NameConfig tunes a name clerk.
	NameConfig = nameserver.Config
	// NameRecord is a name-registry entry.
	NameRecord = nameserver.Record
	// LocalServer is a same-machine cross-address-space RPC server.
	LocalServer = lrpc.Server
	// RPCEndpoint is the conventional RPC baseline runtime.
	RPCEndpoint = rpc.Endpoint
	// HybridServer / HybridClient are the Hybrid-1 channel ends.
	HybridServer = hybrid.Server
	HybridClient = hybrid.Client
)

// File service.
type (
	// FileServer is the file-service machine with exported cache areas.
	FileServer = dfs.Server
	// FileClerk is the per-client agent of the file service.
	FileClerk = dfs.Clerk
	// FileMode selects DX (pure data transfer) or HY (Hybrid-1).
	FileMode = dfs.Mode
	// FileGeometry sizes the server cache areas.
	FileGeometry = dfs.Geometry
)

// Sharded file service: the namespace partitioned across N servers by
// consistent hashing, with token-coherent client block caching.
type (
	// ShardService is the sharded tier — N FileServers over one shared
	// store, a consistent-hash ring assigning every handle an owner.
	ShardService = shard.Service
	// ShardFileClerk routes each operation to the owning shard and keeps
	// an optional token-coherent client block cache.
	ShardFileClerk = shard.Clerk
	// ShardRing is the consistent-hash placement ring.
	ShardRing = shard.Ring
	// ShardClerkOption configures Shards().Clerk.
	ShardClerkOption = shard.ClerkOption

	// ShardMembership is the epoch-versioned membership view of a sharded
	// service: Current() returns the ring and its epoch, Watch subscribes
	// to cutover commits.
	ShardMembership = shard.Membership
	// ShardEpoch is a membership version number; it bumps once per
	// committed join or drain.
	ShardEpoch = shard.Epoch
	// ShardEvent is one committed membership change, as delivered to
	// ShardMembership.Watch subscribers.
	ShardEvent = shard.Event
	// ShardManager sizes the elastic fleet: ScaleTo joins spare slots or
	// drains the newest joiner until the fleet reaches a target size.
	ShardManager = shard.Manager
)

var (
	// WithShardTokenCache layers the token-coherent client block cache on
	// a shard clerk: read tokens let re-reads complete with zero server
	// CPU; writes recall tokens and invalidate peer caches.
	WithShardTokenCache = shard.WithTokenCache
	// WithShardSubOptions passes options to each per-shard sub-clerk.
	WithShardSubOptions = shard.WithSubOptions
	// ConnectShardTokenPeers wires clerks' token revocation mesh.
	ConnectShardTokenPeers = shard.ConnectTokenPeers
	// NewShardRing builds a standalone placement ring (n shards, vnodes
	// virtual points per shard).
	NewShardRing = shard.NewRing
)

// Replica read tier: each shard's write-behind state propagated down a
// k-member chain (primary → R1 → … → Rk) with plain one-sided WRITEs, so
// any clerk holding a read token can READ a chain member's exported
// segment directly — the primary spends zero CPU on replica reads.
type (
	// ChainReplica is one member of a shard's replica chain: it exports a
	// framed copy of the primary's data area, relays landed frames
	// downstream, acks its applied version upstream, and takes over when
	// the primary dies. A hot standby is a one-member chain.
	ChainReplica = dfs.ChainReplica
	// ReplicaScalePoint is one row of the 1→k replica scaling sweep
	// (goodput, replica reads, primary CPU occupancy, push CPU).
	ReplicaScalePoint = shard.ReplicaScalePoint
)

// ReplicaSweep measures hot-block read goodput and primary CPU occupancy
// for every chain length 1..maxReplicas with a fixed reader fleet — the
// Figure-3-style scaling table (`fsbench -replicas K` prints it).
var ReplicaSweep = shard.ReplicaSweep

// Consensus-replicated control plane: a Paxos-style log whose acceptor
// state lives in rmem segments, driven entirely by one-sided READ/CAS/
// WRITE — the agreement path costs the acceptor machines no CPU beyond
// the kernel receive path.
type (
	// ConsensusConfig sizes a consensus group (acceptors, proposer lanes,
	// the log-slot window, and whether acceptors run a lease heartbeat).
	ConsensusConfig = consensus.Config
	// ConsensusGroup is one consensus cell: the config plus its acceptors.
	ConsensusGroup = consensus.Group
	// ConsensusAcceptor is one exported acceptor segment (it runs no
	// protocol code).
	ConsensusAcceptor = consensus.Acceptor
	// ConsensusProposer drives the agreement protocol for one ballot lane.
	ConsensusProposer = consensus.Proposer
	// ControlPlane is the replicated control plane over the log: one
	// state-machine replica per acceptor, applying registry, fencing,
	// lease, and membership decrees in log order.
	ControlPlane = consensus.ControlPlane
	// ControlReplica is one control-plane state machine.
	ControlReplica = consensus.Replica
	// ControlClient proposes control-plane decrees from a non-replica
	// machine; it satisfies the shard tier's ControlLog hook.
	ControlClient = consensus.Client
	// ControlCommand is one decoded control-plane decree.
	ControlCommand = consensus.Command
)

// Security (§3.5), fault tolerance (§3.7), and the SVM comparison (§6).
type (
	// SecureChannel is an importer's encrypted view of a remote segment.
	SecureChannel = secure.Channel
	// SecureVault is the owner's view of its encrypted segment.
	SecureVault = secure.Vault
	// SecureKey is a shared AES-128 segment key.
	SecureKey = secure.Key
	// CryptoCost selects hardware vs software cipher costing.
	CryptoCost = secure.CryptoCost
	// Heartbeat publishes a monotonic liveness counter.
	Heartbeat = rmem.Heartbeat
	// Watchdog detects peer failure by periodic remote reads (§3.7).
	Watchdog = rmem.Watchdog
	// SVMAgent is the Ivy-style shared-virtual-memory comparison system.
	SVMAgent = svm.Agent
	// TokenTable / TokenClient are the §5.1 distributed token manager.
	TokenTable  = tokens.Table
	TokenClient = tokens.Client
)

// ErrPeerFailed is delivered by a Watchdog when its peer stops responding.
var ErrPeerFailed = rmem.ErrPeerFailed

// ErrStaleGeneration is returned by fenced operations whose exporter has
// restarted: the descriptor's lease epoch no longer matches the exporter's
// incarnation, so the caller must re-import rather than retry.
var ErrStaleGeneration = rmem.ErrStaleGeneration

// Crash recovery (the §3.7 composition carried to its conclusion).
type (
	// RecoveryCoordinator watches one peer and turns the failure verdict
	// into fencing, registered failover steps, and a measured MTTR.
	RecoveryCoordinator = recovery.Coordinator
	// RecoveryConfig tunes detection and repair.
	RecoveryConfig = recovery.Config
	// RecoveryStep is one registered repair action.
	RecoveryStep = recovery.Step
	// WatchdogConfig tunes a watchdog's probe cadence and liveness grace.
	WatchdogConfig = rmem.WatchdogConfig
)

// Observability (the obs subsystem, reached through WithTrace / System.Obs).
type (
	// Tracer collects trace events and metrics for one simulation.
	Tracer = obs.Tracer
	// TraceConfig selects what a Tracer collects.
	TraceConfig = obs.Config
	// TraceSnapshot is a deterministic copy of a tracer's metrics.
	TraceSnapshot = obs.Snapshot
	// TraceEvent is one collected trace event.
	TraceEvent = obs.Event
)

// HardwareCrypto and SoftwareCrypto are the two §3.5 cipher cost models.
var (
	HardwareCrypto = secure.DefaultHardware
	SoftwareCrypto = secure.DefaultSoftware
)

// Workload / experiments.
type (
	// TraceGenerator draws operations from the paper's Table 1a mix.
	TraceGenerator = workload.Generator
	// TraceReplayer applies trace operations to a file clerk.
	TraceReplayer = workload.Replayer
	// TraceOp is one operation of a synthetic trace.
	TraceOp = workload.TraceOp

	// WorkloadShape selects an open-loop arrival-rate shape (steady,
	// diurnal, or flash crowd).
	WorkloadShape = workload.Shape
	// TenantSpec is one tenant class of a multi-tenant open-loop run: its
	// traffic share, operation mix, and per-op latency deadline.
	TenantSpec = workload.TenantSpec
	// Arrival is one scheduled operation of an open-loop stream.
	Arrival = workload.Arrival
	// ArrivalSchedule generates an open-loop arrival stream: virtual-time
	// arrivals independent of completions, Zipf key popularity, per-tenant
	// mixes, seeded and deterministic.
	ArrivalSchedule = workload.Schedule
	// OpenLoopConfig parameterizes RunOpenLoop.
	OpenLoopConfig = workload.OpenLoopConfig
	// OpenLoopResult is one open-loop run's measurements (JSON-stable).
	OpenLoopResult = workload.OpenLoopResult
	// SLOClass names a tenant and its latency deadline.
	SLOClass = workload.SLOClass
	// WorkloadRecorder is the one latency-accounting path every workload
	// run — open- or closed-loop — reports through.
	WorkloadRecorder = workload.Recorder
	// WorkloadReport is a recorder's summary: per-tenant quantiles, SLO
	// attainment, goodput, and Jain's fairness index.
	WorkloadReport = workload.Report
	// TenantReport is one tenant's row of a WorkloadReport.
	TenantReport = workload.TenantReport
	// QuantileSketch is the streaming base-2 latency sketch behind the
	// recorder: integer-bucketed (≤1/256 relative error), mergeable, and
	// byte-deterministic across platforms.
	QuantileSketch = stats.Sketch
	// SLOSweepConfig parameterizes RunSLOSweep (shape × skew grid).
	SLOSweepConfig = workload.SLOSweepConfig
	// BenchSLO is the machine-readable sweep document (BENCH_SLO.json).
	BenchSLO = workload.BenchSLO
	// SLOGate is one PASS/FAIL verdict over a sweep point.
	SLOGate = workload.SLOGate
)

// Open-loop arrival shapes.
const (
	ShapeSteady  = workload.ShapeSteady
	ShapeDiurnal = workload.ShapeDiurnal
	ShapeFlash   = workload.ShapeFlash
)

var (
	// RunOpenLoop executes one open-loop run: a simulated client population
	// issuing arrivals on the virtual clock against a sharded (optionally
	// replica-chained) file tier, measuring latency from scheduled arrival
	// to completion — queueing counts, no coordinated omission.
	RunOpenLoop = workload.RunOpenLoop
	// RunSLOSweep measures the shape × skew grid and returns BENCH_SLO.
	RunSLOSweep = workload.RunSLOSweep
	// GateSLO renders PASS/FAIL verdicts for a sweep document.
	GateSLO = workload.GateSLO
	// DefaultTenants is the stock three-tenant mix (departmental, video,
	// metadata-heavy microservice).
	DefaultTenants = workload.DefaultTenants
	// ParseWorkloadShape resolves "steady", "diurnal", or "flash".
	ParseWorkloadShape = workload.ParseShape
)

// Re-exported constants.
const (
	RightRead  = rmem.RightRead
	RightWrite = rmem.RightWrite
	RightCAS   = rmem.RightCAS
	RightsAll  = rmem.RightsAll
	RightsNone = rmem.RightsNone

	NotifyConditional = rmem.NotifyConditional
	NotifyAlways      = rmem.NotifyAlways
	NotifyNever       = rmem.NotifyNever

	// DX and HY are the two file-service structures of §5.
	DX = dfs.DX
	HY = dfs.HY
)

// DefaultParams returns a copy of the calibrated DECstation/FORE-ATM cost
// model; mutate the copy for ablations and pass it via WithParams.
func DefaultParams() Params { return model.Default }

// System bundles an environment, a cluster, and the per-node remote-memory
// managers — the substrate everything else builds on.
type System struct {
	Env     *Env
	Cluster *Cluster
	// Mem holds one remote-memory manager per node, indexed by node id.
	Mem []*Manager
	// Names holds the name-service clerks when WithNameService is given.
	Names []*NameClerk
	// Faults is the campaign engine when WithFaults is given (nil
	// otherwise; all its methods are nil-safe).
	Faults *FaultEngine

	// shards is the WithShards count consumed by Shards().Service.
	shards int
	// chainLen / chainPace carry WithReplicaChain to Shards().Service.
	chainLen  int
	chainPace time.Duration
}

// Option configures New.
type Option func(*sysOptions)

type sysOptions struct {
	params      *Params
	clusterOpts []cluster.Option
	nameCfg     *NameConfig
	trace       *TraceConfig
	campaign    *FaultCampaign
	reliable    bool
	recovery    bool
	shards      int
	chainLen    int
	chainPace   time.Duration
}

// WithParams overrides the cost model.
func WithParams(p Params) Option {
	return func(o *sysOptions) { o.params = &p }
}

// WithSwitch forces a switched topology even for two nodes.
func WithSwitch() Option {
	return func(o *sysOptions) { o.clusterOpts = append(o.clusterOpts, cluster.WithSwitch()) }
}

// WithFaults runs the system under a fault campaign: every link consults
// the campaign engine per cell, and scheduled crashes/restarts fire
// against the nodes. The engine is exposed as System.Faults; a restarted
// node's reliability generation is bumped automatically so its frames are
// never mistaken for its predecessor's.
func WithFaults(camp FaultCampaign) Option {
	return func(o *sysOptions) { o.campaign = &camp }
}

// WithReliability makes every import created through the system's
// managers reliable by default: sequence-numbered at-most-once delivery
// with retransmission on timeout (§3.7). Individual imports can still opt
// out with SetReliable(false).
func WithReliability() Option {
	return func(o *sysOptions) { o.reliable = true }
}

// WithRecovery arms the system for end-to-end crash recovery: every import
// is reliable AND fenced by default (descriptors carry the exporter's
// incarnation epoch), and a node restarted by the fault campaign comes
// back as a cold incarnation — exports wiped, epoch bumped — so operations
// against its dead predecessor fail fast with ErrStaleGeneration instead
// of timing out. Pair with a RecoveryCoordinator to repair what the fences
// report.
func WithRecovery() Option {
	return func(o *sysOptions) { o.reliable, o.recovery = true, true }
}

// WithShards sets the shard count Shards().Service builds: the file
// namespace is partitioned across nodes 0..n-1 by consistent hashing.
// The system must have at least n nodes.
func WithShards(n int) Option {
	return func(o *sysOptions) { o.shards = n }
}

// WithReplicaChain arms the sharded file tier with a k-member replica
// read chain per shard: Shards().Service attaches one chain to every
// founding shard, its members hosted on the nodes directly after the
// shard primaries (shard s's members sit on nodes S+s*k .. S+(s+1)*k-1
// for S shards). interval paces the primary's push daemon and the
// members' forwarders; 0 picks a 100µs default. The system must have
// enough nodes for the primaries, the members, and the clerks. For
// non-uniform layouts attach chains explicitly with Replicas().Attach.
func WithReplicaChain(k int, interval time.Duration) Option {
	return func(o *sysOptions) { o.chainLen, o.chainPace = k, interval }
}

// WithNameService boots a name clerk on every node.
func WithNameService(cfg NameConfig) Option {
	return func(o *sysOptions) { o.nameCfg = &cfg }
}

// WithTrace attaches an observability tracer to the system before any
// simulated activity: every layer (scheduler, network, remote memory, file
// service) then records metrics — and, with cfg.Events set, a trace
// exportable as Chrome trace_event JSON. Read it back with Obs.
func WithTrace(cfg TraceConfig) Option {
	return func(o *sysOptions) { o.trace = &cfg }
}

// New builds an n-node system: two nodes are wired back-to-back (the
// paper's testbed), larger clusters go through a cell switch.
func New(n int, opts ...Option) *System {
	var o sysOptions
	for _, opt := range opts {
		opt(&o)
	}
	params := &model.Default
	if o.params != nil {
		params = o.params
	}
	env := des.NewEnv()
	if o.trace != nil {
		env.SetTracer(obs.New(*o.trace))
	}
	var eng *faults.Engine
	if o.campaign != nil {
		eng = faults.NewEngine(env, *o.campaign)
		o.clusterOpts = append(o.clusterOpts, cluster.WithFaultEngine(eng))
	}
	cl := cluster.New(env, params, n, o.clusterOpts...)
	sys := &System{Env: env, Cluster: cl, Faults: eng, shards: o.shards,
		chainLen: o.chainLen, chainPace: o.chainPace}
	for _, node := range cl.Nodes {
		m := rmem.NewManager(node)
		if o.reliable {
			m.SetReliableDefault(true)
		}
		if o.recovery {
			m.SetFenceDefault(true)
			// A campaign restart is a full cold boot: exports wiped,
			// incarnation bumped, stale descriptors fenced.
			eng.OnRecover(node.ID, m.Restart)
		} else {
			// A node restarted by the campaign is a new incarnation: its
			// reliable frames must not look like its predecessor's.
			eng.OnRecover(node.ID, m.BumpGeneration)
		}
		sys.Mem = append(sys.Mem, m)
	}
	if o.nameCfg != nil {
		peers := make([]int, n)
		for i := range peers {
			peers[i] = i
		}
		for _, m := range sys.Mem {
			sys.Names = append(sys.Names, nameserver.New(m, peers, *o.nameCfg))
		}
	}
	return sys
}

// Spawn starts a simulated process.
func (s *System) Spawn(name string, fn func(*Proc)) { s.Env.Spawn(name, fn) }

// Run drains the simulation (returns an error on deadlock).
func (s *System) Run() error { return s.Env.Run() }

// RunFor advances the simulation by d of virtual time.
func (s *System) RunFor(d time.Duration) error {
	return s.Env.RunUntil(s.Env.Now().Add(d))
}

// Obs returns the system's observability tracer, or nil when the system
// was built without WithTrace. All Tracer methods are nil-safe.
func (s *System) Obs() *Tracer { return s.Env.Tracer() }

// File-service construction options, re-exported for facade users.
type (
	// FileServerOption configures Files().Server (e.g. WithStore).
	FileServerOption = dfs.ServerOption
	// FileClerkOption configures Files().Clerk (e.g. WithReliable).
	FileClerkOption = dfs.ClerkOption
)

var (
	// WithStore builds the file service over an existing store (§3.7).
	WithStore = dfs.WithStore
	// WithReliable routes all clerk→server transfers through the
	// reliability layer (§3.7).
	WithReliable = dfs.WithReliable
	// WithReliableReplies does the same for the server's outbound writes.
	WithReliableReplies = dfs.WithReliableReplies
	// WithFencing stamps every clerk descriptor with the server's
	// incarnation epoch, for fast typed failure after a server restart.
	WithFencing = dfs.WithFencing
)

// ---------------------------------------------------------------------------
// Builder facade. Each System method below returns a small API value scoped
// to one subsystem; its methods resolve nodes and managers from the system,
// so callers name nodes by index instead of threading managers around.

// FilesAPI builds the single-server file service of §5: servers and
// clerks. Obtain one with System.Files.
type FilesAPI struct{ sys *System }

// Files returns the file-service builder.
func (s *System) Files() FilesAPI { return FilesAPI{s} }

// Server builds the file service on node; call from a Proc.
func (f FilesAPI) Server(p *Proc, node int, geo FileGeometry, opts ...FileServerOption) *FileServer {
	return dfs.NewServer(p, f.sys.Mem[node], len(f.sys.Cluster.Nodes), geo, opts...)
}

// Clerk wires a clerk on node to srv; call from a Proc.
func (f FilesAPI) Clerk(p *Proc, node int, srv *FileServer, mode FileMode, opts ...FileClerkOption) *FileClerk {
	return dfs.NewClerk(p, f.sys.Mem[node], srv, mode, opts...)
}

// ShardsAPI builds the sharded, elastic file tier: the namespace
// partitioned across N servers by consistent hashing, clerks that route
// per handle, and a fleet manager that grows and shrinks the fleet on
// request. Obtain one with System.Shards.
type ShardsAPI struct{ sys *System }

// Shards returns the sharded-file-tier builder.
func (s *System) Shards() ShardsAPI { return ShardsAPI{s} }

// Service builds the sharded file tier on nodes 0..S-1 (S from WithShards,
// default 1): S FileServers over one shared store, a consistent-hash ring
// assigning every handle an owner shard. Call from a Proc; reach it with
// clerks from Clerk, and inspect or subscribe to the fleet's composition
// through ShardService.Membership.
// With WithReplicaChain, every founding shard also gets its k-member
// replica read chain attached before the service is returned.
func (sh ShardsAPI) Service(p *Proc, geo FileGeometry, opts ...FileServerOption) *ShardService {
	n := sh.sys.shards
	if n <= 0 {
		n = 1
	}
	svc := shard.NewService(p, sh.sys.Mem[:n], len(sh.sys.Cluster.Nodes), geo, opts...)
	if k := sh.sys.chainLen; k > 0 {
		for s := 0; s < n; s++ {
			members := make([]int, k)
			for i := range members {
				members[i] = n + s*k + i
			}
			if err := sh.sys.Replicas().Attach(p, svc, s, members, sh.sys.chainPace); err != nil {
				// A WithReplicaChain layout that doesn't fit the cluster is a
				// construction error, same class as indexing a missing node.
				panic("netmem: WithReplicaChain: " + err.Error())
			}
		}
	}
	return svc
}

// Clerk wires a sharding-aware clerk on node to svc: every operation
// routes to the shard owning its handle, re-resolving on each membership
// epoch. Layer the token-coherent block cache with WithShardTokenCache
// (and connect multiple clerks with ConnectShardTokenPeers). Call from a
// Proc.
func (sh ShardsAPI) Clerk(p *Proc, node int, svc *ShardService, mode FileMode, opts ...ShardClerkOption) *ShardFileClerk {
	return shard.NewClerk(p, sh.sys.Mem[node], svc, mode, opts...)
}

// Elastic gives svc a fleet manager over spare shard slots hosted on the
// pool nodes (by index): ShardManager.ScaleTo joins spares in pool order
// or drains the newest member, migrating blocks donor→owner with plain
// one-sided rmem WRITEs.
func (sh ShardsAPI) Elastic(svc *ShardService, pool []int) *ShardManager {
	mgrs := make([]*Manager, len(pool))
	for i, n := range pool {
		mgrs[i] = sh.sys.Mem[n]
	}
	return shard.NewManager(svc, mgrs)
}

// ReplicasAPI builds the replica read tier: per-shard k-member chains
// that fan hot-block reads out across member nodes while the primary's
// CPU stays flat. Obtain one with System.Replicas.
type ReplicasAPI struct{ sys *System }

// Replicas returns the replica-read-tier builder.
func (s *System) Replicas() ReplicasAPI { return ReplicasAPI{s} }

// Attach builds slot's replica chain on the named member nodes (each
// hosts one ChainReplica), wires it under the shard's primary, and
// teaches every token-caching clerk of svc to read from it. interval
// paces the primary's push daemon and the members' forwarders; 0 picks
// a 100µs default. Call from a Proc, after the clerks that should use
// the chain exist (later clerks wire themselves on construction).
func (r ReplicasAPI) Attach(p *Proc, svc *ShardService, slot int, members []int, interval time.Duration) error {
	if interval <= 0 {
		interval = 100 * time.Microsecond
	}
	mgrs := make([]*Manager, len(members))
	for i, n := range members {
		mgrs[i] = r.sys.Mem[n]
	}
	return svc.AttachReplicas(p, slot, mgrs, interval)
}

// ConsensusAPI builds the Paxos-on-CAS replicated log and the control
// plane over it. Obtain one with System.Consensus.
type ConsensusAPI struct{ sys *System }

// Consensus returns the replicated-control-plane builder.
func (s *System) Consensus() ConsensusAPI { return ConsensusAPI{s} }

// Group exports one acceptor per listed node and returns the wired cell;
// call from a Proc. With no nodes given, nodes 0..cfg.Acceptors-1 host
// the acceptors.
func (c ConsensusAPI) Group(p *Proc, cfg ConsensusConfig, nodes ...int) *ConsensusGroup {
	if len(nodes) == 0 {
		n := cfg.Acceptors
		if n <= 0 {
			n = 3
		}
		for i := 0; i < n; i++ {
			nodes = append(nodes, i)
		}
	}
	mgrs := make([]*Manager, len(nodes))
	for i, n := range nodes {
		mgrs[i] = c.sys.Mem[n]
	}
	return consensus.NewGroup(p, cfg, mgrs...)
}

// Proposer wires ballot lane's proposer on node to g; call from a Proc.
// Use this for raw log access; ControlPlane and Client cover the common
// cases.
func (c ConsensusAPI) Proposer(p *Proc, node, lane int, g *ConsensusGroup) *ConsensusProposer {
	return consensus.NewProposer(p, c.sys.Mem[node], lane, g)
}

// ControlPlane builds one state-machine replica per acceptor of g. When
// the system was built WithNameService, each replica applies registry and
// fencing decrees to the name clerk on its acceptor's node — so any
// surviving replica can answer lookups after another's machine dies. Call
// from a Proc, then Start the plane to seat the first lease.
func (c ConsensusAPI) ControlPlane(p *Proc, g *ConsensusGroup) *ControlPlane {
	var clerks []*NameClerk
	if c.sys.Names != nil {
		clerks = make([]*NameClerk, len(g.Accs))
		for i, a := range g.Accs {
			clerks[i] = c.sys.Names[a.Node()]
		}
	}
	return consensus.NewControlPlane(p, g, clerks)
}

// Client allocates the next free proposer lane for a machine that is not
// a replica; call from a Proc. The client satisfies the shard tier's
// ControlLog hook (ShardService.ReplicateControl) and the recovery
// coordinator's VerdictLog.
func (c ConsensusAPI) Client(p *Proc, node int, cp *ControlPlane) *ControlClient {
	return cp.NewClient(p, c.sys.Mem[node])
}

// HealthAPI builds the §3.7 failure-detection and recovery stack:
// heartbeats, watchdogs, and recovery coordinators. Obtain one with
// System.Health.
type HealthAPI struct{ sys *System }

// Health returns the failure-detection builder.
func (s *System) Health() HealthAPI { return HealthAPI{s} }

// Heartbeat publishes a liveness counter at (seg, off) from node; the
// segment must already grant read rights to the watchers (§3.7).
func (h HealthAPI) Heartbeat(node int, seg *Segment, off int, interval time.Duration) *Heartbeat {
	return rmem.StartHeartbeat(h.sys.Mem[node], seg, off, interval)
}

// Watchdog starts monitoring the heartbeat word at off within imp from
// node; onFail runs once if the peer stops advancing it (§3.7).
func (h HealthAPI) Watchdog(node int, imp *Import, off int, interval, timeout time.Duration,
	onFail func(p *Proc, err error)) *Watchdog {
	return rmem.NewWatchdog(h.sys.Mem[node], imp, off, interval, timeout, onFail)
}

// Recovery creates a recovery coordinator on node watching peer: arm it
// with OnFailover steps, then start detection with Watch over an imported
// heartbeat word. MTTR and rebind counts are measured on
// the coordinator and mirrored to the tracer ("recovery.mttr",
// "recovery.rebinds").
func (h HealthAPI) Recovery(node, peer int, cfg RecoveryConfig) *RecoveryCoordinator {
	return recovery.New(h.sys.Mem[node], peer, cfg)
}

// TokensAPI builds the §5.1 distributed token manager. Obtain one with
// System.Tokens.
type TokensAPI struct{ sys *System }

// Tokens returns the token-manager builder.
func (s *System) Tokens() TokensAPI { return TokensAPI{s} }

// Table creates the write-token table on node, sized for n tokens; call
// from a Proc.
func (t TokensAPI) Table(p *Proc, node, n int) *TokenTable {
	return tokens.NewTable(p, t.sys.Mem[node], n)
}

// Client wires a token client on node to the table at home (coordinates
// from TokenTable.Coordinates or the name service); call from a Proc.
func (t TokensAPI) Client(p *Proc, node, home int, tabID, tabGen uint16, tabSize, slotNodes int) *TokenClient {
	return tokens.NewClient(p, t.sys.Mem[node], home, tabID, tabGen, tabSize, slotNodes)
}

// SecureAPI builds the §3.5 encrypted-segment layer. Obtain one with
// System.Secure.
type SecureAPI struct{ sys *System }

// Secure returns the encrypted-segment builder.
func (s *System) Secure() SecureAPI { return SecureAPI{s} }

// Vault wraps seg (exported from node) as an encrypted segment under key.
func (se SecureAPI) Vault(node int, seg *Segment, key SecureKey, cost CryptoCost) *SecureVault {
	return secure.NewVault(se.sys.Cluster.Nodes[node], seg, key, cost)
}

// Channel is the importer's end of an encrypted segment. The import
// already names its node, so no index is needed.
func (se SecureAPI) Channel(imp *Import, key SecureKey, cost CryptoCost) *SecureChannel {
	return secure.NewChannel(imp, key, cost)
}

// SVMAPI builds the Ivy-style shared-virtual-memory comparison system of
// §6. Obtain one with System.SVM.
type SVMAPI struct{ sys *System }

// SVM returns the shared-virtual-memory builder.
func (s *System) SVM() SVMAPI { return SVMAPI{s} }

// Agent creates the SVM agent on node; manager names the owning node,
// npages the shared address-space size.
func (v SVMAPI) Agent(node, manager, npages int) *SVMAgent {
	return svm.New(v.sys.Cluster.Nodes[node], manager, npages)
}

// WorkloadAPI builds synthetic-workload drivers: Table 1a trace
// generators, replayers bound to this system's clerks, open-loop arrival
// schedules, and the shared SLO recorder. The self-contained experiment
// drivers (RunOpenLoop, RunSLOSweep) build their own systems; this API is
// for driving load through a system you assembled yourself. Obtain one
// with System.Workload.
type WorkloadAPI struct{ sys *System }

// Workload returns the workload builder.
func (s *System) Workload() WorkloadAPI { return WorkloadAPI{s} }

// Generator draws operations from the paper's Table 1a mix over a
// files × dirs population; identical seeds yield identical traces.
func (WorkloadAPI) Generator(seed int64, files, dirs int) *TraceGenerator {
	return workload.NewGenerator(seed, files, dirs)
}

// Schedule materializes cfg's open-loop arrival stream over a files × dirs
// population: virtual-time arrivals independent of completions, shaped
// rates, Zipf key popularity, per-tenant mixes. Pull arrivals with Next.
func (WorkloadAPI) Schedule(cfg OpenLoopConfig, files, dirs int) *ArrivalSchedule {
	cfg.Fill()
	return workload.NewSchedule(cfg, files, dirs)
}

// Recorder builds the shared latency/SLO accounting sink: hand it to
// TraceReplayer.Rec (closed-loop) or feed it directly (open-loop), then
// summarize with WorkloadRecorder.Report.
func (WorkloadAPI) Recorder(classes ...SLOClass) *WorkloadRecorder {
	return workload.NewRecorder(classes...)
}
