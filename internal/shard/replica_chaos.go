package shard

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
)

// Replica-chain chaos harness: the Figure 2 mix against one shard backed
// by a k-member replica chain, with the clerk's read path going through
// the chain (token cache + replica reads) and failover promoting the
// most-advanced of k members, not the one member of a hot standby. Built
// for the `replicalag` campaign — per-link delays starve deep chain members while
// the head stays current, then the primary dies — but runs any campaign.

// ReplicaChaosConfig selects one replica chaos run.
type ReplicaChaosConfig struct {
	// Campaign is the fault schedule. The rig places the primary on node
	// 0, the clerk on node 1, the failover watcher on node 2, and chain
	// members on nodes 3..2+Replicas.
	Campaign faults.Campaign
	// Seed seeds the simulation environment; 0 means des.DefaultSeed.
	Seed int64
	// Mode is the file-service structure (DX for the paper's proposal).
	Mode dfs.Mode
	// Replicas is the chain length (>= 1).
	Replicas int
}

// ReplicaChaosResult extends the chaos result with the chain's outcome.
type ReplicaChaosResult struct {
	dfs.ChaosResult
	Replicas int
	// PromotedNode is the chain member the failover promoted (-1: none);
	// PromotedApplied its applied watermark at promotion — the evidence the
	// election picked the most-advanced member.
	PromotedNode    int
	PromotedApplied uint64
	// HeadApplied / TailApplied snapshot the extremes of the members'
	// applied watermarks just before the crash window — nonzero spread
	// proves the campaign actually starved the deep members.
	HeadApplied, TailApplied uint64
	// ReplicaReads counts clerk block fetches served by chain members
	// across the measured mix.
	ReplicaReads int64
	// Spliced counts mid-chain members dropped by splices.
	Spliced int64
}

// RunReplicaLagChaos measures the Figure 2 mix on the replica rig twice —
// fault-free baseline, then under the campaign — both with the token
// cache, the reliability layer, fencing, and chain failover armed.
func RunReplicaLagChaos(cfg ReplicaChaosConfig) (*ReplicaChaosResult, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("shard: replica chaos needs at least one replica, got %d", cfg.Replicas)
	}
	base, leg, err := dfs.RunLegs("shard: replica chaos", cfg.Campaign, func(camp *faults.Campaign) (*chaosRig, error) {
		return runReplicaMix(camp, cfg.Seed, cfg.Mode, cfg.Replicas)
	})
	if err != nil {
		return nil, err
	}
	return &ReplicaChaosResult{
		ChaosResult:     leg.Result(cfg.Campaign.Name, cfg.Mode, base.Leg, leg.svc.Coordinators()...),
		Replicas:        cfg.Replicas,
		PromotedNode:    leg.svc.PromotedNode,
		PromotedApplied: leg.svc.PromotedApplied,
		HeadApplied:     leg.headApplied,
		TailApplied:     leg.tailApplied,
		ReplicaReads:    leg.clerk.ReplicaReads,
		Spliced:         leg.svc.ChainSplices,
	}, nil
}

// runSteps advances env in step-sized slices until stop() reports true or
// the horizon lands. The chain's push, forwarder, and heartbeat daemons
// never go idle, so running a replica rig to a generous fixed horizon
// simulates millions of wakeups past the last useful event; the step
// quantization keeps the stop point — and with it the executed-event
// count — deterministic for a given seed. A stop that never comes ends
// the loop at the horizon.
func runSteps(env *des.Env, step, horizon time.Duration, stop func() bool) error {
	end := des.Time(horizon)
	for !stop() && env.Now() < end {
		next := env.Now().Add(step)
		if next > end {
			next = end
		}
		ran := env.Events()
		if err := env.RunUntil(next); err != nil {
			return err
		}
		if env.Events() == ran {
			// RunUntil leaves the clock at the last executed event, so a
			// step that runs none would repeat forever: pin an empty event
			// on the boundary to move the clock there.
			env.ScheduleFunc(next, func() {})
			if err := env.RunUntil(next); err != nil {
				return err
			}
		}
	}
	return nil
}

// runReplicaMix runs one leg: the primary on node 0, the clerk on node 1,
// the failover watcher on node 2, chain members on nodes 3 and up.
func runReplicaMix(camp *faults.Campaign, seed int64, mode dfs.Mode, replicas int) (*chaosRig, error) {
	nodes := 3 + replicas // primary, clerk, watcher, chain members
	r := &chaosRig{Leg: dfs.NewLeg(camp, seed, nodes)}
	mgrs := r.Mgrs
	r.Engine.OnRecover(0, mgrs[0].Restart)

	err := r.Setup("replicachaos.setup", 190*time.Millisecond, func(p *des.Proc) error {
		r.svc = NewService(p, mgrs[:1], nodes, dfs.Geometry{}, dfs.WithReliableReplies())
		r.clerk = NewClerk(p, mgrs[1], r.svc, mode,
			WithSubOptions(dfs.WithReliable(), dfs.WithFencing()), WithTokenCache())
		if err := r.warm(mode); err != nil {
			return err
		}
		if err := r.svc.AttachReplicas(p, 0, mgrs[3:], 100*time.Microsecond); err != nil {
			return err
		}
		// The watcher gets its own otherwise-idle node: its probe reads
		// must not queue behind the clerk's bulk transfers, or fabric
		// congestion during the mix reads as a death verdict.
		_, err := r.svc.ArmChainFailover(p, 0, mgrs[2], 100*time.Microsecond)
		return err
	})
	if err != nil {
		return nil, err
	}

	var mixDone bool
	r.Env.Spawn("replicachaos.mix", func(p *des.Proc) {
		defer func() { mixDone = true }()
		file := r.mix.Tree.File
		// A fresh write-behind burst just before the campaign's delay
		// window: the resulting chain re-pushes are what the per-link
		// delays starve, so the members' applied watermarks spread and the
		// crash finds genuinely lagging deep members.
		p.SleepUntil(des.Time(190*time.Millisecond + 100*time.Microsecond))
		// Healthy-path evidence first: the chain converged on the warm
		// frames during setup and no write is in flight, so a re-read with
		// the block copies dropped (tokens and their stamped watermarks
		// kept) must move the bytes from a chain member. The campaign then
		// starves and decapitates exactly the tier this proves was serving.
		if _, err := r.clerk.Read(p, file, 0, 16384); err == nil {
			r.clerk.FlushLocal()
			r.clerk.DropTokenCache()
			_, _ = r.clerk.Read(p, file, 0, 16384)
		}
		lag := make([]byte, 16384)
		for i := range lag {
			lag[i] = byte(254 - i%251) // distinct from the warm pattern, so every bucket re-pushes
		}
		if err := r.clerk.Write(p, file, 0, lag); err == nil {
			_, _ = r.svc.Sync(p)
		}
		for _, cr := range r.svc.Replicas(0) {
			a := cr.Applied()
			if r.headApplied == 0 || a > r.headApplied {
				r.headApplied = a
			}
			if r.tailApplied == 0 || a < r.tailApplied {
				r.tailApplied = a
			}
		}
		r.RunMix(p, r.mix, 0, r.awaitSlot(func(dfs.OpSpec) int { return 0 }))
	})
	// Heartbeat, chain push, and forwarder daemons never idle: the rig
	// needs a finite horizon, gated on the mix completing plus a settle
	// slice for in-flight chain acks and the failover coordinator's tail.
	if err := runSteps(r.Env, 10*time.Millisecond, 3*time.Second, func() bool { return mixDone }); err != nil {
		return nil, err
	}
	if mixDone {
		if err := r.Env.RunUntil(r.Env.Now().Add(100 * time.Millisecond)); err != nil {
			return nil, err
		}
	}
	return r, nil
}
