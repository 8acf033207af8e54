package shard

import (
	"errors"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/rmem"
)

// Sharded chaos harness: the Figure 2 operation mix run against the
// sharded tier under a fault campaign. The single-server harness
// (dfs.RunChaos) measures one server's degradation; this one measures the
// sharded property — a crash takes out one shard's node, its standby takes
// over behind the same recovery coordinator, and operations owned by the
// surviving shards keep flowing throughout.

// ChaosConfig selects one sharded chaos run.
type ChaosConfig struct {
	// Campaign is the fault schedule. Its crash entries name node ids;
	// shard i runs on node i, so the stock campaigns (which crash node 0)
	// hit shard 0.
	Campaign faults.Campaign
	// Seed seeds the simulation environment; 0 means des.DefaultSeed.
	Seed int64
	// Mode is the file-service structure (DX for the paper's proposal).
	Mode dfs.Mode
	// Shards is the shard count (>= 1).
	Shards int
}

// ChaosResult extends the single-server result with the shard count. The
// embedded fields (ops, goodput, retries, MTTR, metric snapshot) mean the
// same things; MTTR covers the crashed shard only — the others never go
// down, which is the point.
type ChaosResult struct {
	dfs.ChaosResult
	Shards int
	// Strays / Repaired report the post-campaign divergence audit: resident
	// data buckets found on a shard that no longer owns their key (want 0),
	// and how many of those the audit evicted.
	Strays, Repaired int
	// JoinAttempted / JoinAborted report the mid-campaign elasticity probe
	// (campaigns that crash a node beyond the failover rig spawn a joiner
	// there): whether AddShard ran, and whether it rolled back because the
	// joiner died mid-cutover.
	JoinAttempted, JoinAborted bool
}

// RunChaos measures the Figure 2 mix on a sharded rig twice — fault-free
// baseline, then under the campaign — with the reliability layer on and a
// hot standby (a one-member replica chain) armed per shard in both legs
// (identical topology, identical background traffic).
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: chaos needs at least one shard, got %d", cfg.Shards)
	}
	failover := len(cfg.Campaign.Crashes) > 0
	base, leg, err := dfs.RunLegs("shard: chaos", cfg.Campaign, func(camp *faults.Campaign) (*chaosRig, error) {
		return runChaosMix(camp, cfg.Seed, cfg.Mode, cfg.Shards, failover)
	})
	if err != nil {
		return nil, err
	}
	if leg.divErr != nil {
		return nil, fmt.Errorf("shard: chaos divergence audit: %w", leg.divErr)
	}
	return &ChaosResult{
		ChaosResult: leg.Result(cfg.Campaign.Name, cfg.Mode, base.Leg, leg.svc.Coordinators()...),
		Shards:      cfg.Shards, Strays: leg.strays, Repaired: leg.repaired,
		JoinAttempted: leg.joinDone, JoinAborted: leg.joinErr != nil,
	}, nil
}

// chaosRig is one leg of a sharded rig: the service, its clerk, and the
// mix driving them, plus the rig's audit outcomes.
type chaosRig struct {
	*dfs.Leg
	svc   *Service
	clerk *Clerk
	mix   *dfs.Mix

	joinDone bool  // the mid-campaign AddShard probe returned
	joinErr  error // ... and this is what it said (nil = join stuck)

	strays, repaired int   // post-campaign divergence audit
	divErr           error // ... and its failure, if any

	headApplied, tailApplied uint64 // replica rig: chain spread at the crash
}

// errNoCoordinator gives up replays of an op whose shard has no failover
// coordinator to wait for.
var errNoCoordinator = errors.New("shard: no failover coordinator")

// awaitSlot returns the replay gate for ops owned by slot(spec): park
// until that shard's coordinator finishes any failover in progress.
func (r *chaosRig) awaitSlot(slot func(dfs.OpSpec) int) func(*des.Proc, dfs.OpSpec) error {
	return func(p *des.Proc, spec dfs.OpSpec) error {
		rec := r.svc.Coordinators()[slot(spec)]
		if rec == nil {
			return errNoCoordinator
		}
		return rec.AwaitRestored(p, time.Second)
	}
}

// warm builds the mix over the service, seeding the shared store with the
// Figure 2/3 tree and warming each record into its owning shard's cache.
func (r *chaosRig) warm(mode dfs.Mode) (err error) {
	r.mix, err = dfs.NewMix(r.clerk, mode, r.svc.Store, func() dfs.MixServer { return r.svc }, dfs.CyclicPattern(16384))
	return err
}

// runChaosMix runs one leg: shard i on node i, the clerk on node S, and
// (with failover) shard i's standby, a one-member chain, on node S+1+i.
func runChaosMix(camp *faults.Campaign, seed int64, mode dfs.Mode, shards int, failover bool) (*chaosRig, error) {
	nodes := shards + 1
	if failover {
		nodes = 2*shards + 1
	}
	// A campaign crash aimed beyond the failover rig is the joiner-death
	// schedule: allocate that node and plan a mid-campaign AddShard there,
	// timed so the crash lands inside the cutover.
	joiner, joinAt := -1, des.Time(0)
	if camp != nil {
		for _, cr := range camp.Crashes {
			if cr.Node >= nodes {
				joiner = cr.Node
				joinAt = des.Time(cr.At - time.Millisecond)
				if cr.Node+1 > nodes {
					nodes = cr.Node + 1
				}
			}
		}
	}
	r := &chaosRig{Leg: dfs.NewLeg(camp, seed, nodes)}
	mgrs := r.Mgrs
	// A recovered shard node reboots cold: its restarted manager fences
	// every descriptor from the dead incarnation (nil-safe without engine).
	for i := 0; i < shards; i++ {
		r.Engine.OnRecover(i, mgrs[i].Restart)
	}

	mc := mgrs[shards]
	err := r.Setup("shardchaos.setup", 200*time.Millisecond, func(p *des.Proc) error {
		r.svc = NewService(p, mgrs[:shards], nodes, dfs.Geometry{}, dfs.WithReliableReplies())
		copts := []dfs.ClerkOption{dfs.WithReliable()}
		if failover {
			copts = append(copts, dfs.WithFencing())
		}
		r.clerk = NewClerk(p, mc, r.svc, mode, WithSubOptions(copts...))
		if err := r.warm(mode); err != nil {
			return err
		}
		if failover {
			// Each shard's hot standby is a one-member chain. The clerk
			// rebinds itself through its Membership subscription when the
			// coordinator publishes the slot move.
			for i := 0; i < shards; i++ {
				if err := r.svc.AttachReplicas(p, i, []*rmem.Manager{mgrs[shards+1+i]}, 100*time.Microsecond); err != nil {
					return err
				}
				if _, err := r.svc.ArmChainFailover(p, i, mc, 100*time.Microsecond); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if joiner >= 0 {
		jm := mgrs[joiner]
		r.Env.Spawn("shardchaos.join", func(p *des.Proc) {
			p.SleepUntil(joinAt)
			// The joiner dies 1ms in; AddShard must roll the cutover back
			// and leave the original ring serving. The error is the
			// expected outcome, not a harness failure.
			_, r.joinErr = r.svc.AddShard(p, jm)
			r.joinDone = true
		})
	}

	r.Env.Spawn("shardchaos.mix", func(p *des.Proc) {
		// Anchor at t = 200ms so the campaign's flap and crash windows land
		// inside the measured run.
		p.SleepUntil(des.Time(200 * time.Millisecond))
		// A failed op's replay waits on the coordinator of the shard its
		// key routes to.
		r.RunMix(p, r.mix, 0, r.awaitSlot(r.shardOf))
		// Post-campaign divergence audit (untimed): after crashes, failovers,
		// and replays, every resident data bucket must still live on the
		// shard that owns its key.
		r.strays, r.repaired, r.divErr = r.svc.CheckDivergence(p)
	})
	// Heartbeat/watchdog/chain daemons never idle, so the failover rig
	// needs a finite horizon.
	horizon := des.Time(120 * time.Second)
	if failover {
		horizon = des.Time(3 * time.Second)
	}
	if err := r.Env.RunUntil(horizon); err != nil {
		return nil, err
	}
	return r, nil
}

// shardOf maps a mix operation to the shard its key routes to — the one
// whose coordinator can unblock a replay.
func (r *chaosRig) shardOf(spec dfs.OpSpec) int {
	t := r.mix.Tree
	switch spec.Op {
	case dfs.OpLookup, dfs.OpReadDir:
		return r.svc.Owner(t.Dir)
	case dfs.OpReadLink:
		return r.svc.Owner(t.Link)
	default:
		return r.svc.Owner(t.File)
	}
}
