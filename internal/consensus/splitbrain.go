package consensus

import (
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/recovery"
	"netmem/internal/rmem"
)

// Split-brain harness: the failure the quorum-fenced failover exists
// for. A partition isolates the DFS primary from everything — replicas,
// standby, clerk — while the primary itself stays perfectly healthy.
// The watchdog's verdict is therefore *wrong* in the way that matters:
// acting on it directly would promote the standby while the old primary
// keeps applying write-behind state, two writers diverging silently.
// Here the verdict is only a proposal; the takeover runs because the
// fence decree committed on the replica quorum, and the old primary —
// unable to refresh its write lease against that same quorum — refuses
// its own Sync before the standby touches a byte. Exactly one writer
// survives, and the log was the only authority either side consulted.

// SplitBrainConfig selects one split-brain run.
type SplitBrainConfig struct {
	// Campaign is the fault schedule; the stock "splitbrain" campaign
	// partitions node 3 (the primary) from nodes 0-2 (replicas), 4 (the
	// standby), and 5 (the clerk), healing at 260ms.
	Campaign faults.Campaign
	// Seed seeds the simulation environment; 0 means des.DefaultSeed.
	Seed int64
	// Mode is the file-service structure (DX for the paper's proposal).
	Mode dfs.Mode
}

// SplitBrainResult is one full split-brain run: the data plane's
// byte-verified Figure 2 mix in the embedded result (its MTTR runs from
// last-known-alive to takeover complete), the fencing path and the
// one-writer audit beside it.
type SplitBrainResult struct {
	dfs.ChaosResult

	// The fencing path.
	FenceLatency time.Duration // watchdog verdict → fence decree committed
	Aborted      bool          // fence decree failed; failover never ran

	// The one-writer audit.
	Denials       int64 // old primary's refused mutations while fenced
	OldSyncFrozen bool  // old primary applied nothing after the partition
	OldDeposed    bool  // old lease permanently lost after the heal
	NewWriterOK   bool  // promoted standby wrote unimpeded
}

// OneWriter reports the headline property: the old primary stopped
// writing before the new one started, and never wrote again.
func (r *SplitBrainResult) OneWriter() bool {
	return r.OldSyncFrozen && r.NewWriterOK && r.Denials > 0
}

// Rig geometry: control replicas on nodes 0..2, the primary file server
// on node 3, its hot standby on node 4, the clerk (who also runs the
// recovery coordinator and the consensus client) on node 5.
const (
	sbReplicas    = 3
	sbPrimaryNode = 3
	sbBackupNode  = 4
	sbClerkNode   = 5
	sbNodes       = 6
)

// sbLeaseTTL / sbLeaseRefresh tune the primary's write lease. The TTL is
// also the coordinator's FenceWait: by the time the standby is promoted,
// an unreachable primary's lease has provably lapsed.
const (
	sbLeaseTTL     = time.Millisecond
	sbLeaseRefresh = 250 * time.Microsecond
)

// RunSplitBrain measures the mix twice — fault-free baseline, then under
// the campaign — on identical topologies (lease daemons and chain
// traffic run in both legs).
func RunSplitBrain(cfg SplitBrainConfig) (*SplitBrainResult, error) {
	base, leg, err := dfs.RunLegs("consensus: splitbrain", cfg.Campaign, func(camp *faults.Campaign) (*sbLeg, error) {
		return runSplitBrainMix(camp, cfg.Seed, cfg.Mode)
	})
	if err != nil {
		return nil, err
	}
	res := &SplitBrainResult{
		ChaosResult:   leg.Result(cfg.Campaign.Name, cfg.Mode, base.Leg),
		FenceLatency:  time.Duration(leg.rec.FenceLatency()),
		Aborted:       leg.rec.Aborted(),
		Denials:       leg.denials,
		OldSyncFrozen: leg.oldSyncFrozen,
		OldDeposed:    leg.oldDeposed,
		NewWriterOK:   leg.newWriterOK,
	}
	res.MTTR = time.Duration(leg.rec.MTTR())
	return res, nil
}

// sbLeg is one measured leg.
type sbLeg struct {
	*dfs.Leg
	rec *recovery.Coordinator

	denials       int64
	oldSyncFrozen bool
	oldDeposed    bool
	newWriterOK   bool
}

func runSplitBrainMix(camp *faults.Campaign, seed int64, mode dfs.Mode) (*sbLeg, error) {
	leg := &sbLeg{Leg: dfs.NewLeg(camp, seed, sbNodes)}
	mgrs := leg.Mgrs
	var (
		plane    *dfs.ServerPlane
		oldSrv   *dfs.Server
		oldLease *WriteLease
	)
	err := leg.Setup("splitbrain.setup", 200*time.Millisecond, func(p *des.Proc) (err error) {
		g := NewGroup(p, Config{Acceptors: sbReplicas, Proposers: sbReplicas + 1, Slots: 1024},
			mgrs[:sbReplicas]...)
		cp := NewControlPlane(p, g, nil)
		cp.EnableFenceTable(p, sbNodes)
		if err := cp.Start(p); err != nil {
			return err
		}

		plane, err = dfs.NewServerPlane(p, mgrs[sbPrimaryNode], mgrs[sbClerkNode], sbNodes, mode,
			dfs.CyclicPattern(16384), dfs.WithReliable(), dfs.WithFencing())
		if err != nil {
			return err
		}
		oldSrv = plane.Srv

		// The primary's write lease: every mutation checks it, and it
		// only stays valid while a quorum of fence tables keeps agreeing
		// the primary is unfenced.
		if oldLease, err = NewWriteLease(p, mgrs[sbPrimaryNode], sbPrimaryNode, cp, sbLeaseTTL, sbLeaseRefresh); err != nil {
			return err
		}
		oldSrv.SetWriteGuard(oldLease)

		// The old primary keeps draining write-behind state on its own
		// cadence — the exact daemon that must go quiet once fenced.
		leg.Env.SpawnDaemon("splitbrain.oldsync", func(sp *des.Proc) {
			for {
				sp.Sleep(des.Duration(2 * sbLeaseRefresh))
				if _, err := oldSrv.Sync(sp); err != nil {
					return
				}
			}
		})

		// Hot standby (a one-member chain) + heartbeat + gated coordinator
		// on the clerk's node.
		// The successor is guarded too: it holds its own lease, granted
		// under the post-fence epoch.
		var hb *rmem.Import
		leg.rec, hb, err = plane.ArmFailover(p, mgrs[sbBackupNode], sbNodes, recovery.Config{FenceWait: sbLeaseTTL},
			func(fp *des.Proc, srv *dfs.Server) error {
				lease, err := NewWriteLease(fp, mgrs[sbBackupNode], sbBackupNode, cp, sbLeaseTTL, sbLeaseRefresh)
				if err != nil {
					return err
				}
				srv.SetWriteGuard(lease)
				return nil
			})
		if err != nil {
			return err
		}
		leg.rec.ReplicateVerdicts(cp.NewClient(p, mgrs[sbClerkNode]))
		leg.rec.Watch(hb, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Freeze the old primary's Sync counter at the moment the partition
	// opens; everything it applies afterwards is a split-brain write.
	var syncedAtCut int64 = -1
	if camp != nil && len(camp.Partitions) > 0 {
		cut := des.Time(camp.Partitions[0].From)
		leg.Env.Spawn("splitbrain.mark", func(p *des.Proc) {
			p.SleepUntil(cut)
			syncedAtCut = oldSrv.Synced
		})
	}

	leg.Env.Spawn("splitbrain.mix", func(p *des.Proc) {
		// Anchor at t = 200ms so the partition window lands inside the
		// measured run.
		p.SleepUntil(des.Time(200 * time.Millisecond))
		// Pace the mix so it straddles the partition window: the front
		// half lands on the healthy primary, the back half dies against
		// the partitioned one and must replay — after the quorum-fenced
		// takeover completes — on the fenced successor.
		leg.RunMix(p, plane.Mix, 300*time.Microsecond, func(p *des.Proc, _ dfs.OpSpec) error {
			return leg.rec.AwaitRestored(p, time.Second)
		})

		// The audit needs the heal: the old primary must observe that it
		// was fenced *and* repaired behind its back, and stay deposed.
		if camp != nil && len(camp.Partitions) > 0 && camp.Partitions[0].HealAt > 0 {
			p.SleepUntil(des.Time(camp.Partitions[0].HealAt + 5*time.Millisecond))
		}
		if camp != nil {
			leg.denials = oldSrv.GuardDenials
			leg.oldSyncFrozen = syncedAtCut >= 0 && oldSrv.Synced == syncedAtCut
			leg.oldDeposed = oldLease.Deposed()
			leg.newWriterOK = plane.Srv != oldSrv && plane.Srv.GuardDenials == 0
		}
	})

	// Lease, heartbeat, and watchdog daemons never idle; finite horizon.
	if err := leg.Env.RunUntil(des.Time(3 * time.Second)); err != nil {
		return nil, err
	}
	return leg, nil
}
