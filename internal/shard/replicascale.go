package shard

import (
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
)

// Replica read scaling (the PR's Figure-3 analogue): a fleet of reader
// clerks hammers one hot file while a writer keeps the primary under a
// constant control-plane load. Every reader holds read tokens, so its
// re-reads bypass the primary entirely and round-robin over the chain
// members' exported frame segments. Each member's switch ingress port is
// a serial cell pump — the shared bottleneck — so aggregate hot-block
// read goodput scales with the member count while the primary's CPU
// occupancy (all from the writer's RPCs) stays flat.

// ReplicaScalePoint is one measured sweep point.
type ReplicaScalePoint struct {
	Replicas int
	Readers  int
	Window   time.Duration

	// ReadBytes is what the reader fleet verified-read inside the window;
	// GoodputMBs the same as MB/s.
	ReadBytes  int64
	GoodputMBs float64

	// ReplicaReads / ReplicaFallbacks split the fleet's block fetches by
	// source; Fallbacks land on the primary.
	ReplicaReads     int64
	ReplicaFallbacks int64

	// PrimaryCPU is the request-serving scheduled CPU (procedure + control
	// categories: RPC handlers and thread dispatch) charged on the primary
	// over the window; Occupancy the same as a fraction of the window. The
	// writer's paced Sync RPCs keep it nonzero, so "flat across the sweep"
	// is a meaningful claim rather than zero-equals-zero. ReplicationCPU is
	// the primary's rmem-client time — the chain pushes, including their
	// retransmissions when the fabric is busy — reported separately because
	// it scales with write traffic and fabric load, never with the reader
	// fleet's goodput.
	PrimaryCPU     time.Duration
	Occupancy      float64
	ReplicationCPU time.Duration

	// WriterOps counts write+sync rounds completed inside the window.
	WriterOps int64
}

const (
	replicaScaleHotSize = 32 * 1024 // 4 blocks round-robined over members
	replicaScaleWarm    = 20 * time.Millisecond
	replicaScaleWindow  = 100 * time.Millisecond
)

// RunReplicaScale measures one sweep point: `replicas` chain members
// serving `readers` token-holding reader clerks. The topology gives every
// actor its own node: primary 0, writer 1, readers 2..1+readers, chain
// members after.
func RunReplicaScale(replicas, readers int) (*ReplicaScalePoint, error) {
	if replicas < 1 || readers < 1 {
		return nil, fmt.Errorf("shard: replica scale needs replicas >= 1 and readers >= 1")
	}
	pt := &ReplicaScalePoint{Replicas: replicas, Readers: readers, Window: replicaScaleWindow}
	nodes := 2 + readers + replicas
	leg := dfs.NewLeg(nil, 0, nodes)
	env, primary := leg.Env, leg.Cluster.Nodes[0]
	var svc *Service
	var writer *Clerk
	readerClerks := make([]*Clerk, readers)
	var hot, wfile fstore.Handle
	err := leg.Setup("replicascale.setup", replicaScaleWarm, func(p *des.Proc) (err error) {
		svc = NewService(p, leg.Mgrs[:1], nodes, dfs.Geometry{}, dfs.WithReliableReplies())
		writer = NewClerk(p, leg.Mgrs[1], svc, dfs.DX, WithTokenCache())
		for i := range readerClerks {
			readerClerks[i] = NewClerk(p, leg.Mgrs[2+i], svc, dfs.DX, WithTokenCache())
		}
		hotPat := make([]byte, replicaScaleHotSize)
		for i := range hotPat {
			hotPat[i] = byte(i*13 + 7)
		}
		if hot, err = svc.Store.WriteFile("/export/hot.bin", hotPat); err != nil {
			return err
		}
		if wfile, err = svc.Store.WriteFile("/export/load.bin", make([]byte, fstore.BlockSize)); err != nil {
			return err
		}
		if err := svc.WarmFile(hot); err != nil {
			return err
		}
		if err := svc.WarmFile(wfile); err != nil {
			return err
		}
		if err := svc.AttachReplicas(p, 0, leg.Mgrs[2+readers:], 100*time.Microsecond); err != nil {
			return err
		}
		// The first measured reads must find every member serving.
		svc.awaitChain(p, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}

	start := des.Time(replicaScaleWarm + 10*time.Millisecond)
	end := start.Add(replicaScaleWindow)
	var readBytes, writerOps int64
	var readErr error
	var cpuBefore, pushBefore time.Duration // CPU accrued on the primary before the window
	servingCPU := func() time.Duration {
		acct := primary.CPUAcct
		return time.Duration(acct[cluster.CatProc] + acct[cluster.CatControl])
	}
	clientCPU := func() time.Duration {
		return time.Duration(primary.CPUAcct[cluster.CatClient])
	}

	// The writer's constant load: dirty a block, then a Sync RPC — the
	// latter is a server procedure, the primary's only scheduled-CPU
	// consumer here. Rounds fire on fixed ticks so every sweep point sees
	// the identical load regardless of how busy the fabric is; a round is
	// attributed to the window by its tick, and the CPU baseline is taken
	// right before the first in-window round fires — between rounds, so a
	// round's latency jitter can never straddle the boundary and void the
	// point-to-point comparison.
	env.Spawn("replicascale.writer", func(p *des.Proc) {
		const tick = 20 * time.Millisecond
		blk := make([]byte, fstore.BlockSize)
		metered := false
		for round := uint32(0); ; round++ {
			next := des.Time(replicaScaleWarm).Add(time.Duration(round) * tick)
			if next >= end {
				return
			}
			if next > p.Now() {
				p.Sleep(time.Duration(next.Sub(p.Now())))
			}
			if next >= start && !metered {
				metered = true
				cpuBefore = servingCPU()
				pushBefore = clientCPU()
			}
			for i := range blk {
				blk[i] = byte(round + uint32(i))
			}
			if err := writer.Write(p, wfile, 0, blk); err != nil {
				return
			}
			if _, err := svc.Sync(p); err != nil {
				return
			}
			if next >= start {
				writerOps++
			}
		}
	})
	for i, rc := range readerClerks {
		rc := rc
		env.Spawn(fmt.Sprintf("replicascale.reader%d", i), func(p *des.Proc) {
			// First read acquires the read tokens and stamps watermarks.
			if _, err := rc.Read(p, hot, 0, replicaScaleHotSize); err != nil {
				readErr = err
				return
			}
			for p.Now() < end {
				// Keep the tokens, drop the copies: every pass must move
				// the bytes again — from a chain member.
				rc.DropTokenCache()
				t0 := p.Now()
				data, err := rc.Read(p, hot, 0, replicaScaleHotSize)
				if err != nil {
					readErr = err
					return
				}
				if len(data) != replicaScaleHotSize {
					readErr = fmt.Errorf("short hot read: %d bytes", len(data))
					return
				}
				if t0 >= start && p.Now() < end {
					readBytes += int64(len(data))
				}
			}
		})
	}

	if err := env.RunUntil(end.Add(5 * time.Millisecond)); err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}

	pt.ReadBytes = readBytes
	pt.GoodputMBs = float64(readBytes) / (1 << 20) / replicaScaleWindow.Seconds()
	for _, rc := range readerClerks {
		pt.ReplicaReads += rc.ReplicaReads
		pt.ReplicaFallbacks += rc.ReplicaFallbacks
	}
	pt.PrimaryCPU = servingCPU() - cpuBefore
	pt.ReplicationCPU = clientCPU() - pushBefore
	pt.Occupancy = float64(pt.PrimaryCPU) / float64(replicaScaleWindow)
	pt.WriterOps = writerOps
	return pt, nil
}

// ReplicaSweep runs RunReplicaScale for every chain length 1..maxReplicas
// with a fixed reader fleet.
func ReplicaSweep(maxReplicas, readers int) ([]*ReplicaScalePoint, error) {
	var pts []*ReplicaScalePoint
	for k := 1; k <= maxReplicas; k++ {
		pt, err := RunReplicaScale(k, readers)
		if err != nil {
			return nil, fmt.Errorf("replicas=%d: %w", k, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}
