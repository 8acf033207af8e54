package main

import (
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/shard"
	"netmem/internal/stats"
)

// Per-layer metrics of a traced run: spans give the workload and shard
// layers' virtual time, public counters give everything below them. Every
// counter is a delta over the measured window (the rig snapshots them when
// the first arrival slot opens), and a layer-time metric is reported only
// where every workload exercises it, so none reads a structural zero.

// metric is one named value in the order it is printed.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuCats are the Figure 3 CPU accounting categories.
var cpuCats = []string{cluster.CatClient, cluster.CatRx, cluster.CatReply, cluster.CatControl, cluster.CatProc}

// timedActs are the shard calls every workload's mix issues; the others
// (setattr, readlink, null) are counted but not timed.
var timedActs = []spanName{spanGetAttr, spanLookup, spanRead, spanWrite, spanReadDir, spanStatFS}

type nodeCounts struct {
	cpu    map[string]des.Duration
	busy   des.Duration
	frames int64
	bytes  int64
	cells  int64
}

// dfsCounts are the server- and replica-side counters of one dfs object.
type dfsCounts struct {
	miss, pushes, aborts, forwarded, acked, repaired, spliced int64
}

func (a dfsCounts) sub(b dfsCounts) dfsCounts {
	return dfsCounts{a.miss - b.miss, a.pushes - b.pushes, a.aborts - b.aborts,
		a.forwarded - b.forwarded, a.acked - b.acked, a.repaired - b.repaired, a.spliced - b.spliced}
}

func (a *dfsCounts) add(b dfsCounts) {
	a.miss += b.miss
	a.pushes += b.pushes
	a.aborts += b.aborts
	a.forwarded += b.forwarded
	a.acked += b.acked
	a.repaired += b.repaired
	a.spliced += b.spliced
}

// counters is a snapshot of every public counter the layer metrics read.
// dfs objects are keyed by identity: a failover replaces a slot's server
// with a promoted chain member, and the dead primary's counts still count.
type counters struct {
	nodes []nodeCounts
	dfs   map[any]dfsCounts
	lanes []shard.Stats
}

func (r *rigRun) counters() counters {
	c := counters{dfs: map[any]dfsCounts{}}
	for _, n := range r.cl.Nodes {
		nc := nodeCounts{cpu: map[string]des.Duration{}, busy: n.CPU.BusyTime(),
			frames: n.FramesSent, bytes: n.BytesSent, cells: n.NIC.CellsSent}
		for k, v := range n.CPUAcct {
			nc.cpu[k] = v
		}
		c.nodes = append(c.nodes, nc)
	}
	for slot, s := range r.svc.Shards {
		if s != nil {
			c.dfs[s] = dfsOf(s)
		}
		for _, cr := range r.svc.Replicas(slot) {
			c.dfs[cr] = dfsOf(cr)
		}
	}
	for _, l := range r.lanes {
		c.lanes = append(c.lanes, l.Stats())
	}
	return c
}

// layerMetrics derives every per-layer metric of a traced run except the
// host-time ones, which need the profile and the untraced run.
func (r *rigRun) layerMetrics() []metric {
	var out []metric
	put := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	now := r.counters()
	offered := float64(r.res.Offered)

	// workload: the lane loop.
	var lat, qwait, service stats.Sketch
	var hold, busy time.Duration
	var shardLat [numSpanNames]stats.Sketch
	for i := range r.tr.spans {
		s := &r.tr.spans[i]
		switch s.name {
		case spanOp:
			if !s.failed {
				lat.ObserveDuration(s.dur())
			}
		case spanQWait:
			qwait.ObserveDuration(s.dur())
		case spanHold:
			hold += s.dur()
			busy += s.dur()
		case spanApply:
			service.ObserveDuration(s.dur())
			busy += s.dur()
		default:
			shardLat[s.name].ObserveDuration(s.dur())
		}
	}
	put("workload.qwait_mean_ms", qwait.Mean()/1e6, "ms")
	// Queue wait's p99 as a share of the op latency p99: near 1 when the
	// tail is admission queueing, near 0 when it is service.
	put("workload.qwait_p99_share", ratio(float64(qwait.P99()), float64(lat.P99())), "ratio")
	put("workload.service_mean_ms", service.Mean()/1e6, "ms")
	put("workload.service_p99_ms", ms(service.P99()), "ms")
	put("workload.hold_ms", ms(int64(hold)), "ms")
	put("workload.lane_util", ratio(float64(busy), float64(r.cfg.Lanes)*float64(r.end-r.start)), "ratio")
	put("workload.peak_queue", float64(r.res.PeakQueue), "count")

	// shard: the routing clerk, its token cache and replica reads.
	for n := spanGetAttr; n < numSpanNames; n++ {
		put("shard."+n.String()+".calls", float64(shardLat[n].Count()), "count")
	}
	for _, n := range timedActs {
		put("shard."+n.String()+".mean_ms", shardLat[n].Mean()/1e6, "ms")
		put("shard."+n.String()+".p99_ms", ms(shardLat[n].P99()), "ms")
	}
	var lane shard.Stats
	for i, st := range now.lanes {
		b := r.base.lanes[i]
		lane.TokenHits += st.TokenHits - b.TokenHits
		lane.ReplicaReads += st.ReplicaReads - b.ReplicaReads
		lane.ReplicaFallbacks += st.ReplicaFallbacks - b.ReplicaFallbacks
		lane.LocalHits += st.LocalHits - b.LocalHits
		lane.RemoteReads += st.RemoteReads - b.RemoteReads
		lane.RemoteWrites += st.RemoteWrites - b.RemoteWrites
		lane.Misses += st.Misses - b.Misses
		lane.Rebinds += st.Rebinds - b.Rebinds
	}
	put("shard.token_hits", float64(lane.TokenHits), "count")
	put("shard.token_hit_ratio", ratio(float64(lane.TokenHits), float64(shardLat[spanRead].Count())), "ratio")
	put("shard.replica_reads", float64(lane.ReplicaReads), "count")
	put("shard.replica_fallbacks", float64(lane.ReplicaFallbacks), "count")
	put("shard.replica_fallback_ratio", ratio(float64(lane.ReplicaFallbacks), float64(lane.ReplicaReads+lane.ReplicaFallbacks)), "ratio")

	// dfs: servers, chain members and the lanes' per-shard sub-clerks.
	var d dfsCounts
	for obj := range now.dfs {
		d.add(dfsOf(obj).sub(r.base.dfs[obj]))
	}
	for obj, v := range r.base.dfs {
		if _, live := now.dfs[obj]; !live {
			d.add(dfsOf(obj).sub(v))
		}
	}
	put("dfs.miss_calls", float64(d.miss), "count")
	put("dfs.chain_pushes", float64(d.pushes), "count")
	put("dfs.chain_aborts", float64(d.aborts), "count")
	put("dfs.chain_abort_ratio", ratio(float64(d.aborts), float64(d.pushes+d.aborts)), "ratio")
	put("dfs.forwarded", float64(d.forwarded), "count")
	put("dfs.acked", float64(d.acked), "count")
	put("dfs.repaired", float64(d.repaired), "count")
	put("dfs.spliced", float64(d.spliced), "count")
	put("dfs.clerk.local_hits", float64(lane.LocalHits), "count")
	put("dfs.clerk.remote_reads", float64(lane.RemoteReads), "count")
	put("dfs.clerk.remote_writes", float64(lane.RemoteWrites), "count")
	put("dfs.clerk.misses", float64(lane.Misses), "count")
	put("dfs.rebinds", float64(lane.Rebinds), "count")

	// cluster: node CPU by Figure 3 category, per role, and frames.
	// Node roles in RunOpenLoop's node order: primaries, chain members,
	// lanes (and, under a campaign, the failover watcher, not reported).
	elapsed := float64(r.env.Now() - r.start)
	chain := r.cfg.Shards * r.cfg.Replicas
	for _, role := range []struct {
		name     string
		first, n int
	}{{"primary", 0, r.cfg.Shards}, {"chain", r.cfg.Shards, chain}, {"lane", r.cfg.Shards + chain, r.cfg.Lanes}} {
		var busy des.Duration
		cat := map[string]des.Duration{}
		for i := role.first; i < role.first+role.n; i++ {
			busy += now.nodes[i].busy - r.base.nodes[i].busy
			for _, c := range cpuCats {
				cat[c] += now.nodes[i].cpu[c] - r.base.nodes[i].cpu[c]
			}
		}
		put("cluster."+role.name+".util", ratio(float64(busy), float64(role.n)*elapsed), "ratio")
		var sum des.Duration
		for _, c := range cpuCats {
			sum += cat[c]
		}
		for _, c := range cpuCats {
			put("cluster."+role.name+"."+c+"_share", ratio(float64(cat[c]), float64(sum)), "ratio")
		}
	}
	var frames, bytes, cells int64
	for i := range now.nodes {
		frames += now.nodes[i].frames - r.base.nodes[i].frames
		bytes += now.nodes[i].bytes - r.base.nodes[i].bytes
		cells += now.nodes[i].cells - r.base.nodes[i].cells
	}
	put("cluster.frames_sent", float64(frames), "count")
	put("cluster.bytes_sent", float64(bytes), "bytes")

	// atm, des and recovery.
	put("atm.cells_sent", float64(cells), "count")
	put("atm.cells_per_op", ratio(float64(cells), offered), "cells/op")
	put("des.events", float64(r.res.Events), "count")
	put("des.events_per_op", ratio(float64(r.res.Events), offered), "events/op")
	failovers := 0
	for _, rc := range r.svc.Coordinators() {
		if rc != nil && rc.Restored() {
			failovers++
		}
	}
	put("recovery.failovers", float64(failovers), "count")
	return out
}

// dfsOf reads the counters of a server or chain member.
func dfsOf(obj any) dfsCounts {
	switch o := obj.(type) {
	case *dfs.Server:
		return dfsCounts{miss: o.MissCalls, pushes: o.ChainPushes, aborts: o.ChainAborts}
	case *dfs.ChainReplica:
		return dfsCounts{forwarded: o.Forwarded, acked: o.Acked, repaired: o.Repaired, spliced: o.Spliced}
	}
	return dfsCounts{}
}
