// Command fsbench regenerates the distributed-file-service study of §5:
//
//	-fig 2     Figure 2: per-operation client latency, Hybrid-1 (HY) vs
//	           pure data transfer (DX)
//	-fig 3     Figure 3: per-operation server CPU breakdown
//	-headline  the abstract's ≈50% server-load reduction, weighted by the
//	           Table 1a operation mix
//	-scale N   the scalability extension: 1..N clients replaying the mix,
//	           server utilization and throughput under both structures
//	-shards N  the sharded-tier sweep: 1..N file servers partitioning the
//	           namespace by consistent hashing, load scaled proportionally
//	           (4 clients per shard), reporting per-shard CPU occupancy,
//	           aggregate goodput, and the token-cached re-read probe
//	-elastic   the elastic fleet sweep: a fixed client population runs the
//	           Table 1a mix while the shard fleet grows 2→8 and contracts
//	           back to 2, one membership change at a time, with background
//	           rmem-WRITE state migration; reports per-step goodput, tail
//	           latency, donor CPU during migration, and key movement
//	-replicas K  the replica read tier sweep: chains of 1..K members serve
//	           a token-holding reader fleet's hot-block re-reads while a
//	           paced writer loads the primary; reports goodput scaling vs
//	           primary CPU occupancy, then the zero-CPU replica re-read
//	           probe. With -chaos NAME it instead runs the campaign on the
//	           K-member replica rig (chain-lag failover, promotion audit).
//	-slo       the open-loop SLO sweep: arrival shapes (steady, diurnal,
//	           flash crowd) × Zipf key skew at 100k simulated clients on
//	           the 4-shard + 3-replica tier, reporting p50/p99/p999,
//	           per-tenant SLO attainment, fairness, and goodput, writing
//	           BENCH_SLO.json, and exiting nonzero when a point misses its
//	           gate
//	-slo-smoke one seed-pinned open-loop point printed as slo-smoke:
//	           machine lines (the CI golden); -shape picks the arrival
//	           shape, -slo-p99-gate MS fails the run on p99 regression,
//	           and -chaos NAME runs the point under a fault campaign
//
// With no flags it runs figures 2 and 3 plus the headline.
//
// With -trace FILE or -metrics it instead traces a single operation
// (selected by -op and -mode) through the whole stack: -metrics prints the
// per-layer counters and latency histograms, -trace FILE writes the event
// timeline as Chrome trace_event JSON (open in Perfetto or
// chrome://tracing).
//
// With -chaos NAME it runs the Figure 2 mix under a named fault campaign
// with the reliability layer on, printing per-operation goodput and
// latency degradation against a fault-free baseline. -chaos list shows
// the campaigns, -chaos all runs every one; -seed fixes the campaign's
// random streams (identical seeds replay identically), and -metrics adds
// the run's deterministic metric snapshot. Combining -chaos with
// -shards S (S > 1) runs the campaign against the sharded tier with a
// fenced standby (a one-member replica chain) per shard.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"netmem/internal/consensus"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/obs"
	"netmem/internal/shard"
	"netmem/internal/stats"
	"netmem/internal/workload"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate only this figure (2 or 3)")
	headline := flag.Bool("headline", false, "only the server-load headline")
	scale := flag.Int("scale", 0, "run the scalability sweep up to this many clients")
	metrics := flag.Bool("metrics", false, "trace one operation and print its observability metrics")
	traceFile := flag.String("trace", "", "trace one operation and write Chrome trace_event JSON to this file")
	opLabel := flag.String("op", "Readfile(8K)", "Figure 2 operation to trace (with -trace/-metrics)")
	modeName := flag.String("mode", "DX", "file service structure to trace, HY or DX (with -trace/-metrics)")
	chaos := flag.String("chaos", "", `run the Figure 2 mix under a fault campaign ("list", "all", or a name)`)
	seed := flag.Int64("seed", 0, "campaign seed for -chaos (0 = default)")
	shards := flag.Int("shards", 0, "sharded-tier sweep up to this many shards (with -chaos: shard count for the campaign)")
	replicas := flag.Int("replicas", 0, "replica read tier sweep up to this many chain members (with -chaos: chain length for the campaign)")
	elastic := flag.Bool("elastic", false, "elastic fleet sweep: 2→8→2 shards under sustained Table 1a load")
	slo := flag.Bool("slo", false, "open-loop SLO sweep: arrival shapes × key skew at 100k simulated clients on the 4-shard + 3-replica tier (with -chaos NAME: every point under the campaign)")
	sloSmoke := flag.Bool("slo-smoke", false, "one seed-pinned open-loop point, printed as slo-smoke: machine lines for the CI golden (with -chaos NAME: the fault-campaign cross)")
	shape := flag.String("shape", "steady", "arrival-rate shape for -slo-smoke: steady, diurnal, or flash")
	sloP99Gate := flag.Float64("slo-p99-gate", 0, "with -slo-smoke: fail (exit 1) when total p99 exceeds this many milliseconds")
	sloOut := flag.String("slo-out", "BENCH_SLO.json", "with -slo: write the machine-readable sweep document here (empty to skip)")
	consensusLeg := flag.Bool("consensus", false, "control-plane chaos leg: the mix runs while a campaign kills a consensus replica (default campaign: leadercrash; override with -chaos NAME)")
	compaction := flag.Int("compaction", 0, "compaction soak: commit this many decrees through a compacting 64-slot control plane and audit the snapshot replay")
	flag.Parse()

	if *compaction > 0 {
		runCompaction(*compaction, *seed, *metrics)
		return
	}

	if *consensusLeg {
		runConsensusChaos(*chaos, *seed, *metrics)
		return
	}

	if *elastic {
		runElastic(*seed)
		return
	}

	// The -slo modes dispatch before the generic -chaos path: -chaos NAME
	// combined with them selects the campaign the open-loop run injects.
	if *sloSmoke {
		runSLOSmoke(*shape, *seed, *chaos, *sloP99Gate)
		return
	}

	if *slo {
		runSLO(*seed, *sloOut, *chaos)
		return
	}

	if *chaos != "" {
		runChaos(*chaos, *seed, *metrics, *shards, *replicas)
		return
	}

	if *metrics || *traceFile != "" {
		runTraced(*opLabel, *modeName, *metrics, *traceFile)
		return
	}

	if *replicas > 0 {
		runReplicaSweep(*replicas)
		return
	}

	if *shards > 0 {
		runShardSweep(*shards)
		return
	}

	if *scale > 0 {
		runScale(*scale)
		return
	}

	res, err := dfs.RunFigure2And3()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}

	all := *fig == 0 && !*headline
	if all || *fig == 2 {
		printFigure2(res)
	}
	if all || *fig == 3 {
		printFigure3(res)
	}
	if all || *headline {
		printHeadline(res)
	}
}

func printFigure2(res [][2]dfs.OpResult) {
	fmt.Println("Figure 2: Request Processing Latency Seen by Client")
	fmt.Println("(HY = Hybrid-1: data+control transfer; DX = pure data transfer)")
	fmt.Println()
	var max time.Duration
	for _, pair := range res {
		if pair[0].Latency > max {
			max = pair[0].Latency
		}
	}
	for _, pair := range res {
		hy, dx := pair[0], pair[1]
		fmt.Println(stats.Bar(hy.Label+" HY", float64(hy.Latency), float64(max), 48, stats.Ms(hy.Latency)))
		fmt.Println(stats.Bar(hy.Label+" DX", float64(dx.Latency), float64(max), 48, stats.Ms(dx.Latency)))
	}
	fmt.Println()
}

func printFigure3(res [][2]dfs.OpResult) {
	fmt.Println("Figure 3: Breakdown of Server Activity (server CPU per operation)")
	fmt.Println("segments: ▒ data reception  ▓ control transfer  █ procedure  ░ data reply")
	fmt.Println()
	glyphs := []rune{'▒', '▓', '█', '░'}
	var max time.Duration
	for _, pair := range res {
		if t := pair[0].ServerTotal(); t > max {
			max = t
		}
	}
	for _, pair := range res {
		for _, r := range pair {
			segs := []float64{
				float64(r.ServerRx), float64(r.ServerControl),
				float64(r.ServerProc), float64(r.ServerReply),
			}
			label := r.Label + " " + r.Mode.String()
			fmt.Println(stats.StackedBar(label, segs, glyphs, float64(max), 48, stats.Ms(r.ServerTotal())))
		}
	}
	fmt.Println()
}

func printHeadline(res [][2]dfs.OpResult) {
	weights := map[string]float64{
		"GetAttribute":       0.31,
		"LookupName":         0.31,
		"ReadLink":           0.06,
		"Readfile(8K)":       0.16 / 3,
		"Readfile(4K)":       0.16 / 3,
		"Readfile(1K)":       0.16 / 3,
		"ReadDirectory(4K)":  0.03 / 3,
		"ReadDirectory(1K)":  0.03 / 3,
		"ReadDirectory(512)": 0.03 / 3,
		"WriteFile(8K)":      0.004 / 3,
		"Writefile(4K)":      0.004 / 3,
		"Writefile(1K)":      0.004 / 3,
	}
	var hyLoad, dxLoad float64
	for _, pair := range res {
		w := weights[pair[0].Label]
		hyLoad += w * float64(pair[0].ServerTotal())
		dxLoad += w * float64(pair[1].ServerTotal())
	}
	var hyAvg, dxAvg float64
	for _, pair := range res {
		hyAvg += float64(pair[0].ServerTotal())
		dxAvg += float64(pair[1].ServerTotal())
	}
	fmt.Println("Headline: server load, HY → DX")
	fmt.Println()
	t := stats.NewTable("Structure", "Mix-weighted CPU/op", "Per-op average CPU")
	t.Add("Hybrid-1 (data+control)", stats.Us(time.Duration(hyLoad)), stats.Us(time.Duration(hyAvg/float64(len(res)))))
	t.Add("Pure data transfer", stats.Us(time.Duration(dxLoad)), stats.Us(time.Duration(dxAvg/float64(len(res)))))
	fmt.Println(t)
	fmt.Printf("Reduction: %.0f%% on the Table 1a call mix; %.0f%% on the per-op average\n",
		(1-dxLoad/hyLoad)*100, (1-dxAvg/hyAvg)*100)
	fmt.Printf("(paper: ≈50%%, \"less than half the server load\").\n\n")
}

// runTraced measures one Figure 2 operation with the observability layer
// attached and emits the requested sinks.
func runTraced(opLabel, modeName string, metrics bool, traceFile string) {
	var spec dfs.OpSpec
	found := false
	for _, s := range dfs.Figure2Ops {
		if s.Label == opLabel {
			spec, found = s, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "fsbench: unknown -op %q; one of:\n", opLabel)
		for _, s := range dfs.Figure2Ops {
			fmt.Fprintln(os.Stderr, " ", s.Label)
		}
		os.Exit(1)
	}
	var mode dfs.Mode
	switch modeName {
	case "HY", "hy":
		mode = dfs.HY
	case "DX", "dx":
		mode = dfs.DX
	default:
		fmt.Fprintf(os.Stderr, "fsbench: unknown -mode %q (want HY or DX)\n", modeName)
		os.Exit(1)
	}

	res, tr, err := dfs.TraceOp(spec, mode, obs.Config{Events: traceFile != ""})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s %s: client latency %s, server CPU %s (rx %s, control %s, proc %s, reply %s)\n",
		res.Label, res.Mode, stats.Ms(res.Latency), stats.Us(res.ServerTotal()),
		stats.Us(res.ServerRx), stats.Us(res.ServerControl),
		stats.Us(res.ServerProc), stats.Us(res.ServerReply))
	if metrics {
		fmt.Println()
		fmt.Print(tr.Snapshot().String())
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace to %s (%d events)\n", traceFile, len(tr.Events()))
	}
}

// runChaos runs the Figure 2 mix under one or every named fault campaign
// and prints goodput and latency degradation per operation. With
// shards > 1 the campaign targets the sharded tier instead of the single
// server.
func runChaos(name string, seed int64, metrics bool, shards, replicas int) {
	if name == "list" {
		fmt.Println("chaos campaigns:")
		for _, n := range faults.CampaignNames() {
			camp, _ := faults.Named(n)
			fmt.Printf("  %-10s %s\n", n, describeCampaign(camp))
		}
		return
	}
	names := []string{name}
	if name == "all" {
		names = faults.CampaignNames()
	}
	for _, n := range names {
		camp, ok := faults.Named(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "fsbench: unknown campaign %q (try -chaos list)\n", n)
			os.Exit(1)
		}
		// The replicalag campaign only means something on the replica rig
		// (its delays target the chain hops, its crash decapitates the chain
		// head's primary); any campaign runs there when -replicas asks.
		if shards <= 1 && (replicas > 0 || n == "replicalag") {
			k := replicas
			if k == 0 {
				k = 3
			}
			runReplicaChaos(camp, seed, metrics, k)
			continue
		}
		if shards > 1 {
			res, err := shard.RunChaos(shard.ChaosConfig{Campaign: camp, Seed: seed, Mode: dfs.DX, Shards: shards})
			if err != nil {
				fmt.Fprintln(os.Stderr, "fsbench:", err)
				os.Exit(1)
			}
			fmt.Printf("Sharded tier: %d shards, consistent-hash routing, fenced standby per shard\n", res.Shards)
			printChaos(&res.ChaosResult, metrics, nil)
			fmt.Printf("divergence: %d stray bucket(s) after campaign, %d repaired (want 0 strays)\n\n",
				res.Strays, res.Repaired)
			continue
		}
		if len(camp.Partitions) > 0 {
			// Partition campaigns need the split-brain rig: a quorum of
			// control replicas to fence through, plus a standby to promote.
			runSplitBrain(camp, seed, metrics)
			continue
		}
		res, err := dfs.RunChaos(dfs.ChaosConfig{Campaign: camp, Seed: seed, Mode: dfs.DX})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		printChaos(res, metrics, nil)
	}
}

// runSplitBrain runs a partition campaign on the quorum-fenced failover
// rig: the watchdog verdict is only a proposal, takeover waits for the
// fence decree to commit, and the audit proves exactly one writer
// survived the split.
func runSplitBrain(camp faults.Campaign, seed int64, metrics bool) {
	res, err := consensus.RunSplitBrain(consensus.SplitBrainConfig{Campaign: camp, Seed: seed, Mode: dfs.DX})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Println("Split-brain rig: 3 control replicas, primary + fenced standby, quorum-gated takeover")
	printChaos(&res.ChaosResult, metrics, func() {
		fmt.Printf("fencing: decree committed %s after the verdict; takeover MTTR %s (gated on the quorum)\n",
			stats.Ms(res.FenceLatency), stats.Ms(res.MTTR))
		writer := "EXACTLY ONE WRITER"
		if !res.OneWriter() {
			writer = "SPLIT BRAIN (audit failed)"
		}
		deposed := "old lease deposed for good after the heal"
		if !res.OldDeposed {
			deposed = "OLD LEASE RECOVERED (audit failed)"
		}
		fmt.Printf("audit: %s — old primary frozen with %d refused write(s); %s\n",
			writer, res.Denials, deposed)
	})
}

// runCompaction is the log-compaction soak: many windows' worth of
// decrees through a small slot window, then the snapshot-replay audit.
func runCompaction(commits int, seed int64, metrics bool) {
	const slots = 64
	res, err := consensus.RunCompaction(slots, commits, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("Compaction soak: %d decrees through a %d-slot window (seed %d)\n\n", res.Commits, res.Slots, seed)
	fmt.Printf("applied %d decrees (%.1f windows), %d snapshot decree(s) retained, watermark at slot %d\n",
		res.Applied, res.Windows(), res.Snapshots, res.SnapBase)
	fmt.Printf("window %s (%.0f decrees/sec); %d simulator events\n",
		stats.Ms(res.Window), float64(res.Commits)/res.Window.Seconds(), res.Events)
	agree := "replicas agree byte-for-byte (logs, watermark, checkpoint)"
	if !res.LogsAgree {
		agree = "REPLICAS DIVERGED"
	}
	replay := fmt.Sprintf("checkpoint + suffix replays to the live digest %016x", res.Digest)
	if !res.ReplayOK {
		replay = "REPLAY DIGEST MISMATCH"
	}
	fmt.Printf("audit: %s; %s\n\n", agree, replay)
	_ = metrics
}

// runConsensusChaos runs the control-plane chaos leg: the Figure 2 mix on
// the data plane while a campaign kills a consensus control-plane machine
// (the leaseholder, under the stock "leadercrash" campaign) mid-run.
func runConsensusChaos(name string, seed int64, metrics bool) {
	if name == "" {
		name = "leadercrash"
	}
	camp, ok := faults.Named(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "fsbench: unknown campaign %q (try -chaos list)\n", name)
		os.Exit(1)
	}
	res, err := consensus.RunChaos(consensus.ChaosConfig{Campaign: camp, Seed: seed, Mode: dfs.DX})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("Consensus control plane: %d replicas (Paxos acceptors on rmem CAS), registry replicated through the log\n", res.Replicas)
	printChaos(&res.ChaosResult, metrics, func() {
		fmt.Printf("control plane: leader %d → %d, %d re-election(s), election latency %s\n",
			res.LeaderBefore, res.LeaderAfter, res.Elections, stats.Ms(res.ElectionLatency))
		fmt.Printf("decrees: %d applied by every survivor; driver committed %d (%.0f decrees/sec under the campaign, %.0f fault-free, %d error(s))\n",
			res.Decrees, res.DriverCommits, res.DecreesPerSec, res.SteadyPerSec, res.DriverErrors)
		agree := "logs agree"
		if !res.LogsAgree {
			agree = "LOGS DIVERGED"
		}
		reg := "registry converged on survivors"
		if !res.RegistryOK {
			reg = "REGISTRY DID NOT CONVERGE"
		}
		fmt.Printf("survivors: %s; %s\n", agree, reg)
		fmt.Print("surviving control-plane CPU during window:")
		for _, cat := range []string{"client", "rx", "reply", "control", "proc"} {
			fmt.Printf(" %s %s", cat, stats.Ms(res.AcceptorCPU[cat]))
		}
		fmt.Println(" (agreement itself is one-sided; client/control/proc time is replica apply + lease work)")
	})
}

func describeCampaign(c faults.Campaign) string {
	d := c.Default
	s := fmt.Sprintf("loss %.1f%%, corrupt %.1f%%, dup %.1f%%, reorder %.1f%%",
		d.Loss*100, d.Corrupt*100, d.Duplicate*100, d.Reorder*100)
	if len(d.Flaps) > 0 {
		s += fmt.Sprintf(", %d flap(s)", len(d.Flaps))
	}
	if len(c.Crashes) > 0 {
		s += fmt.Sprintf(", %d crash(es)", len(c.Crashes))
	}
	if len(c.Partitions) > 0 {
		s += fmt.Sprintf(", %d partition(s)", len(c.Partitions))
	}
	return s
}

// printChaos prints a chaos run's per-op table, goodput and failover
// lines; details, when non-nil, prints the rig's own lines before the
// fault tally and the metric snapshot.
func printChaos(res *dfs.ChaosResult, metrics bool, details func()) {
	fmt.Printf("Chaos campaign %q (seed %d, %s, reliability on)\n\n", res.Campaign, res.Seed, res.Mode)
	t := stats.NewTable("Operation", "Fault-free", "Under campaign", "Slowdown", "Result")
	for _, op := range res.Ops {
		status := "ok"
		if !op.OK {
			status = "FAILED: " + op.Err
		}
		chaosLat := stats.Ms(op.Chaos)
		slow := fmt.Sprintf("%.2fx", op.Degradation())
		if !op.OK {
			chaosLat, slow = "-", "-"
		}
		t.Add(op.Label, stats.Ms(op.Baseline), chaosLat, slow, status)
	}
	fmt.Println(t)
	fmt.Printf("goodput %d/%d ops byte-correct (%.0f%%); retries %d, giveups %d\n",
		res.Completed, len(res.Ops), res.Goodput()*100, res.Retries, res.Giveups)
	if res.FailedOver {
		avail := fmt.Sprintf("availability %.2f%% of %s window", res.Availability()*100, stats.Ms(res.Window))
		if res.Window == 0 {
			avail = "mix unfinished at the horizon"
		}
		fmt.Printf("failover: MTTR %s, %s; %d rebind step(s), %d op(s) replayed\n",
			stats.Ms(res.MTTR), avail, res.Rebinds, res.Replays)
	}
	if details != nil {
		details()
	}
	if len(res.Injected) > 0 {
		fmt.Print("injected:")
		for _, kv := range res.Injected {
			fmt.Print(" ", kv)
		}
		fmt.Println()
	}
	fmt.Println()
	if metrics {
		fmt.Print(res.Metrics.String())
		fmt.Println()
	}
}

// runShardSweep measures the sharded tier at 1..maxShards shards with
// load scaled proportionally (4 closed-loop clients per shard), then runs
// the token-cache probe: a re-read under a held read token must cost the
// servers nothing.
func runShardSweep(maxShards int) {
	fmt.Println("Sharded scaling: consistent-hash namespace partitioning, 4 clients per shard")
	fmt.Println()
	t := stats.NewTable("Shards", "Clients", "Ops/s", "Per-shard util", "Mean util", "vs 1-shard", "Mean latency", "p99")
	var base float64
	for s := 1; s <= maxShards; s++ {
		pt, err := workload.RunShardScale(workload.ShardScaleConfig{Shards: s, Window: time.Second})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		if s == 1 {
			base = pt.MeanUtil
		}
		utils := make([]string, len(pt.ShardUtil))
		for i, u := range pt.ShardUtil {
			utils[i] = fmt.Sprintf("%.2f", u)
		}
		t.Add(s, pt.Clients, fmt.Sprintf("%.0f", pt.OpsPerSec),
			strings.Join(utils, " "),
			fmt.Sprintf("%.2f", pt.MeanUtil),
			fmt.Sprintf("%+.0f%%", (pt.MeanUtil/base-1)*100),
			fmt.Sprintf("%.2fms", pt.MeanLatMs),
			fmt.Sprintf("%.2fms", pt.P99Ms))
	}
	fmt.Println(t)
	fmt.Println("(load scales with shards: per-shard occupancy should stay near the 1-shard baseline)")
	fmt.Println()
	probe, err := shard.TokenRereadProbe(maxShards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench: token probe:", err)
		os.Exit(1)
	}
	fmt.Printf("Token-coherent cache probe (%d shards): re-read of %d bytes served from client cache — %d token hits, 0 server CPU, 0 remote reads\n",
		probe.Shards, probe.Bytes, probe.TokenHits)
}

// runReplicaChaos runs a campaign on the replica-chain rig: Figure 2 mix
// through a token-caching clerk whose reads go via the chain, failover
// promoting the most-advanced member.
func runReplicaChaos(camp faults.Campaign, seed int64, metrics bool, replicas int) {
	res, err := shard.RunReplicaLagChaos(shard.ReplicaChaosConfig{
		Campaign: camp, Seed: seed, Mode: dfs.DX, Replicas: replicas,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("Replica rig: %d-member chain, token-cached clerk reading via the chain, promotion failover\n", res.Replicas)
	printChaos(&res.ChaosResult, metrics, nil)
	if res.FailedOver {
		fmt.Printf("promotion: node %d at applied watermark %d (chain spread at crash: head %d, tail %d)\n",
			res.PromotedNode, res.PromotedApplied, res.HeadApplied, res.TailApplied)
	}
	fmt.Printf("replica reads during mix: %d; mid-chain splices: %d\n\n", res.ReplicaReads, res.Spliced)
}

// runReplicaSweep prints the replica read tier's Figure-3-style scaling
// table — hot-block read goodput against primary CPU occupancy as the
// chain grows — then the zero-CPU replica re-read probe, with the PASS
// verdict lines CI greps for.
func runReplicaSweep(maxReplicas int) {
	const readers = 8
	fmt.Printf("Replica read tier: 1..%d chain members, %d token-holding readers on one hot file, paced writer\n", maxReplicas, readers)
	fmt.Println("(replica reads are one-sided READs of member frame segments: the primary moves no bytes)")
	fmt.Println()
	pts, err := shard.ReplicaSweep(maxReplicas, readers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	t := stats.NewTable("Replicas", "Goodput", "vs 1", "Replica reads", "Fallbacks", "Primary CPU", "Occupancy", "Push CPU")
	base := pts[0]
	for _, pt := range pts {
		t.Add(pt.Replicas,
			fmt.Sprintf("%.2f MB/s", pt.GoodputMBs),
			fmt.Sprintf("%.2fx", pt.GoodputMBs/base.GoodputMBs),
			pt.ReplicaReads, pt.ReplicaFallbacks,
			stats.Ms(pt.PrimaryCPU),
			fmt.Sprintf("%.4f", pt.Occupancy),
			stats.Ms(pt.ReplicationCPU))
	}
	fmt.Println(t)
	fmt.Println("(Primary CPU is the request-serving scheduled time; Push CPU the chain-replication client time)")
	last := pts[len(pts)-1]
	ratio := last.GoodputMBs / base.GoodputMBs
	var worstDrift float64
	for _, pt := range pts[1:] {
		d := (float64(pt.PrimaryCPU) - float64(base.PrimaryCPU)) / float64(base.PrimaryCPU)
		if d < 0 {
			d = -d
		}
		if d > worstDrift {
			worstDrift = d
		}
	}
	fmt.Printf("replicas: goodput %.2fx at %d members (want >= 3x at 4)\n", ratio, last.Replicas)
	fmt.Printf("replicas: primary serving CPU drift %.1f%% across the sweep (want <= 5%%)\n", worstDrift*100)
	ok := worstDrift <= 0.05 && (maxReplicas < 4 || ratio >= 3)
	if ok {
		fmt.Println("replicas: PASS")
	} else {
		fmt.Println("replicas: FAIL")
		os.Exit(1)
	}
	fmt.Println()
	probe, err := shard.ReplicaRereadProbe(maxReplicas)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench: replica probe:", err)
		os.Exit(1)
	}
	fmt.Printf("Replica re-read probe (%d members): %d bytes refetched from chain members — %d replica reads, 0 primary CPU, 0 primary remote ops\n",
		probe.Replicas, probe.Bytes, probe.ReplicaReads)
}

// runElastic runs the elastic fleet sweep and prints the per-step table
// plus the machine-checkable verdict lines CI greps for.
func runElastic(seed int64) {
	res, err := workload.RunElastic(workload.ElasticConfig{Seed: seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("Elastic fleet sweep: 8 clients, Table 1a mix, token cache on, seed %d\n",
		seedShown(seed))
	fmt.Println("(each row: one membership plateau; transitions migrate dirty state donor→owner via rmem WRITEs)")
	fmt.Println()
	t := stats.NewTable("Shards", "Cutover", "Migrated", "Moved keys", "Ideal K/N", "Donor util", "Donor base", "Ops", "Failed", "p99", "Mean util")
	for _, s := range res.Steps {
		cut, mig, moved, ideal, du, db := "-", "-", "-", "-", "-", "-"
		if s.CutoverMs > 0 {
			cut = fmt.Sprintf("%.2fms", s.CutoverMs)
			mig = fmt.Sprintf("%d", s.MigratedBuckets)
			moved = fmt.Sprintf("%d", s.MovedKeys)
			ideal = fmt.Sprintf("%.1f", s.IdealMoved)
			du = fmt.Sprintf("%.3f", s.DonorUtil)
			db = fmt.Sprintf("%.3f", s.DonorBase)
		}
		t.Add(s.Target, cut, mig, moved, ideal, du, db,
			s.Ops, s.Failed, fmt.Sprintf("%.2fms", s.P99Ms), fmt.Sprintf("%.2f", s.MeanUtil))
	}
	fmt.Println(t)
	fmt.Printf("elastic: %d failed ops of %d across %d cutovers (want 0 failed)\n",
		res.TotalFailed, res.TotalOps, res.Cutovers)
	fmt.Printf("elastic: worst p99 %.2fms across all plateaus\n", res.MaxP99Ms)
	fmt.Printf("elastic: donor CPU delta during migration %+.3f (one-sided bound 0.100)\n", res.WorstDonorDelta)
	fmt.Printf("elastic: worst key movement %.2fx the K/N ideal over %d keys\n", res.MovedWorstRatio, res.Keys)
	fmt.Printf("elastic: divergence strays after sweep %d (repaired %d)\n", res.Strays, res.Repaired)
	ok := res.TotalFailed == 0 && res.WorstDonorDelta <= 0.10 && res.Strays == 0
	if ok {
		fmt.Println("elastic: PASS")
	} else {
		fmt.Println("elastic: FAIL")
		os.Exit(1)
	}
}

func seedShown(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

func runScale(maxClients int) {
	fmt.Println("Scalability: closed-loop clients replaying the Table 1a mix")
	fmt.Println()
	t := stats.NewTable("Clients", "Mode", "Ops/s", "Server util", "Mean latency", "p99")
	for n := 1; n <= maxClients; n++ {
		for _, mode := range []dfs.Mode{dfs.HY, dfs.DX} {
			pt, err := workload.RunScale(workload.ScaleConfig{Clients: n, Mode: mode, Window: time.Second})
			if err != nil {
				fmt.Fprintln(os.Stderr, "fsbench:", err)
				os.Exit(1)
			}
			t.Add(n, mode, fmt.Sprintf("%.0f", pt.OpsPerSec),
				fmt.Sprintf("%.2f", pt.ServerUtil),
				fmt.Sprintf("%.2fms", pt.MeanLatMs),
				fmt.Sprintf("%.2fms", pt.P99Ms))
		}
	}
	fmt.Println(t)
}
