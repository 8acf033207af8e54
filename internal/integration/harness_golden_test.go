package integration

import (
	"fmt"
	"testing"
	"time"

	"netmem/internal/consensus"
	"netmem/internal/dfs"
	"netmem/internal/shard"
	"netmem/internal/workload"
)

// TestHarnessGolden pins the exact results of every closed-loop harness
// and zero-CPU probe built on the dfs rig, at small configurations. The
// simulation is deterministic, so each result (ops, latencies,
// utilizations, event counts — every field) must reproduce byte for byte;
// a refactor of the harness plumbing that moves any of them by one event
// is a behaviour change, not a cleanup.
func TestHarnessGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func() (any, error)
		want string
	}{
		{"RunScale/DX", func() (any, error) {
			return workload.RunScale(workload.ScaleConfig{Clients: 2, Mode: dfs.DX,
				Window: 100 * time.Millisecond, ThinkTime: 2 * time.Millisecond})
		}, `{Mode:DX Clients:2 OpsDone:89 OpsPerSec:891.2483983690474 ServerUtil:0.10505815811381476 MeanLatMs:0.27415 P99Ms:1.910412 Events:10111}`},
		{"RunScale/HY", func() (any, error) {
			return workload.RunScale(workload.ScaleConfig{Clients: 2, Mode: dfs.HY,
				Window: 100 * time.Millisecond, ThinkTime: 2 * time.Millisecond})
		}, `{Mode:HY Clients:2 OpsDone:74 OpsPerSec:740.0174422111129 ServerUtil:0.35686865139411333 MeanLatMs:0.737861 P99Ms:2.629632 Events:12932}`},
		{"RunShardScale", func() (any, error) {
			return workload.RunShardScale(workload.ShardScaleConfig{Shards: 2, ClientsPerShard: 2,
				Mode: dfs.DX, TokenCache: true, Window: 100 * time.Millisecond, ThinkTime: 2 * time.Millisecond})
		}, `{Mode:DX Shards:2 Clients:4 OpsDone:162 OpsPerSec:1620.027297459962 ShardUtil:[0.22027671166259152 0.12003702262383122] MeanUtil:0.17015686714321138 MeanLatMs:0.473829 P99Ms:2.842624 TokenHits:1 Events:34038}`},
		{"RunElastic", func() (any, error) {
			res, err := workload.RunElastic(workload.ElasticConfig{StartShards: 2, PeakShards: 3,
				Clients: 2, Mode: dfs.DX, TokenCache: true, Hold: 40 * time.Millisecond, Seed: 1})
			if err != nil {
				return nil, err
			}
			return *res, nil
		}, `{Mode:DX TokenCache:true Keys:40 Steps:[{Target:2 CutoverMs:0 MigratedBuckets:0 EvictedBuckets:0 MovedKeys:0 IdealMoved:0 DonorUtil:0 DonorBase:0 Ops:188 Failed:0 P99Ms:2.514944 MeanUtil:0.40724292500000003} {Target:3 CutoverMs:12.551051000000001 MigratedBuckets:0 EvictedBuckets:17 MovedKeys:16 IdealMoved:13.333333333333334 DonorUtil:0.3015371382046014 DonorBase:0.40724292500000003 Ops:200 Failed:0 P99Ms:4.800512 MeanUtil:0.3315424333333334} {Target:2 CutoverMs:4.2182770000000005 MigratedBuckets:0 EvictedBuckets:5 MovedKeys:16 IdealMoved:13.333333333333334 DonorUtil:0.046559294233166765 DonorBase:0.6293448 Ops:224 Failed:0 P99Ms:4.636672 MeanUtil:0.4433469375}] TotalOps:612 TotalFailed:0 MaxP99Ms:4.800512 WorstDonorDelta:0 MovedWorstRatio:1.2 Cutovers:2 MigratedTotal:0 Strays:0 Repaired:0 Events:103043}`},
		{"RunReplicaScale", func() (any, error) {
			pt, err := shard.RunReplicaScale(2, 2)
			if err != nil {
				return nil, err
			}
			return *pt, nil
		}, `{Replicas:2 Readers:2 Window:100ms ReadBytes:786432 GoodputMBs:7.5 ReplicaReads:112 ReplicaFallbacks:0 PrimaryCPU:1.76496ms Occupancy:0.0176496 ReplicationCPU:7.5912ms WriterOps:5}`},
		{"TokenRereadProbe", func() (any, error) { return shard.TokenRereadProbe(2) }, `{Shards:2 Bytes:12288 TokenHits:2 ServerCPU:0s RemoteReads:0}`},
		{"ReplicaRereadProbe", func() (any, error) { return shard.ReplicaRereadProbe(2) }, `{Replicas:2 Bytes:12288 ReplicaReads:2 PrimaryCPU:0s PrimaryRemoteOps:0}`},
		{"RunCASBench", func() (any, error) {
			res, err := consensus.RunCASBench(consensus.CASBenchConfig{Clerks: 2, WinsPerClerk: 20, Seed: 1})
			if err != nil {
				return nil, err
			}
			return *res, nil
		}, `{Clerks:2 WinsPerClerk:20 Attempts:60 Wins:40 Window:4.23ms PerWin:105.75µs Events:2460 AgreementCPU:0s InterfaceCPU:1.566ms}`},
		{"RunCompaction", func() (any, error) {
			res, err := consensus.RunCompaction(16, 40, 1)
			if err != nil {
				return nil, err
			}
			return *res, nil
		}, `{Slots:16 Commits:40 Applied:44 Snapshots:1 SnapBase:42 Digest:10943828436053541987 LogsAgree:true ReplayOK:true Window:82.634536ms Events:331172}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", res); got != c.want {
				t.Errorf("result moved:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
