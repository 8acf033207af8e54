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
				Window: 100 * time.Millisecond})
		}, `{Mode:DX Clients:2 OpsDone:89 OpsPerSec:891.2483983690474 ServerUtil:0.10505815811381476 MeanLatMs:0.27415 P99Ms:1.910412 Events:10111}`},
		{"RunScale/HY", func() (any, error) {
			return workload.RunScale(workload.ScaleConfig{Clients: 2, Mode: dfs.HY,
				Window: 100 * time.Millisecond})
		}, `{Mode:HY Clients:2 OpsDone:74 OpsPerSec:740.0174422111129 ServerUtil:0.35686865139411333 MeanLatMs:0.737861 P99Ms:2.629632 Events:12932}`},
		{"RunShardScale", func() (any, error) {
			return workload.RunShardScale(workload.ShardScaleConfig{Shards: 2, ClientsPerShard: 2,
				TokenCache: true, Window: 100 * time.Millisecond})
		}, `{Mode:DX Shards:2 Clients:4 OpsDone:171 OpsPerSec:1710.1498604322696 ShardUtil:[0.17113299638447318 0.093789218749239] MeanUtil:0.13246110756685608 MeanLatMs:0.350621 P99Ms:2.596864 TokenHits:1 Events:24752}`},
		{"RunElastic", func() (any, error) {
			res, err := workload.RunElastic(workload.ElasticConfig{StartShards: 2, PeakShards: 3,
				Clients: 2, Hold: 40 * time.Millisecond, Seed: 1})
			if err != nil {
				return nil, err
			}
			return *res, nil
		}, `{Mode:DX TokenCache:true Keys:40 Steps:[{Target:2 CutoverMs:0 MigratedBuckets:0 EvictedBuckets:0 MovedKeys:0 IdealMoved:0 DonorUtil:0 DonorBase:0 Ops:266 Failed:0 P99Ms:2.060288 MeanUtil:0.4068554625} {Target:3 CutoverMs:12.403868000000001 MigratedBuckets:0 EvictedBuckets:17 MovedKeys:16 IdealMoved:13.333333333333334 DonorUtil:0.2824285537382371 DonorBase:0.4068554625 Ops:250 Failed:0 P99Ms:4.120576 MeanUtil:0.3430781916666667} {Target:2 CutoverMs:4.653761 MigratedBuckets:0 EvictedBuckets:6 MovedKeys:16 IdealMoved:13.333333333333334 DonorUtil:0.32005081481408265 DonorBase:0.5865 Ops:216 Failed:0 P99Ms:4.866048 MeanUtil:0.4322681}] TotalOps:732 TotalFailed:0 MaxP99Ms:4.866048 WorstDonorDelta:0 MovedWorstRatio:1.2 Cutovers:2 MigratedTotal:0 Strays:0 Repaired:0 Events:92982}`},
		{"RunReplicaScale", func() (any, error) {
			pt, err := shard.RunReplicaScale(2, 2)
			if err != nil {
				return nil, err
			}
			return *pt, nil
		}, `{Replicas:2 Readers:2 Window:100ms ReadBytes:786432 GoodputMBs:7.5 ReplicaReads:112 ReplicaFallbacks:0 PrimaryCPU:1.76496ms Occupancy:0.0176496 ReplicationCPU:7.608ms WriterOps:5}`},
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
		}, `{Slots:16 Commits:40 Applied:44 Snapshots:1 SnapBase:42 Digest:10943828436053541987 LogsAgree:true ReplayOK:true Window:82.630536ms Events:331425}`},
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
