package workload

import (
	"testing"
	"time"
)

func TestRunShardScaleSmoke(t *testing.T) {
	pt, err := RunShardScale(ShardScaleConfig{
		Shards: 2, ClientsPerShard: 2, Window: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Shards != 2 || pt.Clients != 4 {
		t.Errorf("shape: %d shards, %d clients", pt.Shards, pt.Clients)
	}
	if pt.OpsDone == 0 || pt.OpsPerSec <= 0 {
		t.Errorf("no throughput: %+v", pt)
	}
	if len(pt.ShardUtil) != 2 || pt.MeanUtil <= 0 {
		t.Errorf("missing per-shard occupancy: %+v", pt.ShardUtil)
	}
}

// TestShardScaleOccupancyFlat is the scaling acceptance check: with load
// scaled proportionally (fixed clients per shard), mean per-shard CPU
// occupancy at 3 shards must stay within 15% of the 1-shard baseline —
// sharding divides the load rather than replicating it.
func TestShardScaleOccupancyFlat(t *testing.T) {
	run := func(shards int) utilPoint {
		pt, err := RunShardScale(ShardScaleConfig{
			Shards: shards, Window: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return utilPoint{pt.MeanUtil, pt.OpsPerSec}
	}
	base := run(1)
	scaled := run(3)
	ratio := scaled.Util / base.Util
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("3-shard mean occupancy %.3f vs 1-shard %.3f (ratio %.2f), want within 15%%",
			scaled.Util, base.Util, ratio)
	}
	if scaled.Ops < 2*base.Ops {
		t.Errorf("aggregate throughput did not scale: 1 shard %.0f ops/s, 3 shards %.0f ops/s",
			base.Ops, scaled.Ops)
	}
}

type utilPoint struct {
	Util float64
	Ops  float64
}

func TestRunShardScaleTokenCache(t *testing.T) {
	pt, err := RunShardScale(ShardScaleConfig{
		Shards: 2, ClientsPerShard: 2, TokenCache: true,
		Window: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.TokenHits == 0 {
		t.Error("token cache enabled but no read was served from it")
	}
}
