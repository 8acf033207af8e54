package workload

import (
	"testing"
	"time"
)

// A miniature sweep (2→3→2, short plateaus) through the full RunElastic
// harness: the invariants the fsbench gates enforce must hold at any scale.
func TestRunElasticSmallSweep(t *testing.T) {
	res, err := RunElastic(ElasticConfig{
		StartShards: 2,
		PeakShards:  3,
		Clients:     2,
		Hold:        40 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("steps = %d, want 3 (2→3→2)", len(res.Steps))
	}
	if res.Cutovers != 2 {
		t.Fatalf("cutovers = %d, want 2", res.Cutovers)
	}
	if res.TotalOps == 0 {
		t.Fatal("no operations completed during the sweep")
	}
	if res.TotalFailed != 0 {
		t.Fatalf("%d failed ops", res.TotalFailed)
	}
	if res.Strays != 0 {
		t.Fatalf("%d divergence strays after the sweep", res.Strays)
	}
	if res.Steps[1].Target != 3 || res.Steps[1].MovedKeys == 0 {
		t.Fatalf("join step: target=%d moved=%d", res.Steps[1].Target, res.Steps[1].MovedKeys)
	}
	if d := res.WorstDonorDelta; d > 0.10 {
		t.Fatalf("donor CPU delta %.3f exceeds the 0.100 bound", d)
	}
}
