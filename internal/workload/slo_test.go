package workload

import (
	"reflect"
	"testing"
	"time"

	"netmem/internal/dfs"
	"netmem/internal/faults"
)

// TestSLOSweepGrid pins the sweep's nine grid cells without running one:
// shape-major order, and every cell's filled config is 100k clients for a
// 1 s window on 4 shards × 3 replicas with 5‰ stragglers, carrying the
// seed and campaign it was given.
func TestSLOSweepGrid(t *testing.T) {
	camp, ok := faults.Named("mixed")
	if !ok {
		t.Fatal("no mixed campaign")
	}
	pts := SLOSweepConfig{Seed: 7, Campaign: &camp}.points()
	var want []OpenLoopConfig
	for _, shape := range []Shape{ShapeSteady, ShapeDiurnal, ShapeFlash} {
		for _, theta := range []float64{0, 0.9, 1.2} {
			want = append(want, OpenLoopConfig{
				Clients:           100_000,
				RatePerClient:     0.05,
				Window:            time.Second,
				Shape:             shape,
				ZipfTheta:         theta,
				Tenants:           DefaultTenants(),
				Shards:            4,
				Replicas:          3,
				Lanes:             8,
				MaxQueue:          4096,
				StragglerPerMille: 5,
				StragglerDelay:    2 * time.Millisecond,
				Seed:              7,
				Dirs:              4,
				PerDir:            8,
				Mode:              dfs.DX,
				Campaign:          &camp,
			})
		}
	}
	if len(pts) != len(want) {
		t.Fatalf("%d grid points, want %d", len(pts), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(pts[i], want[i]) {
			t.Errorf("point %d:\n got %+v\nwant %+v", i, pts[i], want[i])
		}
	}
	if got := (SLOSweepConfig{}).points()[0].Seed; got != 1 {
		t.Errorf("zero seed fills to %d, want 1", got)
	}
}
