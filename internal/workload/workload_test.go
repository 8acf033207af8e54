package workload

import (
	"math"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

func TestTable1aMatchesPublishedNumbers(t *testing.T) {
	rows, total := Table1a()
	if total != Table1aTotal {
		t.Fatalf("total = %d, want %d", total, Table1aTotal)
	}
	for _, r := range rows {
		if r.Calls != Table1aCounts[r.Activity] {
			t.Fatalf("%v: calls = %d", r.Activity, r.Calls)
		}
		// Recomputed percentages track the published ones. (The published
		// column is itself loosely rounded — it sums to 101.2 — so allow
		// the same slack.)
		pub := Table1aPercent[r.Activity]
		tol := 1.0
		if pub < 1 {
			tol = 0.15
		}
		if math.Abs(r.Percent-pub) > tol {
			t.Errorf("%v: %%=%.2f, published %v", r.Activity, r.Percent, pub)
		}
	}
}

func TestTable1bReproducesAggregates(t *testing.T) {
	rows, total := Table1b(&DefaultTraffic, Table1aCounts)
	// Paper: overall control 766 MB, data 5573 MB, ratio 0.14; control is
	// "about 12%" of the total.
	if total.Ratio < 0.12 || total.Ratio > 0.16 {
		t.Errorf("overall control/data = %.3f, want ≈0.14", total.Ratio)
	}
	share := total.ControlMB / (total.ControlMB + total.DataMB)
	if share < 0.10 || share > 0.14 {
		t.Errorf("control share of total = %.3f, want ≈0.12", share)
	}
	if total.DataMB < 5573*0.85 || total.DataMB > 5573*1.15 {
		t.Errorf("data total = %.0f MB, want ≈5573", total.DataMB)
	}
	if total.ControlMB < 766*0.85 || total.ControlMB > 766*1.15 {
		t.Errorf("control total = %.0f MB, want ≈766", total.ControlMB)
	}
	// Write row: control 4 MB, data 271 MB, ratio 0.01.
	w := rows[ActWrite]
	if w.Ratio > 0.02 {
		t.Errorf("write row ratio = %.3f, want ≈0.01", w.Ratio)
	}
	if w.DataMB < 271*0.8 || w.DataMB > 271*1.2 {
		t.Errorf("write row data = %.0f MB, want ≈271", w.DataMB)
	}
	if w.ControlMB < 3 || w.ControlMB > 6 {
		t.Errorf("write row control = %.1f MB, want ≈4", w.ControlMB)
	}
	// Null pings move no data.
	if rows[ActNullPing].DataMB != 0 {
		t.Error("null pings should carry no data traffic")
	}
}

func TestMostTrafficIsDataMovement(t *testing.T) {
	// §2's point: "for all rows except the Null Ping, the goal of the
	// RPCs is to transfer data" — i.e. every non-null activity's traffic
	// is dominated by data, not control.
	rows, _ := Table1b(&DefaultTraffic, Table1aCounts)
	for _, r := range rows {
		if r.Activity == ActNullPing {
			continue
		}
		if r.DataMB <= r.ControlMB {
			t.Errorf("%v: data %.1f MB not dominant over control %.1f MB",
				r.Activity, r.DataMB, r.ControlMB)
		}
	}
}

func TestGeneratorMatchesMix(t *testing.T) {
	g := NewGenerator(7, 100, 10)
	trace := g.Trace(200000)
	counts := CountByActivity(trace)
	mix := Mix()
	for a := Activity(0); a < numActivities; a++ {
		got := float64(counts[a]) / float64(len(trace))
		if math.Abs(got-mix[a]) > 0.01 {
			t.Errorf("%v: frequency %.4f, mix %.4f", a, got, mix[a])
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(42, 50, 5).Trace(1000)
	b := NewGenerator(42, 50, 5).Trace(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReplayAgainstFileService(t *testing.T) {
	for _, mode := range []dfs.Mode{dfs.DX, dfs.HY} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			env := des.NewEnv()
			cl := cluster.New(env, &model.Default, 2)
			ms := rmem.NewManager(cl.Nodes[0])
			mc := rmem.NewManager(cl.Nodes[1])
			var rep *Replayer
			var setupErr error
			env.Spawn("setup", func(p *des.Proc) {
				srv := dfs.NewServer(p, ms, 2, dfs.Geometry{})
				tree, err := BuildTree(srv, 2, 4)
				if err != nil {
					setupErr = err
					return
				}
				rep = &Replayer{Clerk: dfs.NewClerk(p, mc, srv, mode), Tree: tree}
			})
			if err := env.RunUntil(des.Time(500 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if setupErr != nil {
				t.Fatal(setupErr)
			}
			g := NewGenerator(3, 8, 2)
			var applied int
			env.Spawn("replay", func(p *des.Proc) {
				for _, op := range g.Trace(300) {
					if err := rep.Apply(p, op); err != nil {
						t.Errorf("%v: %v", op.Activity, err)
						return
					}
					applied++
				}
			})
			if err := env.RunUntil(des.Time(5 * 60 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if applied != 300 {
				t.Fatalf("applied %d of 300 ops", applied)
			}
		})
	}
}

func TestScaleDXBeatsHYOnServerLoad(t *testing.T) {
	// The §3 scalability claim: at equal client population and think
	// time, DX leaves the server less utilized (or, if both saturate,
	// delivers more operations).
	const clients = 4
	hy, err := RunScale(ScaleConfig{Clients: clients, Mode: dfs.HY,
		Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dx, err := RunScale(ScaleConfig{Clients: clients, Mode: dfs.DX,
		Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HY: %.0f ops/s, util %.2f; DX: %.0f ops/s, util %.2f",
		hy.OpsPerSec, hy.ServerUtil, dx.OpsPerSec, dx.ServerUtil)
	if hy.OpsDone == 0 || dx.OpsDone == 0 {
		t.Fatal("no operations completed")
	}
	// Per delivered operation, DX must cost the server far less CPU.
	hyPerOp := hy.ServerUtil / hy.OpsPerSec
	dxPerOp := dx.ServerUtil / dx.OpsPerSec
	if dxPerOp >= hyPerOp*0.6 {
		t.Errorf("server CPU per op: DX %.3g, HY %.3g — want DX well under", dxPerOp, hyPerOp)
	}
}

func TestTrafficModelInvariants(t *testing.T) {
	m := &DefaultTraffic
	for a := Activity(0); a < numActivities; a++ {
		c, d := m.PerCall(a)
		if c <= 0 {
			t.Errorf("%v: control %d must be positive (every RPC carries identifiers)", a, c)
		}
		if a == ActNullPing {
			if d != 0 {
				t.Errorf("null ping carries data %d", d)
			}
			continue
		}
		if d <= 0 {
			t.Errorf("%v: data %d must be positive", a, d)
		}
	}
	// Ops that reference a file must cost more control than the null ping
	// (they carry a handle).
	nullC, _ := m.PerCall(ActNullPing)
	getC, _ := m.PerCall(ActGetAttr)
	if getC <= nullC {
		t.Error("file-referencing op should carry more control bytes than a null ping")
	}
}

func TestScaleThroughputGrowsWithClients(t *testing.T) {
	one, err := RunScale(ScaleConfig{Clients: 1, Mode: dfs.DX,
		Window: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunScale(ScaleConfig{Clients: 3, Mode: dfs.DX,
		Window: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if three.OpsPerSec <= one.OpsPerSec*1.5 {
		t.Fatalf("3 clients: %.0f ops/s vs 1 client: %.0f — unsaturated DX should scale",
			three.OpsPerSec, one.OpsPerSec)
	}
}
