package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"netmem/internal/workload"
)

// shortConfig is a workload's config at a test-sized window: 50 ms, or
// 300 ms under a campaign so the window straddles the crash at ~202 ms.
func shortConfig(d *workloadDef, seed int64) workload.OpenLoopConfig {
	cfg := d.cfg(seed)
	cfg.Window = 50 * time.Millisecond
	if cfg.Campaign != nil {
		cfg.Window = 300 * time.Millisecond
	}
	return cfg
}

// TestRigReproducesRunOpenLoop: the rig is a copy of RunOpenLoop's
// topology, so on every workload it must return the identical result,
// des event count included.
func TestRigReproducesRunOpenLoop(t *testing.T) {
	for _, d := range workloads {
		d := d
		t.Run(d.name, func(t *testing.T) {
			cfg := shortConfig(d, 1)
			want, err := workload.RunOpenLoop(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wb, _ := json.Marshal(want)
			gb, _ := json.Marshal(r.res)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("rig drifted from RunOpenLoop:\n rig  %s\n want %s", gb, wb)
			}
			if want.Offered == 0 {
				t.Fatal("no ops offered")
			}
			if cfg.Campaign != nil && !r.res.FailedOver {
				t.Fatal("the window did not straddle the crash: no failover")
			}
		})
	}
}

// TestSpanAccounting: every op's qwait + hold + apply is exactly the
// latency the Recorder got (its root span), the children sit inside the
// root, and every shard span nests inside its op's apply span.
func TestSpanAccounting(t *testing.T) {
	for _, d := range workloads {
		d := d
		t.Run(d.name, func(t *testing.T) {
			r, err := runRig(shortConfig(d, 1))
			if err != nil {
				t.Fatal(err)
			}
			spans := r.tr.spans
			var parts = map[int32]time.Duration{}
			var roots int64
			var okSum time.Duration
			for i := range spans {
				s := &spans[i]
				switch {
				case s.name == spanOp:
					roots++
					if !s.failed {
						okSum += s.dur()
					}
					if s.parent != -1 {
						t.Fatalf("op span %d has a parent", i)
					}
				case s.name == spanQWait || s.name == spanHold || s.name == spanApply:
					p := &spans[s.parent]
					if p.name != spanOp || p.op != s.op {
						t.Fatalf("%v span %d not under its op's root", s.name, i)
					}
					if s.start < p.start || s.end > p.end {
						t.Fatalf("%v span %d [%v,%v] outside root [%v,%v]", s.name, i, s.start, s.end, p.start, p.end)
					}
					parts[s.parent] += s.dur()
				default:
					p := &spans[s.parent]
					if p.name != spanApply || p.op != s.op {
						t.Fatalf("shard span %d (%v) not under its op's apply span", i, s.name)
					}
					if s.start < p.start || s.end > p.end {
						t.Fatalf("shard span %d [%v,%v] outside apply [%v,%v]", i, s.start, s.end, p.start, p.end)
					}
				}
			}
			for i := range spans {
				if s := &spans[i]; s.name == spanOp && parts[int32(i)] != s.dur() {
					t.Fatalf("op %d: qwait+hold+apply = %v, latency %v", s.op, parts[int32(i)], s.dur())
				}
			}
			// The Recorder saw the same latencies: every op accounted, and the
			// completed ones sum to the same total.
			var recOps int64
			var recSum time.Duration
			for _, ts := range r.rec.Tenants {
				recOps += ts.Ops + ts.Failed
				recSum += ts.SumLat
			}
			if roots != recOps || okSum != recSum {
				t.Fatalf("spans: %d ops summing %v; Recorder: %d ops summing %v", roots, okSum, recOps, recSum)
			}
		})
	}
}
