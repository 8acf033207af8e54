package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestNilTracerIsSafeAndDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.EventsEnabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Count("x", 1)
	tr.Observe("y", time.Microsecond)
	tr.Usage("cpu", 0, time.Millisecond)
	tr.Span("t", "c", "n", 0, time.Microsecond)
	tr.Instant("t", "c", "n", 0)
	tr.Counter("q", 0, 1)
	tr.Reset()
	if tr.CounterValue("x") != 0 || tr.Dropped() != 0 || len(tr.Events()) != 0 {
		t.Fatal("nil tracer collected something")
	}
	snap := tr.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Hists) != 0 || snap.String() != "" {
		t.Fatal("nil tracer snapshot not empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsWithoutEvents(t *testing.T) {
	tr := New(Config{})
	tr.Count("ops", 2)
	tr.Count("ops", 3)
	tr.Observe("lat", 10*time.Microsecond)
	tr.Span("t", "c", "n", 0, time.Microsecond) // events off: dropped silently
	if got := tr.CounterValue("ops"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if len(tr.Events()) != 0 {
		t.Fatalf("events collected with Events=false")
	}
	snap := tr.Snapshot()
	if snap.Counter("ops") != 5 {
		t.Fatalf("snapshot counter = %d", snap.Counter("ops"))
	}
	h, ok := snap.Hist("lat")
	if !ok || h.Count != 1 || h.P50 != 10*time.Microsecond {
		t.Fatalf("hist snap = %+v ok=%v", h, ok)
	}
}

func TestCounterSumPrefix(t *testing.T) {
	tr := New(Config{})
	tr.Count("cpu.node0.rx", 100)
	tr.Count("cpu.node0.reply", 50)
	tr.Count("cpu.node1.rx", 7)
	snap := tr.Snapshot()
	if got := snap.CounterSum("cpu.node0."); got != 150 {
		t.Fatalf("CounterSum = %d, want 150", got)
	}
}

func TestEventBufferBound(t *testing.T) {
	tr := New(Config{Events: true, MaxEvents: 3})
	for i := 0; i < 5; i++ {
		tr.Instant("t", "c", "n", time.Duration(i))
	}
	if len(tr.Events()) != 3 || tr.Dropped() != 2 {
		t.Fatalf("events=%d dropped=%d, want 3/2", len(tr.Events()), tr.Dropped())
	}
}

func TestChromeTraceExportValidAndOrdered(t *testing.T) {
	tr := New(Config{Events: true})
	// Emit deliberately out of virtual-time order; export must sort.
	tr.Span("node0.cpu", "cpu", "rx", 30*time.Microsecond, 5*time.Microsecond)
	tr.Instant("sched", "des", "spawn clerk", 10*time.Microsecond)
	tr.Counter("node0.cpu.busy", 20*time.Microsecond, 1)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var last float64 = -1
	n := 0
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		n++
		if ev.Ts < last {
			t.Fatalf("events not time-ordered: %v after %v", ev.Ts, last)
		}
		last = ev.Ts
	}
	if n != 3 {
		t.Fatalf("exported %d events, want 3", n)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	mk := func() Snapshot {
		tr := New(Config{})
		// Insertion orders differ run to run only if we depended on map
		// iteration; exercise several keys.
		for _, k := range []string{"b", "a", "c"} {
			tr.Count("ctr."+k, 1)
			tr.Observe("lat."+k, 5*time.Microsecond)
			tr.Observe("lat."+k, 15*time.Microsecond)
			tr.Usage("cpu."+k, 0, 300*time.Microsecond)
		}
		return tr.Snapshot()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", a, b)
	}
	if a.String() != b.String() {
		t.Fatal("snapshot text differs")
	}
	if a.String() == "" {
		t.Fatal("snapshot text empty")
	}
}

func TestResetClears(t *testing.T) {
	tr := New(Config{Events: true})
	tr.Count("x", 1)
	tr.Observe("y", time.Microsecond)
	tr.Instant("t", "c", "n", 0)
	tr.Reset()
	if tr.CounterValue("x") != 0 || len(tr.Events()) != 0 {
		t.Fatal("reset did not clear")
	}
	snap := tr.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Hists) != 0 {
		t.Fatal("reset snapshot not empty")
	}
}
