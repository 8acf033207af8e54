package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"netmem/internal/stats"
)

// CounterSnap is one counter metric in a snapshot.
type CounterSnap struct {
	Name  string
	Value int64
}

// HistSnap summarizes one latency histogram. Count, Sum, Min, Max and Mean
// are exact; the quantiles are the sketch's estimates, within 1/256 of the
// exact nearest-rank values.
type HistSnap struct {
	Name  string
	Count int
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// TimelineSnap is one utilization timeline: busy time per fixed-width
// bucket of virtual time.
type TimelineSnap struct {
	Name   string
	Bucket time.Duration
	Busy   []time.Duration
}

// Snapshot is a deterministic point-in-time copy of a tracer's metrics:
// every slice is sorted by name, so identical runs compare equal with
// reflect.DeepEqual and render identical String() output.
type Snapshot struct {
	Counters  []CounterSnap
	Hists     []HistSnap
	Timelines []TimelineSnap
}

// Snapshot captures the current metrics (empty, not nil-fielded, for a
// nil tracer).
func (t *Tracer) Snapshot() Snapshot {
	var s Snapshot
	if t == nil {
		return s
	}
	for name, v := range t.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, h := range t.hists {
		s.Hists = append(s.Hists, HistSnap{
			Name:  name,
			Count: int(h.Count()),
			Sum:   time.Duration(h.Sum()),
			Min:   time.Duration(h.Min()),
			Max:   time.Duration(h.Max()),
			Mean:  time.Duration(h.Mean()),
			P50:   time.Duration(h.P50()),
			P95:   time.Duration(h.Quantile(0.95)),
			P99:   time.Duration(h.P99()),
		})
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	for name, tl := range t.timelines {
		busy := append([]time.Duration(nil), tl.Buckets()...)
		s.Timelines = append(s.Timelines, TimelineSnap{Name: name, Bucket: tl.Bucket, Busy: busy})
	}
	sort.Slice(s.Timelines, func(i, j int) bool { return s.Timelines[i].Name < s.Timelines[j].Name })
	return s
}

// Counter returns the value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Hist returns the named histogram summary.
func (s Snapshot) Hist(name string) (HistSnap, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnap{}, false
}

// CounterSum sums all counters whose name starts with prefix — e.g.
// CounterSum("cpu.node0.") is node 0's total CPU demand in nanoseconds.
func (s Snapshot) CounterSum(prefix string) int64 {
	var sum int64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			sum += c.Value
		}
	}
	return sum
}

// String renders the snapshot as a fixed-width text summary: counters,
// histograms with p50/p95/p99, and per-CPU utilization timelines. The
// output is deterministic.
func (s Snapshot) String() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		t := stats.NewTable("counter", "value")
		for _, c := range s.Counters {
			t.Add(c.Name, c.Value)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	if len(s.Hists) > 0 {
		t := stats.NewTable("histogram", "count", "mean", "p50", "p95", "p99", "max")
		for _, h := range s.Hists {
			t.Add(h.Name, h.Count, stats.Us(h.Mean), stats.Us(h.P50), stats.Us(h.P95), stats.Us(h.P99), stats.Us(h.Max))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, tl := range s.Timelines {
		fmt.Fprintf(&b, "utilization %s (bucket %v):\n", tl.Name, tl.Bucket)
		rt := stats.Timeline{Bucket: tl.Bucket}
		for i, busy := range tl.Busy {
			rt.Add(time.Duration(i)*tl.Bucket, busy)
		}
		b.WriteString(rt.Render(40))
	}
	return b.String()
}
