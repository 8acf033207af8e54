package stats

import (
	"fmt"
	"time"
)

// Timeline integrates busy time into fixed-width buckets of virtual time,
// for CPU-utilization-over-time summaries: each Add spreads a busy
// interval across the buckets it covers, and Utilization reports the busy
// fraction per bucket.
type Timeline struct {
	// Bucket is the bucket width; the zero value gets DefaultTimelineBucket
	// on first Add.
	Bucket  time.Duration
	buckets []time.Duration
}

// DefaultTimelineBucket is the bucket width a zero-valued Timeline uses.
const DefaultTimelineBucket = time.Millisecond

// Add records a busy interval [start, start+dur) on the timeline.
func (t *Timeline) Add(start, dur time.Duration) {
	if t.Bucket <= 0 {
		t.Bucket = DefaultTimelineBucket
	}
	if dur <= 0 || start < 0 {
		return
	}
	end := start + dur
	for b := start / t.Bucket; b*t.Bucket < end; b++ {
		lo, hi := b*t.Bucket, (b+1)*t.Bucket
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		for int(b) >= len(t.buckets) {
			t.buckets = append(t.buckets, 0)
		}
		t.buckets[b] += hi - lo
	}
}

// Buckets returns the per-bucket busy time (the slice is live; do not
// mutate).
func (t *Timeline) Buckets() []time.Duration { return t.buckets }

// Utilization returns the busy fraction of bucket i.
func (t *Timeline) Utilization(i int) float64 {
	if i < 0 || i >= len(t.buckets) || t.Bucket <= 0 {
		return 0
	}
	return float64(t.buckets[i]) / float64(t.Bucket)
}

// Render draws one bar per bucket, scaled so a fully busy bucket spans
// width columns.
func (t *Timeline) Render(width int) string {
	out := ""
	for i := range t.buckets {
		u := t.Utilization(i)
		label := fmt.Sprintf("%8v", time.Duration(i)*t.Bucket)
		out += Bar(label, u, 1, width, fmt.Sprintf("%3.0f%%", u*100)) + "\n"
	}
	return out
}
