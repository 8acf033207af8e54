// Package obs is the simulation observability substrate: one Tracer per
// simulation environment collects span/event traces (exportable as Chrome
// trace_event JSON for chrome://tracing or Perfetto), monotonic counters,
// latency histograms, and CPU-utilization timelines — all keyed by virtual
// time, so two identical runs produce byte-identical output.
//
// The package sits below every simulation layer (it imports only the
// standard library and internal/stats); des, atm, cluster, rmem and dfs
// call into it through a *Tracer hung off the des.Env. A nil *Tracer is
// the disabled state: every method is nil-safe and instrumented code pays
// only a pointer test when observability is off.
//
// Two collection classes exist:
//
//   - Metrics (Count, Observe, Usage) are always collected while a tracer
//     is attached. They are cheap map updates and power Snapshot().
//   - Events (Span, Instant, Counter) are collected only when
//     Config.Events is set, because a busy simulation can emit millions.
package obs

import (
	"time"

	"netmem/internal/stats"
)

// Config selects what a Tracer collects.
type Config struct {
	// Events enables span/instant/counter event collection for trace
	// export. Metrics are always collected.
	Events bool
	// MaxEvents bounds the event buffer (default DefaultMaxEvents); events
	// beyond the bound are counted in Dropped rather than stored.
	MaxEvents int
	// TimelineBucket is the CPU-utilization timeline bucket width
	// (default stats.DefaultTimelineBucket).
	TimelineBucket time.Duration
}

// DefaultMaxEvents bounds the event buffer unless Config overrides it.
const DefaultMaxEvents = 1 << 20

// Event phases, mirroring the Chrome trace_event phase letters.
const (
	PhaseSpan    = 'X' // complete event: At..At+Dur
	PhaseInstant = 'i' // instantaneous event
	PhaseCounter = 'C' // counter sample
)

// Event is one trace event at a point (or span) of virtual time.
type Event struct {
	At    time.Duration // virtual time since the simulation epoch
	Dur   time.Duration // span length (PhaseSpan only)
	Phase byte
	Track string // rendered as a named Chrome thread
	Cat   string
	Name  string
	Value float64 // PhaseCounter only
}

// Tracer collects events and metrics for one simulation environment. The
// zero value is not usable; call New. A nil *Tracer is valid everywhere
// and collects nothing.
type Tracer struct {
	cfg Config

	events  []Event
	dropped int64

	counters  map[string]int64
	hists     map[string]*stats.Sketch
	timelines map[string]*stats.Timeline
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &Tracer{
		cfg:       cfg,
		counters:  make(map[string]int64),
		hists:     make(map[string]*stats.Sketch),
		timelines: make(map[string]*stats.Timeline),
	}
}

// Enabled reports whether the tracer collects anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// EventsEnabled reports whether span/instant/counter events are stored.
func (t *Tracer) EventsEnabled() bool { return t != nil && t.cfg.Events }

// Reset discards everything collected so far (between experiment phases,
// e.g. after warm-up), keeping the configuration.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.events = nil
	t.dropped = 0
	t.counters = make(map[string]int64)
	t.hists = make(map[string]*stats.Sketch)
	t.timelines = make(map[string]*stats.Timeline)
}

// Dropped reports events discarded because the buffer was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the collected events in emission order (live slice; do
// not mutate).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

func (t *Tracer) emit(ev Event) {
	if len(t.events) >= t.cfg.MaxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Span records a complete event covering [start, start+dur) on a track.
func (t *Tracer) Span(track, cat, name string, start, dur time.Duration) {
	if t == nil || !t.cfg.Events {
		return
	}
	t.emit(Event{At: start, Dur: dur, Phase: PhaseSpan, Track: track, Cat: cat, Name: name})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(track, cat, name string, at time.Duration) {
	if t == nil || !t.cfg.Events {
		return
	}
	t.emit(Event{At: at, Phase: PhaseInstant, Track: track, Cat: cat, Name: name})
}

// Counter records a counter sample (rendered as a counter track in
// chrome://tracing/Perfetto).
func (t *Tracer) Counter(name string, at time.Duration, value float64) {
	if t == nil || !t.cfg.Events {
		return
	}
	t.emit(Event{At: at, Phase: PhaseCounter, Track: name, Name: name, Value: value})
}

// Count adds delta to the named monotonic counter metric.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.counters[name] += delta
}

// CounterValue returns the current value of a counter metric.
func (t *Tracer) CounterValue(name string) int64 {
	if t == nil {
		return 0
	}
	return t.counters[name]
}

// Observe records a duration sample into the named latency histogram: a
// stats.Sketch, the same streaming structure the workload Recorder uses.
func (t *Tracer) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	h := t.hists[name]
	if h == nil {
		h = &stats.Sketch{}
		t.hists[name] = h
	}
	h.ObserveDuration(d)
}

// Usage integrates a busy interval [start, start+dur) into the named
// utilization timeline (one per CPU/resource).
func (t *Tracer) Usage(name string, start, dur time.Duration) {
	if t == nil {
		return
	}
	tl := t.timelines[name]
	if tl == nil {
		tl = &stats.Timeline{Bucket: t.cfg.TimelineBucket}
		t.timelines[name] = tl
	}
	tl.Add(start, dur)
}
