// Package faults is the deterministic fault-campaign engine (§3.7). The
// paper treats data loss within the cluster as "an extremely rare
// occurrence" — but rare is not never, and a system that aspires to
// production scale must keep producing correct results when cells are
// lost, corrupted, duplicated, reordered, links flap, FIFOs overflow, or
// whole machines crash and restart. This package schedules exactly those
// events, and nothing else: recovering from them is the job of the
// reliability layer (internal/reliable) and of the services above it.
//
// Every injected fault is drawn from a per-link random stream derived from
// one campaign seed, and every time-triggered fault (flap windows, crash
// schedules) is keyed to virtual time — so two runs with the same seed and
// the same workload inject byte-identical fault sequences, and a failure
// seen once can be replayed forever.
//
// The engine is passive: it renders verdicts (Judge) when the network
// layer asks, and fires crash callbacks the cluster layer registers
// (BindNode). It injects at the cell level because that is where the
// paper's hardware loses data; everything above sees only the
// consequences.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"netmem/internal/des"
)

// LinkFault configures the misbehaviour of one link (or of every link,
// when used as a campaign default). Probabilities are per cell.
type LinkFault struct {
	// Loss is the probability a cell is dropped in flight.
	Loss float64
	// Corrupt is the probability one payload byte of a cell is flipped in
	// flight. The AAL5 frame CRC catches corruption that lands in the
	// frame body; a flip in the padding is delivered harmlessly, exactly
	// as on real hardware.
	Corrupt float64
	// Duplicate is the probability a cell is delivered twice.
	Duplicate float64
	// Reorder is the probability a cell is held back and delivered after
	// the next cell on the same link (an adjacent swap — the minimal
	// reordering a cell network can produce).
	Reorder float64
	// Flaps are scheduled outage windows: while virtual time is inside
	// [Down, Up) every cell on the link is dropped.
	Flaps []Flap
	// Delays are scheduled slow-down windows: while virtual time is inside
	// [From, Until) every cell on the link takes Extra longer on the wire.
	// Like a Partition (and unlike the probabilistic faults) a delay draws
	// nothing from the random streams, so adding one to a campaign perturbs
	// no other fault sequence. The replica-lag campaigns use it to make
	// chain propagation links run behind without losing a single cell.
	Delays []Delay
}

// Delay is one link slow-down window in virtual time.
type Delay struct {
	From  time.Duration // window start (inclusive)
	Until time.Duration // window end (exclusive); 0 = forever
	Extra time.Duration // added to every cell's wire time while active
}

// active reports whether t falls inside the window.
func (d Delay) active(t des.Time) bool {
	return t >= des.Time(d.From) && (d.Until == 0 || t < des.Time(d.Until))
}

// Flap is one link-outage window in virtual time.
type Flap struct {
	Down time.Duration // outage start (inclusive)
	Up   time.Duration // outage end (exclusive)
}

// active reports whether t falls inside the window.
func (f Flap) active(t des.Time) bool {
	return t >= des.Time(f.Down) && t < des.Time(f.Up)
}

// Crash schedules a node failure (and optional restart) in virtual time.
type Crash struct {
	Node      int
	At        time.Duration
	RecoverAt time.Duration // 0 = never restarts
}

// Partition is a bidirectional mute between two node groups: while
// virtual time is inside [From, HealAt) every cell whose source is in one
// group and destination in the other is dropped, in both directions.
// Unlike a Flap it is keyed to the cell's endpoints, not the link name, so
// one schedule isolates a node regardless of fabric topology (direct
// links or switch hops). Purely time-based — a partition draws nothing
// from the random streams, so adding one to a campaign perturbs no other
// fault sequence.
type Partition struct {
	A, B   []int
	From   time.Duration // partition start (inclusive)
	HealAt time.Duration // heal time (exclusive); 0 = never heals
}

// severs reports whether the partition, when active, cuts traffic
// between src and dst.
func (pt Partition) severs(src, dst int) bool {
	return (contains(pt.A, src) && contains(pt.B, dst)) ||
		(contains(pt.B, src) && contains(pt.A, dst))
}

func contains(s []int, n int) bool {
	for _, v := range s {
		if v == n {
			return true
		}
	}
	return false
}

// Campaign is a complete, seeded fault schedule for one run.
type Campaign struct {
	// Name labels the campaign in reports.
	Name string
	// Seed seeds every random stream the campaign draws from. Zero means
	// "use the environment's seed" (des.Env.SeedValue), so an unseeded
	// campaign is still reproducible.
	Seed int64
	// Default applies to links with no specific entry in Links.
	Default LinkFault
	// Links overrides Default per link name ("link0->1", "sw.in2", …).
	Links map[string]LinkFault
	// Crashes is the node failure schedule.
	Crashes []Crash
	// Partitions are bidirectional group mutes with heal times.
	Partitions []Partition
	// DropOnOverflow makes full destination FIFOs drop arriving cells
	// instead of exerting link-level backpressure — the behaviour of
	// controllers without hardware flow control.
	DropOnOverflow bool
}

// Injection kinds, as reported by Counts and the obs counters
// ("faults.injected.<kind>").
const (
	KindLoss      = "loss"
	KindCorrupt   = "corrupt"
	KindDup       = "dup"
	KindReorder   = "reorder"
	KindFlap      = "flap"
	KindOverflow  = "overflow"
	KindCrash     = "crash"
	KindRecover   = "recover"
	KindPartition = "partition"
	KindDelay     = "delay"
)

// Verdict is the engine's ruling on one cell.
type Verdict struct {
	// Drop discards the cell (loss or flap).
	Drop bool
	// CorruptByte names the payload byte to flip, or -1.
	CorruptByte int
	// Duplicate delivers the cell twice.
	Duplicate bool
	// HoldOne holds the cell back until the next cell on the link has
	// been delivered (adjacent reorder).
	HoldOne bool
}

// Engine renders fault verdicts for one simulation run. Create one with
// NewEngine and hand it to the network layer (cluster.WithFaultEngine /
// netmem.WithFaults); a nil *Engine everywhere means "no faults".
type Engine struct {
	env  *des.Env
	camp Campaign
	seed int64
	rngs map[string]*rand.Rand

	counts    map[string]int64
	onRecover map[int][]func()
}

// NewEngine binds a campaign to a simulation environment. The campaign's
// seed (or, when zero, the environment's) fixes every stream the engine
// will ever draw from.
func NewEngine(env *des.Env, camp Campaign) *Engine {
	seed := camp.Seed
	if seed == 0 {
		seed = env.SeedValue()
	}
	return &Engine{
		env:       env,
		camp:      camp,
		seed:      seed,
		rngs:      make(map[string]*rand.Rand),
		counts:    make(map[string]int64),
		onRecover: make(map[int][]func()),
	}
}

// Campaign returns the engine's campaign.
func (e *Engine) Campaign() Campaign { return e.camp }

// Seed returns the effective seed (after zero-resolution).
func (e *Engine) Seed() int64 { return e.seed }

// DropOnOverflow reports whether full FIFOs should drop instead of
// backpressure. Nil-safe.
func (e *Engine) DropOnOverflow() bool { return e != nil && e.camp.DropOnOverflow }

// linkRand returns the link's private random stream, derived from the
// campaign seed and the link name — so adding a link (or reordering link
// construction) does not perturb any other link's draw sequence.
func (e *Engine) linkRand(link string) *rand.Rand {
	r, ok := e.rngs[link]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(link))
		r = rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
		e.rngs[link] = r
	}
	return r
}

// plan resolves the LinkFault governing a link.
func (e *Engine) plan(link string) LinkFault {
	if f, ok := e.camp.Links[link]; ok {
		return f
	}
	return e.camp.Default
}

// Judge rules on one cell traversing the named link. Nil-safe: a nil
// engine delivers everything untouched.
func (e *Engine) Judge(link string) Verdict {
	v := Verdict{CorruptByte: -1}
	if e == nil {
		return v
	}
	f := e.plan(link)
	for _, fl := range f.Flaps {
		if fl.active(e.env.Now()) {
			e.Count(KindFlap)
			v.Drop = true
			return v
		}
	}
	if f.Loss == 0 && f.Corrupt == 0 && f.Duplicate == 0 && f.Reorder == 0 {
		return v
	}
	r := e.linkRand(link)
	if f.Loss > 0 && r.Float64() < f.Loss {
		e.Count(KindLoss)
		v.Drop = true
		return v
	}
	if f.Corrupt > 0 && r.Float64() < f.Corrupt {
		e.Count(KindCorrupt)
		v.CorruptByte = r.Intn(48)
	}
	if f.Duplicate > 0 && r.Float64() < f.Duplicate {
		e.Count(KindDup)
		v.Duplicate = true
	}
	if f.Reorder > 0 && r.Float64() < f.Reorder {
		e.Count(KindReorder)
		v.HoldOne = true
	}
	return v
}

// ExtraDelay returns the extra wire latency the campaign imposes on one
// cell traversing the named link right now: the sum of every active delay
// window. Purely time-based — no random stream is consulted — so a
// delayed campaign injects byte-identical sequences run for run. The
// network layer adds the result to the cell's serialization time.
// Nil-safe: a nil engine delays nothing.
func (e *Engine) ExtraDelay(link string) time.Duration {
	if e == nil {
		return 0
	}
	f := e.plan(link)
	if len(f.Delays) == 0 {
		return 0
	}
	now := e.env.Now()
	var total time.Duration
	for _, d := range f.Delays {
		if d.active(now) {
			total += d.Extra
		}
	}
	if total > 0 {
		e.Count(KindDelay)
	}
	return total
}

// PartitionDrop rules on one cell by its endpoints: true means an active
// partition severs src from dst and the cell must be dropped. The network
// layer consults it once per cell hop, before any link-level verdict.
// Nil-safe: a nil engine (or a campaign with no partitions) delivers
// everything.
func (e *Engine) PartitionDrop(src, dst int) bool {
	if e == nil || len(e.camp.Partitions) == 0 {
		return false
	}
	now := e.env.Now()
	for _, pt := range e.camp.Partitions {
		if now < des.Time(pt.From) {
			continue
		}
		if pt.HealAt > 0 && now >= des.Time(pt.HealAt) {
			continue
		}
		if pt.severs(src, dst) {
			e.Count(KindPartition)
			return true
		}
	}
	return false
}

// Count records one injected fault of the given kind, in the engine's own
// tally and (when a tracer is attached) the "faults.injected.<kind>" obs
// counter. Exported so the network layer can report faults the engine
// merely enabled (FIFO-overflow drops). Nil-safe.
func (e *Engine) Count(kind string) {
	if e == nil {
		return
	}
	e.counts[kind]++
	if tr := e.env.Tracer(); tr != nil {
		tr.Count("faults.injected."+kind, 1)
	}
}

// Counts returns the per-kind injection tally as a sorted, stable list of
// "kind=N" strings (convenient for logs and deterministic test output).
func (e *Engine) Counts() []string {
	if e == nil {
		return nil
	}
	kinds := make([]string, 0, len(e.counts))
	for k := range e.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = fmt.Sprintf("%s=%d", k, e.counts[k])
	}
	return out
}

// Injected returns the tally for one kind.
func (e *Engine) Injected(kind string) int64 {
	if e == nil {
		return 0
	}
	return e.counts[kind]
}

// BindNode registers a node's crash/recover callbacks and schedules the
// campaign's crash events for it. The cluster layer calls this once per
// node at construction; callbacks run in scheduler context and must not
// block.
func (e *Engine) BindNode(node int, fail, recover func()) {
	if e == nil {
		return
	}
	for _, c := range e.camp.Crashes {
		if c.Node != node {
			continue
		}
		e.env.Schedule(des.Time(c.At), func() {
			e.Count(KindCrash)
			fail()
		})
		if c.RecoverAt > 0 {
			node := node
			e.env.Schedule(des.Time(c.RecoverAt), func() {
				e.Count(KindRecover)
				recover()
				for _, fn := range e.onRecover[node] {
					fn()
				}
			})
		}
	}
}

// OnRecover registers an extra callback to run after node's scheduled
// recovery — e.g. bumping the node's reliability generation so the
// restarted incarnation's frames are never mistaken for its predecessor's
// retransmissions. Callbacks may be registered any time before the
// recovery fires; they run in registration order. Nil-safe.
func (e *Engine) OnRecover(node int, fn func()) {
	if e == nil {
		return
	}
	e.onRecover[node] = append(e.onRecover[node], fn)
}
