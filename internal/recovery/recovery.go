// Package recovery turns failure detection into repair. The paper's
// primitives deliberately carry no fault tolerance — §3.7 shows how a
// watchdog composes from a periodic remote read — but detection alone
// leaves a clerk wedged on descriptors into a dead machine. The
// coordinator closes the loop: a heartbeat watchdog's verdict runs the
// registered failover steps (promote a chain member, re-import, rebind) with
// capped exponential backoff, and measures the outage — MTTR from the
// last probe that proved the peer alive to the moment the last step
// completed, the recovery-latency metric kernel-bypass systems are judged
// by. With a replicated verdict log, the verdict is first proposed as a
// fence decree, and no step runs until it commits.
//
// The coordinator is service-agnostic: it knows nothing about the file
// service. Services register their own steps (dfs wires chain takeover
// and clerk rebind); the coordinator supplies ordering, retry policy,
// the verdict gate, and measurement.
package recovery

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/rmem"
)

// Config tunes detection and repair. Zero values are filled from the
// node's model parameters. Each probe read is bounded by the model's
// RetryTimeout, and failover-step retries back off from RetryTimeout,
// doubling up to RetryBackoffMax.
type Config struct {
	// Interval is the heartbeat probe cadence (default 250 µs).
	Interval des.Duration
	// Grace is the liveness lease: consecutive failed probes before the
	// verdict (default 4, so a link flap shorter than Grace×Interval is
	// never reported as a node death).
	Grace int
	// Attempts bounds retries per step (default model.RetryLimit).
	Attempts int
	// FenceWait is how long the coordinator sits between the fence
	// decree committing and the first failover step, when verdicts are
	// replicated. Set it to the victim's write-lease TTL: by the time the
	// new primary touches data, the old one has either refreshed against
	// the fence table (and stopped writing) or lost its lease to the
	// lapse. Zero means takeover starts the moment the decree commits.
	FenceWait des.Duration
}

func (c *Config) fill(m *rmem.Manager) {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Microsecond
	}
	if c.Grace <= 0 {
		c.Grace = 4
	}
	if c.Attempts <= 0 {
		c.Attempts = m.Node.P.RetryLimit
	}
}

// Step is one registered repair action, run in verdict order on the
// watching node. A step that errors is retried with capped backoff.
type Step struct {
	Name string
	Run  func(p *des.Proc) error
}

// VerdictLog replicates fencing decisions through an agreed log (the
// consensus control plane implements it). When a coordinator carries one,
// a watchdog verdict is proposed as a fence decree — every replica
// applies it, so failover no longer depends on a single watchdog's
// opinion — and the matching unfence decree closes the repair.
type VerdictLog interface {
	ProposeFence(p *des.Proc, peer int) error
	ProposeUnfence(p *des.Proc, peer int) error
}

// Coordinator watches one peer and repairs its failure.
type Coordinator struct {
	m    *rmem.Manager
	peer int
	cfg  Config

	steps []Step
	watch *rmem.Watchdog
	vlog  VerdictLog

	restored bool
	failed   bool
	aborted  bool
	q        *des.WaitQueue

	// DetectedAt is when the watchdog verdict landed; DecreeAt when the
	// replicated fence decree committed (zero without ReplicateVerdicts);
	// RestoredAt when the last failover step completed. Rebinds counts
	// step executions (including retries that eventually succeeded).
	DetectedAt des.Time
	DecreeAt   des.Time
	RestoredAt des.Time
	Rebinds    int64
}

// New creates a coordinator on m's node for the given peer.
func New(m *rmem.Manager, peer int, cfg Config) *Coordinator {
	cfg.fill(m)
	return &Coordinator{m: m, peer: peer, cfg: cfg, q: des.NewWaitQueue(m.Node.Env)}
}

// Arm builds the §3.7 detector for primary: it exports the primary's
// 8-byte heartbeat word, starts it beating every interval, imports the
// word on watcher's node and creates the watcher's coordinator for the
// primary. Register the failover steps, then start detection with
// rec.Watch(hb, 0).
func Arm(p *des.Proc, primary, watcher *rmem.Manager, interval des.Duration, cfg Config) (rec *Coordinator, hb *rmem.Import) {
	seg := primary.Export(p, 8)
	seg.SetDefaultRights(rmem.RightRead)
	rmem.StartHeartbeat(primary, seg, 0, interval)
	hb = watcher.Import(p, primary.Node.ID, seg.ID(), seg.Gen(), 8)
	return New(watcher, primary.Node.ID, cfg), hb
}

// ReplicateVerdicts makes vl the gate for this coordinator's failover:
// the watchdog verdict is only a *proposal*, and no repair step runs
// until the fence decree commits on a quorum of log replicas. If the
// proposal fails (log majority unreachable — which is exactly what this
// coordinator observes when it is the one partitioned away), the
// failover aborts: no promotion, no rebind, Aborted() reports the stall.
// That asymmetry is the split-brain defence — a minority-side watchdog
// cannot manufacture a second primary, because the side that can commit
// the decree is by construction the side with the quorum.
func (c *Coordinator) ReplicateVerdicts(vl VerdictLog) { c.vlog = vl }

// OnFailover appends a repair step. Steps run in registration order — a
// dfs deployment registers chain takeover before clerk rebind.
func (c *Coordinator) OnFailover(name string, run func(p *des.Proc) error) {
	c.steps = append(c.steps, Step{Name: name, Run: run})
}

// Watch starts the heartbeat watchdog over imp's counter word at off. The
// failure verdict triggers the failover sequence exactly once.
func (c *Coordinator) Watch(imp *rmem.Import, off int) *rmem.Watchdog {
	c.watch = rmem.NewWatchdogCfg(c.m, imp, off, rmem.WatchdogConfig{
		Interval: c.cfg.Interval,
		Timeout:  c.m.Node.P.RetryTimeout,
		Grace:    c.cfg.Grace,
	}, c.failover)
	return c.watch
}

// Watchdog returns the active watchdog (nil before Watch).
func (c *Coordinator) Watchdog() *rmem.Watchdog { return c.watch }

// failover is the watchdog's onFail callback: gate, repair, measure.
func (c *Coordinator) failover(p *des.Proc, verdict error) {
	env := c.m.Node.Env
	c.failed = true
	c.DetectedAt = env.Now()
	tr := env.Tracer()
	if tr != nil {
		tr.Count("recovery.failovers", 1)
	}
	if c.vlog != nil {
		// Gated path: the verdict is a proposal. Nothing happens unless
		// the decree commits.
		if err := c.vlog.ProposeFence(p, c.peer); err != nil {
			c.aborted = true
			c.m.Node.Faults = append(c.m.Node.Faults,
				fmt.Errorf("recovery: node %d: fence decree for peer %d did not commit, failover aborted: %w",
					c.m.Node.ID, c.peer, err))
			if tr != nil {
				tr.Count("recovery.aborted", 1)
			}
			c.q.WakeAll()
			return
		}
		c.DecreeAt = env.Now()
		if c.cfg.FenceWait > 0 {
			p.Sleep(c.cfg.FenceWait)
		}
	}
	for _, step := range c.steps {
		if err := c.runStep(p, step); err != nil {
			// The outage persists; report the stall. Waiters see
			// failed-but-not-restored and time out.
			c.m.Node.Faults = append(c.m.Node.Faults,
				fmt.Errorf("recovery: node %d: step %q gave up after %v (verdict: %v): %w",
					c.m.Node.ID, step.Name, c.cfg.Attempts, verdict, err))
			return
		}
	}
	if c.vlog != nil {
		if err := c.vlog.ProposeUnfence(p, c.peer); err != nil {
			c.m.Node.Faults = append(c.m.Node.Faults,
				fmt.Errorf("recovery: node %d: unfence decree for peer %d not replicated: %w",
					c.m.Node.ID, c.peer, err))
		}
	}
	c.RestoredAt = env.Now()
	c.restored = true
	if tr != nil {
		tr.Observe("recovery.mttr", time.Duration(c.MTTR()))
		if tr.EventsEnabled() {
			tr.Span(fmt.Sprintf("node%d.recovery", c.m.Node.ID), "recovery",
				fmt.Sprintf("failover peer %d", c.peer),
				time.Duration(c.downFrom()), time.Duration(c.MTTR()))
		}
	}
	c.q.WakeAll()
}

// runStep executes one repair action with capped exponential backoff.
func (c *Coordinator) runStep(p *des.Proc, step Step) error {
	tr := c.m.Node.Env.Tracer()
	pp := c.m.Node.P
	delay := pp.RetryTimeout
	var err error
	for attempt := 0; attempt <= c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			p.Sleep(delay)
			delay *= 2
			if delay > pp.RetryBackoffMax {
				delay = pp.RetryBackoffMax
			}
			if tr != nil {
				tr.Count("recovery.step.retries", 1)
			}
		}
		if err = step.Run(p); err == nil {
			c.Rebinds++
			if tr != nil {
				tr.Count("recovery.rebinds", 1)
			}
			return nil
		}
	}
	return err
}

// downFrom is the start of the measured outage: the last probe that proved
// the peer alive (falling back to the verdict time if no probe ever
// succeeded).
func (c *Coordinator) downFrom() des.Time {
	if c.watch != nil && c.watch.LastOK > 0 {
		return c.watch.LastOK
	}
	return c.DetectedAt
}

// Failed reports whether the watchdog verdict has landed.
func (c *Coordinator) Failed() bool { return c.failed }

// Restored reports whether the failover sequence has completed.
func (c *Coordinator) Restored() bool { return c.restored }

// Aborted reports that the verdict landed but the fence decree did not
// commit, so the failover never ran (minority-side watchdog).
func (c *Coordinator) Aborted() bool { return c.aborted }

// FenceLatency is verdict-to-committed-decree: how long the quorum took
// to agree the peer is dead. Zero unless verdicts are replicated and the
// decree committed.
func (c *Coordinator) FenceLatency() des.Duration {
	if c.DecreeAt == 0 {
		return 0
	}
	return c.DecreeAt.Sub(c.DetectedAt)
}

// MTTR is the measured outage: last-known-alive to repair-complete. Zero
// until restored.
func (c *Coordinator) MTTR() des.Duration {
	if !c.restored {
		return 0
	}
	return c.RestoredAt.Sub(c.downFrom())
}

// AwaitRestored blocks until the failover sequence completes or timeout
// elapses — the hook an in-flight operation uses to park before replaying
// against the new incarnation. Returns immediately if already restored.
func (c *Coordinator) AwaitRestored(p *des.Proc, timeout des.Duration) error {
	if c.restored {
		return nil
	}
	env := c.m.Node.Env
	timedOut := false
	var cancel func()
	if timeout > 0 {
		cancel = env.After(timeout, func() {
			timedOut = true
			c.q.WakeAll()
		})
		defer cancel()
	}
	for !c.restored && !c.aborted && !timedOut {
		c.q.Wait(p)
	}
	if !c.restored {
		return rmem.ErrTimeout
	}
	return nil
}
