package consensus

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/rmem"
)

// Proposer drives the agreement protocol for one ballot lane against a
// group's acceptors, using only one-sided operations: READ to observe a
// slot's control word, CAS to promise and accept, WRITE to deposit value
// cells and learn results. An acceptor co-located with the proposer is
// reached through the timed local-access path instead of the network —
// §3.1.2's local/remote atomicity makes the two interchangeable.
//
// A Proposer serves one simulated process at a time (its scratch segment
// and ballot bookkeeping are per-client state); ControlPlane hands every
// client its own lane.
type Proposer struct {
	m       *rmem.Manager
	g       *Group
	lane    int
	eps     []*endpoint
	scratch *rmem.Segment
	opTO    des.Duration

	lastB map[int]Ballot // per-slot ballot floor: stamps per cell stay monotone
	next  int            // first slot not known chosen (allocation hint)
	base  int            // cached compaction watermark

	// Lane-lease state (leased client lanes only; see lease.go). minB/
	// ceilB bound the quorum-reserved ballot range this owner may use;
	// lost flips when the lease is observed stolen.
	leased bool
	tok    uint32
	lost   bool
	minB   int
	ceilB  int

	// Notify controls whether learn writes carry the notify bit (the
	// commit-time control transfer that wakes co-located replicas).
	// Pure-agreement rigs with no replicas attached turn it off to
	// measure the acceptor-side cost of agreement alone.
	Notify bool

	busy bool
	q    *des.WaitQueue

	// Stats.
	Prepares    int64 // phase-1 rounds issued
	Accepts     int64 // phase-2 rounds issued
	CASRetries  int64 // control-word CAS races retried
	Conflicts   int64 // proposals that adopted another proposer's value
	ChosenSlots int64 // slots this proposer drove to a learn
}

// endpoint is one acceptor as seen from this proposer: either a fenced,
// reliable import or the local segment fast path.
type endpoint struct {
	acc   *Acceptor
	imp   *rmem.Import  // nil when local
	seg   *rmem.Segment // non-nil when co-located
	dead  bool          // restarted (amnesiac) — out for the rest of the run
	mute  des.Time      // suspected until (timeout backoff)
	fails int           // consecutive op failures (drives the mute backoff)
}

const (
	casRetry    = 8  // control-word CAS races retried before treating as rejection
	maxRounds   = 64 // ballot rounds before ErrNoQuorum
	backoffBase = 20 * time.Microsecond
	backoffMax  = 2 * time.Millisecond
	laneStagger = 7 * time.Microsecond
	suspendFor  = 1 * time.Millisecond  // first mute after a timeout; doubles per failure
	suspendMax  = 64 * time.Millisecond // mute backoff ceiling
	opAttempts  = 16                    // per-op timeout, in units of RetryTimeout
)

// NewProposer wires lane's proposer on m's machine to every acceptor in
// g. Remote acceptors are imported reliable (the at-most-once layer's
// acked writes give per-cell stamp monotonicity) and fenced with the
// acceptor's incarnation, so a restarted acceptor answers
// ErrStaleGeneration instead of voting from wiped state.
func NewProposer(p *des.Proc, m *rmem.Manager, lane int, g *Group) *Proposer {
	if lane < 0 || lane >= g.Cfg.Proposers {
		panic(fmt.Sprintf("consensus: lane %d out of range", lane))
	}
	pr := &Proposer{
		m: m, g: g, lane: lane,
		// Per-op deadline: a handful of retransmission rounds, NOT the full
		// reliable-layer ladder (~100ms against a dead machine). One-sided
		// reads and CASes are safe to abandon — the proposer re-reads state
		// every round — so a short deadline plus the mute backoff below is
		// what keeps a crashed acceptor from serializing every proposal.
		opTO:   opAttempts * des.Duration(m.Node.P.RetryTimeout),
		lastB:  make(map[int]Ballot),
		q:      des.NewWaitQueue(m.Node.Env),
		Notify: true,
	}
	pr.scratch = m.Export(p, 8+g.Cfg.cellSize())
	for _, a := range g.Accs {
		ep := &endpoint{acc: a}
		if a.M == m {
			ep.seg = a.Seg
		} else {
			ep.imp = m.Import(p, a.Node(), a.Seg.ID(), a.Seg.Gen(), a.Seg.Size())
			ep.imp.SetReliable(true)
			ep.imp.SetFence(true)
			ep.imp.SetEpoch(a.Epoch)
		}
		pr.eps = append(pr.eps, ep)
	}
	return pr
}

// Lane returns the proposer's ballot lane.
func (pr *Proposer) Lane() int { return pr.lane }

// lock/unlock serialize interleaved simulated processes over the scratch
// segment.
func (pr *Proposer) lock(p *des.Proc) {
	for pr.busy {
		pr.q.Wait(p)
	}
	pr.busy = true
}

func (pr *Proposer) unlock() {
	pr.busy = false
	pr.q.WakeAll()
}

// noteErr classifies an acceptor error: a stale-generation NAK means the
// machine restarted and its promises are gone — it is dead to the group
// for the rest of the run (Config.Quorum documents why). Anything else is
// a timeout-ish fault; mute the endpoint with exponential backoff so a
// crashed (but not restarted) acceptor costs each proposer one short
// stall, not one per round.
func (pr *Proposer) noteErr(ep *endpoint, err error) {
	if errors.Is(err, rmem.ErrStaleGeneration) {
		ep.dead = true
		return
	}
	ep.fails++
	d := suspendFor << uint(min(ep.fails-1, 10))
	if d > suspendMax {
		d = suspendMax
	}
	ep.mute = pr.m.Node.Env.Now().Add(des.Duration(d))
}

// noteOK clears the endpoint's failure streak after any successful op.
func (ep *endpoint) noteOK() { ep.fails = 0 }

// Suspect mutes acceptor index i for d without waiting for an op to time
// out. Lease watchdog verdicts feed it so an election proposal never
// stalls probing the very machine the verdict just condemned.
func (pr *Proposer) Suspect(i int, d des.Duration) {
	if i < 0 || i >= len(pr.eps) {
		return
	}
	until := pr.m.Node.Env.Now().Add(d)
	if until > pr.eps[i].mute {
		pr.eps[i].mute = until
	}
}

func (ep *endpoint) usable(now des.Time) bool { return !ep.dead && now >= ep.mute }

// One-sided primitive wrappers. Offsets into scratch: word 0 = read
// deposit, word 1 = CAS result flag, bytes 8.. = cell deposit.

func (pr *Proposer) readWordAt(p *des.Proc, ep *endpoint, off int) (uint32, error) {
	if ep.seg != nil {
		return ep.seg.ReadWord(p, off), nil
	}
	if err := ep.imp.Read(p, off, 4, pr.scratch, 0, pr.opTO); err != nil {
		return 0, err
	}
	ep.noteOK()
	return pr.scratch.ReadWord(p, 0), nil
}

func (pr *Proposer) casWordAt(p *des.Proc, ep *endpoint, off int, old, new uint32) (bool, error) {
	if ep.seg != nil {
		return ep.seg.CASLocal(p, off, old, new), nil
	}
	ok, err := ep.imp.CAS(p, off, old, new, pr.scratch, 4, pr.opTO)
	if err == nil {
		ep.noteOK()
	}
	return ok, err
}

func (pr *Proposer) readCtl(p *des.Proc, ep *endpoint, slot int) (uint32, error) {
	return pr.readWordAt(p, ep, pr.g.Cfg.ctlOff(slot))
}

func (pr *Proposer) casCtl(p *des.Proc, ep *endpoint, slot int, old, new uint32) (bool, error) {
	return pr.casWordAt(p, ep, pr.g.Cfg.ctlOff(slot), old, new)
}

func (pr *Proposer) readCell(p *des.Proc, ep *endpoint, off int) (Ballot, []byte, error) {
	n := pr.g.Cfg.cellSize()
	if ep.seg != nil {
		buf := ep.seg.ReadLocal(p, off, n)
		defer pr.m.Buffers().Put(buf)
		return Ballot(be32(buf)), bytes.Clone(buf[4:]), nil
	}
	if err := ep.imp.Read(p, off, n, pr.scratch, 8, pr.opTO); err != nil {
		return 0, nil, err
	}
	ep.noteOK()
	buf := pr.scratch.Bytes()[8 : 8+n]
	return Ballot(be32(buf)), bytes.Clone(buf[4:]), nil
}

// writeCell deposits a stamped value. The write is frame-atomic (stamp
// and payload land together) and, on reliable imports, acknowledged —
// the proposer never issues a higher stamp for a cell before the lower
// one is applied or given up on, which keeps stamps monotone per cell.
func (pr *Proposer) writeCell(p *des.Proc, ep *endpoint, off int, b Ballot, val []byte, notify bool) error {
	buf := make([]byte, pr.g.Cfg.cellSize())
	putbe32(buf, uint32(b))
	copy(buf[4:], val)
	if ep.seg != nil {
		ep.seg.WriteLocal(p, off, buf)
		return nil
	}
	if err := ep.imp.WriteBlock(p, off, buf, notify); err != nil {
		return err
	}
	ep.noteOK()
	return nil
}

// cellValue lays val out the way every value cell carries it: the
// logical-slot prefix, then val, zero-padded to the payload. The prefix
// keeps a cell surviving from the physical slot's previous occupant from
// being mistaken for slot's decree after the window wraps.
func cellValue(slot int, val []byte) []byte {
	v := make([]byte, payload)
	putbe32(v, uint32(slot))
	copy(v[4:], val)
	return v
}

// Propose runs the full protocol for slot with val as the candidate and
// returns the value actually chosen there (padded to maxValue) — which
// is val's padding unless some other proposal got there first. It is
// safe to call concurrently from many proposers on many machines; at
// most one value is ever chosen per slot.
func (pr *Proposer) Propose(p *des.Proc, slot int, val []byte) ([]byte, error) {
	cfg := pr.g.Cfg
	if len(val) > maxValue {
		return nil, ErrValueTooLarge
	}
	if slot < 0 {
		return nil, ErrLogFull
	}
	mine := cellValue(slot, val)

	pr.lock(p)
	defer pr.unlock()
	if pr.lost {
		return nil, ErrLaneLost
	}
	if slot < pr.base {
		return nil, ErrCompacted
	}
	if slot >= pr.base+cfg.Slots {
		if err := pr.refreshBase(p); err != nil {
			return nil, err
		}
		if slot < pr.base {
			return nil, ErrCompacted
		}
		if slot >= pr.base+cfg.Slots {
			return nil, ErrLogFull
		}
	}

	b, err := pr.ballotAfter(p, pr.lastB[slot])
	if err != nil {
		return nil, err
	}
	for round := 0; round < maxRounds; round++ {
		v, ok, err := pr.readChosen(p, slot)
		if err != nil {
			return nil, err
		}
		if ok {
			pr.observeChosen(slot)
			return v, nil
		}
		pr.lastB[slot] = b
		now := pr.m.Node.Env.Now()

		// Phase 1: promise on a quorum, learning the highest accepted
		// value along the way.
		pr.Prepares++
		var (
			promised  []*endpoint
			maxSeen   = b
			bestStamp Ballot
			bestVal   = mine
		)
		for _, ep := range pr.eps {
			if !ep.usable(now) {
				continue
			}
			prom, acc, ok := pr.promiseOne(p, ep, slot, b)
			if !ok {
				if prom > maxSeen {
					maxSeen = prom
				}
				continue
			}
			if acc != 0 {
				// Someone's value may already be accepted here: read its
				// owner's cell on this acceptor. The cell's single writer
				// stamps monotonically and wrote before the accept-CAS, so
				// stamp >= acc and the value is safe at that stamp. If the
				// read fails or the invariant is broken, drop this promise
				// rather than risk ignoring a chosen value.
				stamp, v, err := pr.readCell(p, ep, cfg.cellOff(slot, cfg.LaneOf(acc)))
				if err != nil || stamp < acc {
					if err != nil {
						pr.noteErr(ep, err)
					}
					continue
				}
				switch s := int(be32(v)); {
				case s > slot:
					// The physical slot already holds a later decree.
					return nil, pr.compacted(p)
				case s < slot:
					// Stale cell from the physical slot's previous
					// occupant: that decree is below the watermark,
					// already applied everywhere. Keep the promise, adopt
					// nothing.
					promised = append(promised, ep)
					continue
				}
				if stamp > bestStamp {
					bestStamp, bestVal = stamp, v
				}
			}
			promised = append(promised, ep)
		}
		if len(promised) < cfg.Quorum() {
			if b, err = pr.backoff(p, slot, round, maxSeen); err != nil {
				return nil, err
			}
			continue
		}
		if bestStamp > 0 && !bytes.Equal(bestVal, mine) {
			pr.Conflicts++
		}

		// Phase 2: deposit our stamped cell, then flip the control word to
		// accepted — on every acceptor that promised b.
		pr.Accepts++
		accepts := 0
		for _, ep := range promised {
			if pr.acceptOne(p, ep, slot, b, bestVal) {
				accepts++
			}
		}
		if accepts >= cfg.Quorum() {
			pr.learn(p, slot, b, bestVal)
			pr.ChosenSlots++
			pr.observeChosen(slot)
			return bestVal[4:], nil
		}
		if b, err = pr.backoff(p, slot, round, maxSeen); err != nil {
			return nil, err
		}
	}
	return nil, ErrNoQuorum
}

// promiseOne runs the phase-1 CAS loop on one acceptor: bump the promised
// half of the control word to b, preserving the accepted half, retrying
// lost races against concurrent CASes. Returns the highest promise
// observed, the accepted ballot under our promise, and whether the
// promise took.
func (pr *Proposer) promiseOne(p *des.Proc, ep *endpoint, slot int, b Ballot) (Ballot, Ballot, bool) {
	for try := 0; try < casRetry; try++ {
		ctl, err := pr.readCtl(p, ep, slot)
		if err != nil {
			pr.noteErr(ep, err)
			return 0, 0, false
		}
		prom, acc := unpackCtl(ctl)
		if prom >= b {
			return prom, acc, false
		}
		ok, err := pr.casCtl(p, ep, slot, ctl, packCtl(b, acc))
		if err != nil {
			pr.noteErr(ep, err)
			return prom, acc, false
		}
		if ok {
			return b, acc, true
		}
		pr.CASRetries++
	}
	return 0, 0, false
}

// acceptOne deposits (b, val) in our cell on ep, then CASes the control
// word to promised=accepted=b. Paxos accepts any ballot >= the current
// promise, so races that moved the promise below b are retried; a promise
// above b is a rejection.
func (pr *Proposer) acceptOne(p *des.Proc, ep *endpoint, slot int, b Ballot, val []byte) bool {
	cfg := pr.g.Cfg
	if err := pr.writeCell(p, ep, cfg.cellOff(slot, pr.lane), b, val, false); err != nil {
		pr.noteErr(ep, err)
		return false
	}
	for try := 0; try < casRetry; try++ {
		ctl, err := pr.readCtl(p, ep, slot)
		if err != nil {
			pr.noteErr(ep, err)
			return false
		}
		prom, _ := unpackCtl(ctl)
		if prom > b {
			return false
		}
		ok, err := pr.casCtl(p, ep, slot, ctl, packCtl(b, b))
		if err != nil {
			pr.noteErr(ep, err)
			return false
		}
		if ok {
			return true
		}
		pr.CASRetries++
	}
	return false
}

// learn broadcasts the chosen value into every reachable acceptor's
// learned cell. This is the one place control transfer appears: the learn
// write carries the notify bit, waking the co-located replica to apply
// the decree — the agreement path itself woke nobody. Racing learners
// write byte-identical cells, so last-writer-wins is harmless.
func (pr *Proposer) learn(p *des.Proc, slot int, b Ballot, val []byte) {
	cfg := pr.g.Cfg
	now := pr.m.Node.Env.Now()
	for _, ep := range pr.eps {
		if !ep.usable(now) {
			continue
		}
		if ep.seg != nil {
			if err := pr.writeCell(p, ep, cfg.learnedOff(slot), b, val, false); err == nil {
				if fn := ep.acc.onLearn; fn != nil {
					fn(p, slot)
				}
			}
			continue
		}
		if err := pr.writeCell(p, ep, cfg.learnedOff(slot), b, val, pr.Notify); err != nil {
			pr.noteErr(ep, err)
		}
	}
}

// nearest picks the closest usable acceptor: the co-located segment when
// there is one, else the first unmuted import.
func (pr *Proposer) nearest() *endpoint {
	now := pr.m.Node.Env.Now()
	var pick *endpoint
	for _, ep := range pr.eps {
		if !ep.usable(now) {
			continue
		}
		if ep.seg != nil {
			return ep
		}
		if pick == nil {
			pick = ep
		}
	}
	return pick
}

// readChosen checks slot's learned cell on the nearest usable acceptor.
// A cell learned for a later logical slot reports ErrCompacted.
func (pr *Proposer) readChosen(p *des.Proc, slot int) ([]byte, bool, error) {
	pick := pr.nearest()
	if pick == nil {
		return nil, false, nil
	}
	stamp, v, err := pr.readCell(p, pick, pr.g.Cfg.learnedOff(slot))
	if err != nil {
		pr.noteErr(pick, err)
		return nil, false, nil
	}
	if stamp == 0 {
		return nil, false, nil
	}
	switch s := int(be32(v)); {
	case s > slot:
		return nil, false, pr.compacted(p)
	case s < slot:
		return nil, false, nil
	}
	return v[4:], true, nil
}

// compacted handles a learned or accepted cell whose logical-slot prefix
// is above the slot being proposed. The physical slot was recycled, and
// proposers only deposit inside [watermark, watermark+Slots), so the
// proposed slot is below the watermark: already chosen and folded into
// a snapshot. It refreshes the cached base, so Commit skips ahead, and
// returns ErrCompacted. A failed refresh only leaves Commit stepping
// one slot at a time.
func (pr *Proposer) compacted(p *des.Proc) error {
	_ = pr.refreshBase(p)
	return ErrCompacted
}

// refreshBase re-reads the compaction watermark from the nearest usable
// acceptor. The watermark only rises; a stale-low read is safe — phase-1
// adoption re-chooses the original value for any recycled-but-still-
// visible slot, and the cell prefix keeps recycled physical slots from
// lying about their logical identity. A proposer that sat out more than
// a window of other lanes' decrees (an idle client lane, or a replica's
// lane when it turns leader and snapshots) holds a base and an
// allocation hint a full window stale, so its next slot's physical slot
// may already hold a later decree. Both readChosen and phase 1 see that
// decree's higher prefix and report ErrCompacted through compacted,
// which refreshes the base; no deposit ever overwrites it.
func (pr *Proposer) refreshBase(p *des.Proc) error {
	pick := pr.nearest()
	if pick == nil {
		return ErrNoQuorum
	}
	w, err := pr.readWordAt(p, pick, pr.g.Cfg.baseOff())
	if err != nil {
		pr.noteErr(pick, err)
		return err
	}
	if int(w) > pr.base {
		pr.base = int(w)
	}
	return nil
}

func (pr *Proposer) observeChosen(slot int) {
	if slot >= pr.next {
		pr.next = slot + 1
	}
}

// ballotAfter picks the lane's next ballot strictly above after,
// respecting the quorum-reserved range on leased lanes (reserving a
// fresh range when the current one is spent).
func (pr *Proposer) ballotAfter(p *des.Proc, after Ballot) (Ballot, error) {
	a := int(after)
	if pr.leased && a < pr.minB-1 {
		a = pr.minB - 1
	}
	b := pr.g.Cfg.nextBallot(pr.lane, Ballot(a))
	if pr.leased && int(b) >= pr.ceilB {
		if err := pr.reserveRange(p, int(b)); err != nil {
			return 0, err
		}
		b = pr.g.Cfg.nextBallot(pr.lane, Ballot(pr.minB-1))
	}
	return b, nil
}

// backoff sleeps a deterministic, lane-staggered, capped-exponential
// delay before the next ballot round — enough asymmetry to break
// duelling-proposer livelock without a random source.
func (pr *Proposer) backoff(p *des.Proc, slot, round int, maxSeen Ballot) (Ballot, error) {
	d := backoffBase << uint(min(round, 6))
	if d > backoffMax {
		d = backoffMax
	}
	p.Sleep(d + des.Duration(pr.lane)*laneStagger)
	if floor := pr.lastB[slot]; maxSeen < floor {
		maxSeen = floor
	}
	return pr.ballotAfter(p, maxSeen)
}

// Commit finds the first open slot at or after the proposer's hint and
// drives val into it, skipping slots other commands won and slots that
// fell below the watermark mid-scan. Returns the slot chosen for val.
// ErrLogFull means the live window is full: under a ControlPlane the
// appliers are a full window behind; on a bare Group, which nothing
// snapshots, the log has reached slot Slots for good.
func (pr *Proposer) Commit(p *des.Proc, val []byte) (int, error) {
	mine := make([]byte, maxValue)
	copy(mine, val)
	for slot := pr.next; ; slot++ {
		slot = max(slot, pr.base)
		chosen, err := pr.Propose(p, slot, val)
		if errors.Is(err, ErrCompacted) {
			continue
		}
		if err != nil {
			return -1, err
		}
		if bytes.Equal(chosen, mine) {
			return slot, nil
		}
	}
}
