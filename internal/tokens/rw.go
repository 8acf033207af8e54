package tokens

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/hybrid"
	"netmem/internal/rmem"
)

// Shared-read / exclusive-write tokens. The exclusive Client above is the
// paper's minimal scheme; a caching clerk wants the Calypso shape: many
// nodes may hold a READ token on the same object simultaneously (each then
// serves the object from local memory with zero server involvement), while
// a WRITE token excludes everyone. The same 4-byte table word carries both:
//
//	0                                  — free
//	writerBit | (nodeID+1)             — exclusive writer
//	otherwise: bitmask, bit i set      — node i holds a read token
//
// Acquire and release stay pure CAS data transfers; only revocation — a
// writer recalling readers, or anyone recalling a writer — pays a Hybrid-1
// control transfer to the holder(s), exactly §5.1's trade.

// writerBit marks the word as writer-held; the low bits then carry
// nodeID+1 instead of a reader bitmask.
const writerBit = 1 << 31

// MaxRWNodes bounds node ids representable in the reader bitmask.
const MaxRWNodes = 31

// ErrNodeRange reports a node id too large for the reader bitmask.
var ErrNodeRange = errors.New("tokens: node id exceeds reader bitmask range")

// rw revocation request wire: token(4) + wantWrite(1).
const rwRevMsgLen = 5

// RWClient is one node's shared-read/exclusive-write token agent over a
// table exported by a home node (for the sharded DFS: the shard server's
// per-bucket token area).
type RWClient struct {
	agent
	read  map[int]bool
	write map[int]bool

	// onInvalidate runs when a read token is revoked out from under us —
	// the coherence hook: a caching clerk drops the covered blocks.
	onInvalidate func(p *des.Proc, tok int)

	// Replica chain (SetChain). chainState points at the home's watermark
	// table; chain members' frame segments receive the write-grant recall.
	chainState  *rmem.Import
	chainVerOff func(tok int) int
	chain       []*rmem.Import
	chainOff    func(tok int) int
	wm          map[int]uint64 // version floor (epoch<<32 | seq) stamped at read grant
	pending     map[int]uint32 // recall marker awaiting its deposit-done write
	recallSeq   uint32         // per-client recall marker sequence

	posted []*hybrid.Client // a recall round's outstanding appeals, reused

	// Stats.
	ReadAcquires      int64 // read tokens granted (first acquisition)
	WriteAcquires     int64 // write tokens granted
	Downgrades        int64 // write→read transitions
	Invalidations     int64 // read tokens revoked under us (cache drops)
	RevokesSent       int64 // revocation appeals issued to holders
	RevokesServed     int64 // revocation requests answered
	ChainRecalls      int64 // write grants fanned out across chain members
	ChainRecallErrors int64 // chain members a recall could not reach
}

// NewRWClient wires the agent: table import, CAS scratch, and its own
// Hybrid-1 revocation service. slotNodes bounds the cluster size.
func NewRWClient(p *des.Proc, m *rmem.Manager, home int, tabID, tabGen uint16, tabSize, slotNodes int) *RWClient {
	c := &RWClient{read: make(map[int]bool), write: make(map[int]bool)}
	c.agent = newAgent(p, m, home, tabID, tabGen, tabSize, slotNodes, rwRevMsgLen, c.serveRevoke)
	return c
}

// OnInvalidate installs the coherence callback run (on the revocation
// server's process) whenever a held read token is recalled.
func (c *RWClient) OnInvalidate(fn func(p *des.Proc, tok int)) { c.onInvalidate = fn }

// SetChain teaches the agent about the home's replica chain. state is an
// import of the home's chain-state segment and verOff locates a token's
// state entry — a 64-bit version floor (epoch in the high half) followed
// by the recall/deposit/clean marker words — in it: every read grant
// stamps the current version as that token's freshness floor (Watermark).
// members are retransmitting imports of each chain member's frame segment
// and frameOff locates a token's slot (poison word first): a write grant
// completes only after the recall has fanned out across *all* of them —
// without this, the grant would recall only the home and a lagging
// replica could keep serving the pre-write bytes to token-holding
// readers.
func (c *RWClient) SetChain(state *rmem.Import, verOff func(tok int) int, members []*rmem.Import, frameOff func(tok int) int) {
	c.chainState = state
	c.chainVerOff = verOff
	c.chain = members
	c.chainOff = frameOff
	c.wm = make(map[int]uint64)
	c.pending = make(map[int]uint32)
}

// ClearChain detaches the agent from a replica chain (shard rebind, chain
// teardown); stamped watermarks and pending recall markers are dropped
// with it.
func (c *RWClient) ClearChain() {
	c.chainState = nil
	c.chainVerOff = nil
	c.chain = nil
	c.chainOff = nil
	c.wm = nil
	c.pending = nil
}

// Watermark returns the version freshness floor (epoch in the high 32
// bits) stamped when tok was granted for read. ok is false when no chain
// is attached or the stamp failed — the caller must then read through the
// home, not a replica.
func (c *RWClient) Watermark(tok int) (epoch uint32, ver uint64, ok bool) {
	w, ok := c.wm[tok]
	if !ok {
		return 0, 0, false
	}
	return uint32(w >> 32), w, true
}

// StampWatermark returns tok's freshness floor, stamping it first when a
// held read token has none — a token acquired before the chain attached,
// or carried across a chain rewire. While we hold the read token no writer
// can commit, so the currently published pair is a valid floor (stricter
// than the acquire-time one, never looser). A token held for write never
// stamps: our own write-behind may be ahead of the chain frames, and only
// the recall poison — not the floor — guards that window.
func (c *RWClient) StampWatermark(p *des.Proc, tok int) (epoch uint32, ver uint64, ok bool) {
	if c.wm == nil || !c.read[tok] || c.write[tok] {
		return 0, 0, false
	}
	if _, have := c.wm[tok]; !have {
		c.stampWatermark(p, tok)
	}
	return c.Watermark(tok)
}

// stampWatermark READs the token's state entry — version floor plus the
// recall markers — from the home's chain-state segment: one 20-byte
// one-sided read, the grant's only extra cost. The floor is stamped only
// when the recall markers agree (R == D == C): a recalled bucket whose
// deposit is still in flight (R != D), or whose deposit the primary has
// not yet re-pushed down the chain (C != R), has no honest floor — the
// published version predates the completed write, and a version the
// primary aborted could slip past it. On failure or refusal the stamp is
// simply absent: replica reads are an optimization, and without a floor
// the clerk falls back to the home.
func (c *RWClient) stampWatermark(p *des.Proc, tok int) {
	if c.chainState == nil {
		return
	}
	if err := c.chainState.Read(p, c.chainVerOff(tok), 20, c.scratch, 16, time.Second); err != nil {
		delete(c.wm, tok)
		return
	}
	ver := uint64(c.scratch.ReadWord(p, 16))<<32 | uint64(c.scratch.ReadWord(p, 20))
	r := c.scratch.ReadWord(p, 24)
	d := c.scratch.ReadWord(p, 28)
	cc := c.scratch.ReadWord(p, 32)
	if r != d || cc != r {
		delete(c.wm, tok)
		return
	}
	c.wm[tok] = ver
}

// recallChain closes the stale-replica-read window around a write grant.
// First the bucket's recall marker R in the home's chain-state segment is
// set (a fresh nonzero value, acknowledged before anything else moves):
// the home's push daemon stops refreshing the bucket and readers stop
// stamping floors until the deposit lands and is re-pushed. Then a poison
// word is planted beside tok's frame on every chain member, head→tail in
// chain order — the ordering the members' post-relay re-checks rely on to
// catch an in-flight relay clobbering a downstream poison. The writes are
// retransmitting and this blocks until each has been acknowledged, so the
// write grant returns only once no member can serve the pre-write frame.
// The poison lives OUTSIDE the seqlock frame: the member's last applied
// record survives for takeover. A member the recall cannot reach is
// counted and skipped: an unreachable node is not serving reads either.
func (c *RWClient) recallChain(p *des.Proc, tok int) {
	if len(c.chain) == 0 {
		return
	}
	c.recallSeq++
	marker := uint32(c.m.Node.ID+1)<<20 | (c.recallSeq & 0xfffff)
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], marker)
	if c.chainState != nil {
		if err := c.chainState.WriteBlock(p, c.chainVerOff(tok)+8, w[:], false); err != nil {
			c.ChainRecallErrors++
		} else if c.pending != nil {
			c.pending[tok] = marker
		}
	}
	for _, imp := range c.chain {
		if err := imp.WriteBlock(p, c.chainOff(tok), w[:], false); err != nil {
			c.ChainRecallErrors++
		}
	}
	c.ChainRecalls++
	delete(c.wm, tok)
}

// depositDone writes the bucket's deposit marker D — the value recallChain
// planted in R — into the home's chain-state segment when a write grant
// ends. It rides the same writer→home circuit as the write-behind deposit
// and is issued only after the deposit completed, so when the home's push
// daemon sees R == D the post-write bytes are in its data area and the
// next push (which clears the members' poison) carries them.
func (c *RWClient) depositDone(p *des.Proc, tok int) {
	marker, ok := c.pending[tok]
	if !ok || c.chainState == nil {
		return
	}
	delete(c.pending, tok)
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], marker)
	if err := c.chainState.WriteBlock(p, c.chainVerOff(tok)+12, w[:], false); err != nil {
		c.ChainRecallErrors++
	}
}

// HoldsRead and HoldsWrite report current local token state. A caching
// clerk checks these before serving from its cache: holding either grants
// read validity.
func (c *RWClient) HoldsRead(tok int) bool  { return c.read[tok] }
func (c *RWClient) HoldsWrite(tok int) bool { return c.write[tok] }

func (c *RWClient) nodeBit() (uint32, error) {
	if c.m.Node.ID >= MaxRWNodes {
		return 0, ErrNodeRange
	}
	return 1 << uint(c.m.Node.ID), nil
}

// revokeReq encodes a revocation request; wantWrite selects whether the
// requester needs exclusivity (readers only yield then).
func revokeReq(tok int, wantWrite bool) [rwRevMsgLen]byte {
	var req [rwRevMsgLen]byte
	binary.BigEndian.PutUint32(req[:], uint32(tok))
	if wantWrite {
		req[4] = 1
	}
	return req
}

// appeal asks holder (a node id) to give up tok and waits for its answer.
func (c *RWClient) appeal(p *des.Proc, holder, tok int, wantWrite bool) {
	peer, ok := c.peers[holder]
	if !ok || holder == c.m.Node.ID {
		return
	}
	c.RevokesSent++
	req := revokeReq(tok, wantWrite)
	// A failed appeal (lossy link, dead peer) is retried by the acquire
	// loop; the error is not fatal here.
	_, _ = peer.Call(p, req[:], time.Second)
}

// recallReaders is one round of a write recall: it posts an appeal to
// every reader in w before awaiting any reply, then collects the replies
// under one shared deadline, so the round costs one appeal latency rather
// than one per reader. Each reader still clears its own bit by CAS; an
// appeal that fails (lossy link, dead peer) is retried by the acquire
// loop's next round.
func (c *RWClient) recallReaders(p *des.Proc, w uint32, tok int) {
	req := revokeReq(tok, true)
	c.posted = c.posted[:0]
	sent := 0
	for n := 0; n < MaxRWNodes; n++ {
		if w&(1<<uint(n)) == 0 || n == c.m.Node.ID {
			continue
		}
		peer, ok := c.peers[n]
		if !ok {
			continue
		}
		c.RevokesSent++
		sent++
		if peer.Post(p, req[:]) == nil {
			c.posted = append(c.posted, peer)
		}
	}
	deadline := p.Now().Add(time.Second)
	for _, peer := range c.posted {
		_, _ = peer.Await(p, deadline)
	}
	if tr := c.m.Node.Env.Tracer(); tr != nil {
		tr.Count("tokens.recall.rounds", 1)
		tr.Count("tokens.recall.appeals", int64(sent))
	}
}

// AcquireRead obtains a shared read token: one remote CAS setting our
// reader bit when no writer holds the word. A writer in the way is asked
// (control transfer) to downgrade.
func (c *RWClient) AcquireRead(p *des.Proc, tok int, timeout des.Duration) error {
	if c.read[tok] || c.write[tok] {
		return nil
	}
	bit, err := c.nodeBit()
	if err != nil {
		return err
	}
	deadline := p.Now().Add(timeout)
	for {
		w, err := c.readWord(p, tok)
		if err != nil {
			return err
		}
		if w&writerBit == 0 {
			ok, err := c.table.CAS(p, c.word(tok), w, w|bit, c.scratch, 0, time.Second)
			if err != nil {
				return err
			}
			if ok {
				c.read[tok] = true
				c.ReadAcquires++
				c.stampWatermark(p, tok)
				return nil
			}
		} else {
			c.appeal(p, int(w&^writerBit)-1, tok, false)
		}
		if timeout > 0 && p.Now() > deadline {
			return ErrTimeout
		}
		p.Sleep(c.retry)
	}
}

// AcquireWrite obtains the exclusive write token, recalling every other
// reader (their caches invalidate) and any current writer.
func (c *RWClient) AcquireWrite(p *des.Proc, tok int, timeout des.Duration) error {
	if c.write[tok] {
		return nil
	}
	bit, err := c.nodeBit()
	if err != nil {
		return err
	}
	me := writerBit | uint32(c.m.Node.ID+1)
	start := p.Now()
	deadline := start.Add(timeout)
	for {
		w, err := c.readWord(p, tok)
		if err != nil {
			return err
		}
		switch {
		case w == 0 || w == bit:
			// Free, or only our own read bit: one CAS upgrades in place.
			ok, err := c.table.CAS(p, c.word(tok), w, me, c.scratch, 0, time.Second)
			if err != nil {
				return err
			}
			if ok {
				delete(c.read, tok)
				c.write[tok] = true
				c.WriteAcquires++
				// The CAS excluded readers at the home; the chain members
				// must be recalled too before the grant is usable.
				c.recallChain(p, tok)
				if tr := c.m.Node.Env.Tracer(); tr != nil {
					tr.Observe("tokens.write.wait", p.Now().Sub(start))
				}
				return nil
			}
		case w&writerBit != 0:
			c.appeal(p, int(w&^writerBit)-1, tok, true)
		default:
			c.recallReaders(p, w, tok)
		}
		if timeout > 0 && p.Now() > deadline {
			return ErrTimeout
		}
		p.Sleep(c.retry)
	}
}

// Downgrade converts a held write token to a read token (one CAS): the
// writer keeps cache validity while letting readers back in.
func (c *RWClient) Downgrade(p *des.Proc, tok int) error {
	if !c.write[tok] {
		return fmt.Errorf("tokens: downgrading token %d we do not hold for write", tok)
	}
	bit, err := c.nodeBit()
	if err != nil {
		return err
	}
	me := writerBit | uint32(c.m.Node.ID+1)
	// Deposit marker first: the write-behind deposit is already home, and
	// readers must not re-acquire (next CAS) before the home knows it.
	c.depositDone(p, tok)
	ok, err := c.table.CAS(p, c.word(tok), me, bit, c.scratch, 0, time.Second)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tokens: downgrade of %d found a foreign word", tok)
	}
	delete(c.write, tok)
	c.read[tok] = true
	c.Downgrades++
	c.stampWatermark(p, tok)
	return nil
}

// ReleaseRead clears our reader bit (CAS loop: other readers' bits churn
// the word concurrently).
func (c *RWClient) ReleaseRead(p *des.Proc, tok int) error {
	if !c.read[tok] {
		return fmt.Errorf("tokens: releasing read token %d we do not hold", tok)
	}
	bit, err := c.nodeBit()
	if err != nil {
		return err
	}
	delete(c.read, tok)
	delete(c.wm, tok)
	for {
		w, err := c.readWord(p, tok)
		if err != nil {
			return err
		}
		if w&bit == 0 {
			return nil // already cleared (revoked concurrently)
		}
		ok, err := c.table.CAS(p, c.word(tok), w, w&^bit, c.scratch, 0, time.Second)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
}

// ReleaseWrite frees the exclusive token (one CAS).
func (c *RWClient) ReleaseWrite(p *des.Proc, tok int) error {
	if !c.write[tok] {
		return fmt.Errorf("tokens: releasing write token %d we do not hold", tok)
	}
	me := writerBit | uint32(c.m.Node.ID+1)
	delete(c.write, tok)
	c.depositDone(p, tok)
	ok, err := c.table.CAS(p, c.word(tok), me, 0, c.scratch, 0, time.Second)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tokens: write release of %d found a foreign word", tok)
	}
	return nil
}

// serveRevoke answers a peer's recall. A read token yields immediately
// (invalidating the local cache through the callback). A write token is
// never force-released — the application is mid-write-behind; the requester
// keeps retrying until the holder downgrades or releases, the §5.1 "delay
// revocation during certain conditions".
func (c *RWClient) serveRevoke(p *des.Proc, src int, req []byte) []byte {
	if len(req) < rwRevMsgLen {
		return ansFailed
	}
	tok := int(binary.BigEndian.Uint32(req))
	wantWrite := req[4] != 0
	c.RevokesServed++
	if c.write[tok] {
		return ansDeferred // deferred until Downgrade/ReleaseWrite
	}
	if !c.read[tok] || !wantWrite {
		return ansYielded // nothing to yield (readers coexist with readers)
	}
	if c.onInvalidate != nil {
		c.onInvalidate(p, tok)
	}
	c.Invalidations++
	bit, err := c.nodeBit()
	if err != nil {
		return ansFailed
	}
	delete(c.read, tok)
	delete(c.wm, tok)
	for {
		w, werr := c.readWord(p, tok)
		if werr != nil {
			return ansFailed
		}
		if w&bit == 0 {
			return ansYielded
		}
		ok, cerr := c.table.CAS(p, c.word(tok), w, w&^bit, c.scratch, 0, time.Second)
		if cerr != nil {
			return ansFailed
		}
		if ok {
			return ansYielded
		}
	}
}

// RebindTable re-imports the token table after the home node failed over
// to a new incarnation. The dead incarnation's word state is gone, so every
// locally held token is forfeited; the onInvalidate callback fires for each
// held read token so cached state is dropped rather than served stale.
func (c *RWClient) RebindTable(p *des.Proc, home int, tabID, tabGen uint16, tabSize int) {
	c.table = c.m.Import(p, home, tabID, tabGen, tabSize)
	c.ForfeitAll(p)
}

// ForfeitAll drops every locally held token without touching the table —
// for a home that no longer exists (failover rebind, shard decommission).
// onInvalidate fires per held read token so cached state is dropped.
func (c *RWClient) ForfeitAll(p *des.Proc) {
	for tok := range c.read {
		if c.onInvalidate != nil {
			c.onInvalidate(p, tok)
		}
		c.Invalidations++
	}
	c.read = make(map[int]bool)
	c.write = make(map[int]bool)
	if c.wm != nil {
		c.wm = make(map[int]uint64)
	}
	if c.pending != nil {
		c.pending = make(map[int]uint32)
	}
}

// ForfeitToken gives up one held token at a still-live home — the
// selective cousin of RebindTable's forfeit-everything, used by the shard
// cutover to recall tokens only for keys that actually moved. The word is
// properly released (the home keeps serving unmoved keys in the same
// bucket) and onInvalidate fires so cached state is dropped. Reports
// whether anything was held.
func (c *RWClient) ForfeitToken(p *des.Proc, tok int) (bool, error) {
	switch {
	case c.write[tok]:
		if c.onInvalidate != nil {
			c.onInvalidate(p, tok)
		}
		c.Invalidations++
		return true, c.ReleaseWrite(p, tok)
	case c.read[tok]:
		if c.onInvalidate != nil {
			c.onInvalidate(p, tok)
		}
		c.Invalidations++
		return true, c.ReleaseRead(p, tok)
	}
	return false, nil
}
