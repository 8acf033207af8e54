// Package tokens implements distributed token management over the remote
// memory primitives — §5.1's Calypso discussion, made concrete:
//
//	"Workstation-cluster file system designs such as Calypso use an
//	RPC-based distributed token management scheme to handle cache
//	coherence. This scheme can be extended to use our communication
//	primitives without involving control transfers in most cases. Token
//	acquire and release can be implemented using compare-and-swap
//	operations. Token revocation is trickier. One option is to use
//	control transfer (e.g., using Hybrid-1); another is to delay
//	revocation during certain conditions."
//
// All three mechanisms are here: the CAS fast path (pure data transfer),
// Hybrid-1 revocation for contended tokens, and holder-side delayed
// revocation while the token is pinned in active use.
//
// Token state lives in a table of words exported by a home node; word
// value 0 means free, otherwise nodeID+1 of the exclusive holder. An
// acquire that finds the token held reads the holder from the same word
// and asks *that node* to give it up — the home node's CPU is never
// involved beyond the kernel emulation of the CAS and read.
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

// wordStride is the size of one token slot in the table.
const wordStride = 4

// ErrTimeout reports an acquire that could not obtain the token in time.
var ErrTimeout = errors.New("tokens: acquire timed out")

// Table is the home node's token directory: a segment of one word per
// token, acquired and released purely with remote CAS.
type Table struct {
	seg *rmem.Segment
	n   int
}

// NewTable exports a table of n tokens on the home node.
func NewTable(p *des.Proc, m *rmem.Manager, n int) *Table {
	seg := m.Export(p, n*wordStride)
	seg.SetDefaultRights(rmem.RightRead | rmem.RightCAS)
	return &Table{seg: seg, n: n}
}

// Coordinates returns what a client needs to import the table.
func (t *Table) Coordinates() (id, gen uint16, size int) {
	return t.seg.ID(), t.seg.Gen(), t.seg.Size()
}

// Holder reports the current holder of a token (-1 if free) by looking at
// the home node's memory directly; a diagnostic for tests.
func (t *Table) Holder(tok int) int {
	v := binary.BigEndian.Uint32(t.seg.Bytes()[tok*wordStride:])
	return int(v) - 1
}

// agent is what both token clients share: the home's table import, a
// CAS/READ scratch segment, and this node's Hybrid-1 revocation server
// with its channels to the peers' servers. The acquire and revoke policies
// live in the clients.
type agent struct {
	m       *rmem.Manager
	table   *rmem.Import
	scratch *rmem.Segment

	rsrv   *hybrid.Server
	peers  map[int]*hybrid.Client // node → channel to its revocation server
	reqLen int                    // revocation request size on the wire
	retry  des.Duration
}

// newAgent imports the table, exports the scratch segment and starts the
// revocation server answering with serve. slotNodes bounds the cluster
// size for the Hybrid-1 channel.
func newAgent(p *des.Proc, m *rmem.Manager, home int, tabID, tabGen uint16, tabSize, slotNodes, reqLen int, serve hybrid.Handler) agent {
	a := agent{
		m:      m,
		table:  m.Import(p, home, tabID, tabGen, tabSize),
		peers:  make(map[int]*hybrid.Client),
		reqLen: reqLen,
		retry:  200 * time.Microsecond,
	}
	a.scratch = m.Export(p, 64)
	a.rsrv = hybrid.NewServer(p, m, slotNodes, reqLen, serve)
	return a
}

// RevocationChannel exposes this client's revocation-server coordinates.
func (a *agent) RevocationChannel() (id, gen uint16, size int) { return a.rsrv.ReqSeg() }

// Connect wires this client to a peer's revocation service (full mesh in a
// small cluster; a deployment would do this through the name service).
func (a *agent) Connect(p *des.Proc, peer int, reqID, reqGen uint16, reqSize int) {
	a.peers[peer] = hybrid.NewClient(p, a.m, peer, reqID, reqGen, reqSize, a.reqLen, 8)
}

// AttachPeer registers a peer's reply segment on our revocation server.
// Call with the values from the peer's client after its Connect to us.
func (a *agent) AttachPeer(p *des.Proc, peer int, repID, repGen uint16, repSize int) {
	a.rsrv.AttachClient(p, peer, repID, repGen, repSize)
}

// PeerReply exposes the reply-segment coordinates of our channel TO a
// given peer, for the peer's AttachPeer.
func (a *agent) PeerReply(peer int) (id, gen uint16, size int) {
	return a.peers[peer].RepSeg()
}

func (a *agent) word(tok int) int { return tok * wordStride }

// readWord fetches the current token word.
func (a *agent) readWord(p *des.Proc, tok int) (uint32, error) {
	if err := a.table.Read(p, a.word(tok), 4, a.scratch, 8, time.Second); err != nil {
		return 0, err
	}
	return a.scratch.ReadWord(p, 8), nil
}

// Client is one node's exclusive token agent: the CAS fast path plus a
// revocation service other clients can appeal to.
type Client struct {
	agent
	held map[int]*heldToken

	// Stats.
	FastAcquires   int64 // satisfied by a single CAS
	Revocations    int64 // acquires that had to ask a holder
	RevokesServed  int64 // revocation requests this node answered
	RevokesDelayed int64 // revocations deferred because the token was busy
}

type heldToken struct {
	busy   bool // pinned by the application; revocation must wait
	wanted bool // someone asked for it while busy
}

// revocation request wire: token(4).
const revMsgLen = 4

// NewClient creates the agent and its revocation service. slotNodes bounds
// the cluster size for the Hybrid-1 channel.
func NewClient(p *des.Proc, m *rmem.Manager, home int, tabID, tabGen uint16, tabSize, slotNodes int) *Client {
	c := &Client{held: make(map[int]*heldToken)}
	c.agent = newAgent(p, m, home, tabID, tabGen, tabSize, slotNodes, revMsgLen, c.serveRevoke)
	return c
}

// Acquire obtains exclusive ownership of token tok. The fast path is one
// remote CAS (≈38 µs, no control transfer anywhere). If the token is
// held, the holder is read from the same word and asked — over Hybrid-1,
// a control transfer, as the paper says — to release; the CAS is then
// retried until the deadline. Acquiring a token this client already
// holds succeeds at once.
func (c *Client) Acquire(p *des.Proc, tok int, timeout des.Duration) error {
	if _, ok := c.held[tok]; ok {
		return nil
	}
	me := uint32(c.m.Node.ID + 1)
	deadline := p.Now().Add(timeout)
	first := true
	for {
		ok, err := c.table.CAS(p, c.word(tok), 0, me, c.scratch, 0, time.Second)
		if err != nil {
			return err
		}
		if ok {
			if first {
				c.FastAcquires++
			}
			c.held[tok] = &heldToken{}
			return nil
		}
		first = false
		if timeout > 0 && p.Now() > deadline {
			return ErrTimeout
		}
		// Read the holder from the token word and appeal to it.
		w, err := c.readWord(p, tok)
		if err != nil {
			return err
		}
		holder := int(w) - 1
		if holder >= 0 && holder != c.m.Node.ID {
			if peer, okp := c.peers[holder]; okp {
				c.Revocations++
				var req [revMsgLen]byte
				binary.BigEndian.PutUint32(req[:], uint32(tok))
				if _, err := peer.Call(p, req[:], time.Second); err != nil {
					return fmt.Errorf("tokens: revoke appeal to node %d: %w", holder, err)
				}
			}
		}
		p.Sleep(c.retry)
	}
}

// A revocation answer is one byte: 0 failed, 1 released (or not held),
// 2 deferred. The Hybrid-1 server copies the answer into its reply, so the
// three are shared.
var (
	ansFailed   = []byte{0}
	ansYielded  = []byte{1}
	ansDeferred = []byte{2}
)

// serveRevoke handles a peer's plea for a token this node holds: release
// immediately if the application is not actively using it, otherwise mark
// it wanted — the §5.1 "delay revocation during certain conditions".
func (c *Client) serveRevoke(p *des.Proc, src int, req []byte) []byte {
	if len(req) < revMsgLen {
		return ansFailed
	}
	tok := int(binary.BigEndian.Uint32(req))
	c.RevokesServed++
	h, ok := c.held[tok]
	if !ok {
		return ansYielded // not holding it (already released)
	}
	if h.busy {
		h.wanted = true
		c.RevokesDelayed++
		return ansDeferred // deferred; ask again or wait for the release
	}
	c.releaseWord(p, tok)
	return ansYielded
}

// Pin marks a held token as in active use: revocation is deferred until
// Unpin (or Release).
func (c *Client) Pin(tok int) {
	if h, ok := c.held[tok]; ok {
		h.busy = true
	}
}

// Unpin ends active use; if a revocation arrived meanwhile, the token is
// released on the spot.
func (c *Client) Unpin(p *des.Proc, tok int) {
	h, ok := c.held[tok]
	if !ok {
		return
	}
	h.busy = false
	if h.wanted {
		c.releaseWord(p, tok)
	}
}

// Release gives the token back (one remote CAS, no control transfer).
func (c *Client) Release(p *des.Proc, tok int) error {
	if _, ok := c.held[tok]; !ok {
		return fmt.Errorf("tokens: releasing token %d we do not hold", tok)
	}
	c.releaseWord(p, tok)
	return nil
}

func (c *Client) releaseWord(p *des.Proc, tok int) {
	me := uint32(c.m.Node.ID + 1)
	delete(c.held, tok)
	if ok, err := c.table.CAS(p, c.word(tok), me, 0, c.scratch, 4, time.Second); err != nil || !ok {
		c.m.WriteFaults = append(c.m.WriteFaults,
			fmt.Errorf("tokens: release of %d failed (ok=%v err=%v)", tok, ok, err))
	}
}

// Holds reports whether this client currently holds tok.
func (c *Client) Holds(tok int) bool {
	_, ok := c.held[tok]
	return ok
}
