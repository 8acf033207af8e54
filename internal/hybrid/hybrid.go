// Package hybrid implements Hybrid-1 (§5.1), the paper's RPC-like
// comparator built on the remote-memory primitives: "a single write
// request with notification, followed by one or more return write
// requests". The client writes its request into a per-client slot of the
// server's request segment with the notify bit set; the server's signal
// handler runs the service procedure and remote-writes the result straight
// into the client's reply segment; the client spin waits at user level for
// the completion flag.
//
// Hybrid-1 pays for one control transfer per call (the 260 µs notification
// path) plus the server's procedure execution — the costs Figure 2 and
// Figure 3 show the pure data-transfer structure avoiding.
package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/rmem"
)

// Handler is the server-side service procedure: it receives the request
// bytes, valid only until it returns, and returns the reply bytes, which
// the server copies. It runs in the server's signal-handler process;
// service CPU time is charged by the handler itself (the file service
// charges its per-operation processing cost here).
type Handler func(p *des.Proc, src int, req []byte) []byte

// slot layout (server request segment, one slot per client node):
//
//	word 0: request sequence number (changes ⇒ new request)
//	word 1: request length
//	bytes 8..: request body
//
// reply layout (client reply segment):
//
//	word 0: completion flag / sequence echo
//	word 1: reply length
//	bytes 8..: reply body
const slotHeader = 8

// Server is the service end of a Hybrid-1 channel.
type Server struct {
	m        *rmem.Manager
	handler  Handler
	reqSeg   *rmem.Segment
	slotCap  int
	clients  map[int]*rmem.Import // client node → imported reply segment
	reliable bool
	req, out []byte // request copy and reply frame, reused by every call

	// Calls counts served requests.
	Calls int64
}

// NewServer exports a request segment with one slot per possible client
// node and arms its notification handler. slotCap bounds a request body;
// replies are bounded by the client's reply segment size.
func NewServer(p *des.Proc, m *rmem.Manager, nodes int, slotCap int, h Handler) *Server {
	s := &Server{
		m:       m,
		handler: h,
		slotCap: slotCap,
		clients: make(map[int]*rmem.Import),
	}
	s.reqSeg = m.Export(p, nodes*(slotHeader+slotCap))
	s.reqSeg.SetDefaultRights(rmem.RightWrite)
	s.reqSeg.OnNotify(s.serve)
	return s
}

// ReqSeg exposes the request segment's coordinates for client setup.
func (s *Server) ReqSeg() (id, gen uint16, size int) {
	return s.reqSeg.ID(), s.reqSeg.Gen(), s.reqSeg.Size()
}

// AttachClient installs the reply-segment descriptor for a client node.
// In a full system this handshake would go through the name service; the
// experiments wire it directly, as both ends are parts of one application
// (§3.3).
func (s *Server) AttachClient(p *des.Proc, node int, segID, gen uint16, size int) {
	imp := s.m.Import(p, node, segID, gen, size)
	// Pushing replies is the server's "data reply" work in Figure 3's
	// breakdown, not client work.
	imp.SetAccountCategory(cluster.CatReply)
	imp.SetReliable(s.reliable)
	s.clients[node] = imp
}

// SetReliable routes the server's reply writes through the reliability
// layer (sequencing, retransmission, receiver dedup) — for channels
// running over lossy links. Applies to already-attached clients and to
// future AttachClient calls.
func (s *Server) SetReliable(v bool) {
	s.reliable = v
	for _, imp := range s.clients {
		imp.SetReliable(v)
	}
}

func (s *Server) slotOff(node int) int { return node * (slotHeader + s.slotCap) }

// serve is the notification (signal) handler: parse the client's slot,
// run the procedure, push the reply back with data transfer only. One
// handler process serves the segment, so calls never overlap, and one
// request copy and one reply frame serve every call: a Handler must not
// keep req past its return, and the reply push copies what it sends.
func (s *Server) serve(p *des.Proc, note rmem.Notification) {
	src := note.Src
	rep, ok := s.clients[src]
	if !ok {
		return // unattached client; nothing we can do
	}
	off := s.slotOff(src)
	buf := s.reqSeg.Bytes()
	seq := binary.BigEndian.Uint32(buf[off:])
	n := int(binary.BigEndian.Uint32(buf[off+4:]))
	if n < 0 || n > s.slotCap {
		return
	}
	s.req = append(s.req[:0], buf[off+slotHeader:off+slotHeader+n]...)
	s.Calls++
	result := s.handler(p, src, s.req)

	s.out = binary.BigEndian.AppendUint32(s.out[:0], seq) // completion flag = request seq
	s.out = binary.BigEndian.AppendUint32(s.out, uint32(len(result)))
	s.out = append(s.out, result...)
	if err := s.pushReply(p, rep, s.out); err != nil {
		s.m.WriteFaults = append(s.m.WriteFaults, fmt.Errorf("hybrid: reply to node %d: %w", src, err))
	}
}

// pushReply deposits one reply block into the client's reply segment. A
// reliable import moves large blocks in independently-acked chunks, and
// the completion word lives at the front of the block — so a one-shot
// WriteBlock could land the flag while the body's tail is still being
// retransmitted, and the client's spin wait would read a torn reply.
// Write the body first (each chunk acked in order) and the single-cell
// header last, so the flag can never pass the data it announces.
func (s *Server) pushReply(p *des.Proc, rep *rmem.Import, out []byte) error {
	if s.reliable && len(out) > slotHeader {
		if err := rep.WriteBlock(p, slotHeader, out[slotHeader:], false); err != nil {
			return err
		}
		return rep.Write(p, 0, out[:slotHeader], false)
	}
	return rep.WriteBlock(p, 0, out, false)
}

// Client is the requesting end of a Hybrid-1 channel.
type Client struct {
	m       *rmem.Manager
	server  int
	req     *rmem.Import
	repSeg  *rmem.Segment
	slotCap int
	seq     uint32
	msg     []byte // request frame buffer, reused by every Post
}

// ErrReplyTooBig reports a reply that exceeded the client's reply segment.
var ErrReplyTooBig = errors.New("hybrid: reply exceeds reply segment")

// NewClient creates the client end: it exports a reply segment (granting
// the server write access) and imports the server's request segment.
func NewClient(p *des.Proc, m *rmem.Manager, server int, reqID, reqGen uint16, reqSize, slotCap, maxReply int) *Client {
	c := &Client{m: m, server: server, slotCap: slotCap}
	c.repSeg = m.Export(p, slotHeader+maxReply)
	c.repSeg.SetRights(server, rmem.RightWrite)
	c.req = m.Import(p, server, reqID, reqGen, reqSize)
	return c
}

// RepSeg exposes the reply segment's coordinates for server attachment.
func (c *Client) RepSeg() (id, gen uint16, size int) {
	return c.repSeg.ID(), c.repSeg.Gen(), c.repSeg.Size()
}

// SetReliable routes the client's request writes through the reliability
// layer, so a lost request cell is retransmitted instead of stalling the
// spin wait until the call timeout.
func (c *Client) SetReliable(v bool) { c.req.SetReliable(v) }

// SetFence makes the client's request writes carry the server's
// incarnation epoch (the descriptor lease), so a call into a restarted
// server fails fast with rmem.ErrStaleGeneration instead of spinning to
// the call timeout against memory that no longer exists.
func (c *Client) SetFence(v bool, epoch uint16) {
	c.req.SetFence(v)
	c.req.SetEpoch(epoch)
}

// Call performs one Hybrid-1 exchange: write-with-notify the request into
// our slot on the server, spin wait for the reply write to land, return
// the reply body. A zero timeout waits without bound.
func (c *Client) Call(p *des.Proc, req []byte, timeout des.Duration) ([]byte, error) {
	if err := c.Post(p, req); err != nil {
		return nil, err
	}
	var deadline des.Time
	if timeout > 0 {
		deadline = p.Now().Add(timeout)
	}
	rep, err := c.Await(p, deadline)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), rep...), nil
}

// Post issues the request half of an exchange — the write-with-notify
// into our slot on the server — and returns without waiting for the
// reply, so a process can have requests outstanding to several servers at
// once (one per Client) and collect the replies with Await. A Post
// supersedes any exchange on this Client still awaiting its reply.
func (c *Client) Post(p *des.Proc, req []byte) error {
	if len(req) > c.slotCap {
		return rmem.ErrTooBig
	}
	c.seq++
	binary.BigEndian.PutUint32(c.repSeg.Bytes(), 0) // clear completion flag

	// WriteBlock encodes msg into frames and is done with it when it
	// returns, so one buffer serves every request.
	c.msg = binary.BigEndian.AppendUint32(c.msg[:0], c.seq)
	c.msg = binary.BigEndian.AppendUint32(c.msg, uint32(len(req)))
	c.msg = append(c.msg, req...)
	off := c.m.Node.ID * (slotHeader + c.slotCap)
	return c.req.WriteBlock(p, off, c.msg, true)
}

// Await spin waits for the reply to the last Post and returns its body,
// or rmem.ErrTimeout once the virtual clock passes deadline (zero waits
// without bound). The body aliases the reply segment: it is valid until
// the next Post.
func (c *Client) Await(p *des.Proc, deadline des.Time) ([]byte, error) {
	n := c.m.Node
	flagArea := c.repSeg.Bytes()
	// User-level spin wait on the completion word (§4.3), backing off so
	// a long reply transfer is not slowed by poll cycles stealing the CPU
	// from the kernel's deposit path.
	interval := 3 * time.Microsecond
	for {
		n.UseCPU(p, cluster.CatClient, n.P.SpinPoll)
		if binary.BigEndian.Uint32(flagArea) == c.seq {
			break
		}
		if deadline > 0 && p.Now() > deadline {
			return nil, rmem.ErrTimeout
		}
		p.Sleep(interval)
		if interval < 48*time.Microsecond {
			interval += interval / 2
		}
	}
	rn := int(binary.BigEndian.Uint32(flagArea[4:]))
	if rn < 0 || slotHeader+rn > c.repSeg.Size() {
		return nil, ErrReplyTooBig
	}
	return flagArea[slotHeader : slotHeader+rn], nil
}
