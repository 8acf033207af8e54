package rmem

import (
	"encoding/binary"
	"fmt"
)

// Wire format. Every message begins with a kind/flags byte. Requests carry
// (segment id, generation) so the destination kernel can validate against
// its tables; replies carry only a request id because the requester's
// pending-op table remembers where results go — this keeps a small READ's
// reply inside a single cell, as on the paper's hardware.
//
// Requests sent through the reliability layer additionally carry a 6-byte
// (generation, sequence) identity right after the kind byte, marked by the
// flagRel bit; the identity travels back on NACKs and on the WRACK message
// so the sender can match them to its pending table. Unreliable traffic
// carries no extra bytes, keeping the calibrated single-cell formats
// intact.
//
// Fenced requests (flagEpoch) carry the exporter-incarnation epoch in two
// further bytes after the reliability identity; NACKs echo both prefixes.
//
//	WRITE   k|f  [rgen(2) rseq(4)] [epoch(2)]  seg(2) gen(2) off(4) data…
//	READ    k|f  [rgen(2) rseq(4)] [epoch(2)]  sseg(2) sgen(2) soff(4) count(4) req(4)
//	RDREPLY k    req(4) status(1) data…
//	CAS     k|f  [rgen(2) rseq(4)] [epoch(2)]  seg(2) gen(2) off(4) old(4) new(4) req(4)
//	CASREP  k    req(4) status(1) success(1)
//	NACK    k|f  [rgen(2) rseq(4)] [epoch(2)]  seg(2) gen(2) off(4) code(1)   (for WRITEs)
//	WRACK   k    rgen(2) rseq(4)                   (ack of a reliable WRITE)
const (
	kindWrite byte = iota + 1
	kindRead
	kindReadReply
	kindCAS
	kindCASReply
	kindNack
	kindWriteAck
)

const flagNotify byte = 0x80

// flagSwap asks the receiving kernel to byte-swap 4-byte words while
// depositing — §3.6's heterogeneity bit ("this scheme requires a bit in
// each incoming request to decide whether to swap or not").
const flagSwap byte = 0x40

// flagRel marks a request carrying the reliability layer's (generation,
// sequence) identity.
const flagRel byte = 0x20

// flagEpoch marks a request carrying the exporter-incarnation epoch the
// sender's descriptor was leased under (§3.7 recovery). The destination
// kernel refuses the request with nackStaleGen when the epoch does not
// match its current incarnation — a restarted exporter fences every
// descriptor handed out by its previous life, even if (id, gen) collide
// after the cold boot reset the counters. Unfenced traffic carries no
// extra bytes, keeping the calibrated wire formats intact.
const flagEpoch byte = 0x10

const kindMask byte = 0x0f

// ReadReplyHdr is the framing a READ reply adds to the bytes it returns:
// the kind byte, the request id and the status byte (RDREPLY above).
const ReadReplyHdr = 1 + 4 + 1

type wireMsg struct {
	kind   byte
	notify bool
	swap   bool

	// Reliability identity (flagRel): present on reliable requests and
	// echoed on their NACKs; WRACK always carries it.
	rel  bool
	rgen uint16
	rseq uint32

	// Lease epoch (flagEpoch): the exporter incarnation the request's
	// descriptor was imported under.
	fence bool
	epoch uint16

	seg, gen uint16
	off      uint32
	count    uint32 // READ only
	req      uint32
	status   byte // replies; 0 = OK, else nack code
	success  bool // CAS reply
	oldW     uint32
	newW     uint32
	code     byte // NACK
	data     []byte
}

func put16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func put32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func (m *wireMsg) encode() []byte {
	k := m.kind
	if m.notify {
		k |= flagNotify
	}
	if m.swap {
		k |= flagSwap
	}
	if m.rel {
		k |= flagRel
	}
	if m.fence {
		k |= flagEpoch
	}
	b := []byte{k}
	if m.rel {
		b = put16(b, m.rgen)
		b = put32(b, m.rseq)
	}
	if m.fence {
		b = put16(b, m.epoch)
	}
	switch m.kind {
	case kindWrite:
		b = put16(b, m.seg)
		b = put16(b, m.gen)
		b = put32(b, m.off)
		b = append(b, m.data...)
	case kindRead:
		b = put16(b, m.seg)
		b = put16(b, m.gen)
		b = put32(b, m.off)
		b = put32(b, m.count)
		b = put32(b, m.req)
	case kindReadReply:
		b = put32(b, m.req)
		b = append(b, m.status)
		b = append(b, m.data...)
	case kindCAS:
		b = put16(b, m.seg)
		b = put16(b, m.gen)
		b = put32(b, m.off)
		b = put32(b, m.oldW)
		b = put32(b, m.newW)
		b = put32(b, m.req)
	case kindCASReply:
		b = put32(b, m.req)
		b = append(b, m.status)
		if m.success {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case kindNack:
		b = put16(b, m.seg)
		b = put16(b, m.gen)
		b = put32(b, m.off)
		b = append(b, m.code)
	case kindWriteAck:
		// Identity already emitted by the rel prefix (acks set rel).
	default:
		panic("rmem: encode of unknown message kind")
	}
	return b
}

type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.err = fmt.Errorf("rmem: short message")
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = fmt.Errorf("rmem: short message")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.err = fmt.Errorf("rmem: short message")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func decode(frame []byte) (*wireMsg, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("rmem: empty message")
	}
	m := &wireMsg{kind: frame[0] & kindMask, notify: frame[0]&flagNotify != 0, swap: frame[0]&flagSwap != 0,
		rel: frame[0]&flagRel != 0, fence: frame[0]&flagEpoch != 0}
	r := &wireReader{b: frame[1:]}
	if m.rel {
		m.rgen, m.rseq = r.u16(), r.u32()
	}
	if m.fence {
		m.epoch = r.u16()
	}
	switch m.kind {
	case kindWrite:
		m.seg, m.gen, m.off = r.u16(), r.u16(), r.u32()
		m.data = r.b
	case kindRead:
		m.seg, m.gen, m.off = r.u16(), r.u16(), r.u32()
		m.count, m.req = r.u32(), r.u32()
	case kindReadReply:
		m.req, m.status = r.u32(), r.u8()
		m.data = r.b
	case kindCAS:
		m.seg, m.gen, m.off = r.u16(), r.u16(), r.u32()
		m.oldW, m.newW, m.req = r.u32(), r.u32(), r.u32()
	case kindCASReply:
		m.req, m.status = r.u32(), r.u8()
		m.success = r.u8() != 0
	case kindNack:
		m.seg, m.gen, m.off = r.u16(), r.u16(), r.u32()
		m.code = r.u8()
	case kindWriteAck:
		if !m.rel {
			return nil, fmt.Errorf("rmem: WRACK without reliability identity")
		}
	default:
		return nil, fmt.Errorf("rmem: unknown message kind %d", m.kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
