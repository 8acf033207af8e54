package consensus

import (
	"encoding/binary"
	"fmt"
	"strings"

	"netmem/internal/nameserver"
)

// Kind tags a control-plane log entry.
type Kind uint8

const (
	// KindNoop fills a hole or probes liveness; it mutates nothing.
	KindNoop Kind = iota + 1
	// KindLease grants the leader lease for Epoch to replica Node.
	KindLease
	// KindRegister applies a name-registry record on every replica
	// (Register and generation/epoch supersede travel the same way).
	KindRegister
	// KindFence marks Node dead in every replica's name clerk; a
	// watchdog verdict becomes an agreed value instead of one machine's
	// opinion.
	KindFence
	// KindUnfence lifts Node's fence after its repair completes.
	KindUnfence
	// KindMembership commits a shard-ring epoch bump: Epoch is the new
	// membership epoch and Blob the packed ring.
	KindMembership
	// KindSnapshot advances the compaction watermark: every replica
	// checkpoints its applied state into its acceptor segment and
	// recycles the slots at and below the decree's own slot. The decree
	// carries no base — each replica computes it from where the decree
	// landed, so all replicas agree by construction.
	KindSnapshot
)

func (k Kind) String() string {
	switch k {
	case KindNoop:
		return "noop"
	case KindLease:
		return "lease"
	case KindRegister:
		return "register"
	case KindFence:
		return "fence"
	case KindUnfence:
		return "unfence"
	case KindMembership:
		return "membership"
	case KindSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Command is one decree. Origin+Seq make every proposal distinct on the
// wire even when two clients submit semantically identical mutations, so
// "did my proposal win this slot" is a byte compare.
type Command struct {
	Kind   Kind
	Origin uint8  // proposer lane that created the command
	Seq    uint32 // per-origin sequence number
	Node   int    // target machine (lease/fence/unfence) or replica
	Epoch  uint32 // lease or membership epoch
	Rec    nameserver.Record
	Blob   []byte
}

// Wire layout: kind(1) origin(1) seq(4) node(2) epoch(4) len(2) body.
// For KindRegister the body is the packed registry record; for
// KindMembership it is the ring blob.
const cmdHdr = 14

const recBody = 16 + nameserver.MaxName // epoch|gen, seg|node, size, name

// Encode packs the command for a log slot.
func (c Command) Encode() []byte {
	body := c.Blob
	if c.Kind == KindRegister {
		b := make([]byte, recBody)
		binary.BigEndian.PutUint32(b[0:], uint32(c.Rec.Epoch)<<16|uint32(c.Rec.Gen))
		binary.BigEndian.PutUint32(b[4:], uint32(c.Rec.Seg)<<16|uint32(c.Rec.Node)&0xffff)
		binary.BigEndian.PutUint32(b[8:], uint32(c.Rec.Size))
		copy(b[16:], c.Rec.Name)
		body = b
	}
	out := make([]byte, cmdHdr+len(body))
	out[0] = byte(c.Kind)
	out[1] = c.Origin
	binary.BigEndian.PutUint32(out[2:], c.Seq)
	binary.BigEndian.PutUint16(out[6:], uint16(c.Node))
	binary.BigEndian.PutUint32(out[8:], c.Epoch)
	binary.BigEndian.PutUint16(out[12:], uint16(len(body)))
	copy(out[cmdHdr:], body)
	return out
}

// Decode unpacks a learned slot payload.
func Decode(buf []byte) (Command, error) {
	if len(buf) < cmdHdr {
		return Command{}, ErrBadCommand
	}
	c := Command{
		Kind:   Kind(buf[0]),
		Origin: buf[1],
		Seq:    binary.BigEndian.Uint32(buf[2:]),
		Node:   int(binary.BigEndian.Uint16(buf[6:])),
		Epoch:  binary.BigEndian.Uint32(buf[8:]),
	}
	n := int(binary.BigEndian.Uint16(buf[12:]))
	if n > len(buf)-cmdHdr {
		return Command{}, ErrBadCommand
	}
	body := buf[cmdHdr : cmdHdr+n]
	switch c.Kind {
	case KindRegister:
		if n < recBody {
			return Command{}, ErrBadCommand
		}
		gw := binary.BigEndian.Uint32(body[0:])
		loc := binary.BigEndian.Uint32(body[4:])
		c.Rec = nameserver.Record{
			Epoch: uint16(gw >> 16),
			Gen:   uint16(gw),
			Seg:   uint16(loc >> 16),
			Node:  int(loc & 0xffff),
			Size:  int(binary.BigEndian.Uint32(body[8:])),
		}
		name := string(body[16 : 16+nameserver.MaxName])
		if i := strings.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		c.Rec.Name = name
	case KindNoop, KindLease, KindFence, KindUnfence, KindMembership, KindSnapshot:
		if n > 0 {
			c.Blob = append([]byte(nil), body...)
		}
	default:
		return Command{}, ErrBadCommand
	}
	return c, nil
}
