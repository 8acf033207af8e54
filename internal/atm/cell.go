// Package atm models the paper's network substrate: a FORE-style ATM
// local-area network carrying 53-byte cells (48 payload bytes) between
// host-network interfaces with bounded TX/RX FIFOs accessed by programmed
// I/O, over point-to-point links, optionally through a cell switch.
//
// Framing follows AAL5 in spirit: a variable-length frame is segmented
// into cells, the final cell is flagged, and a trailer carrying the frame
// length and a CRC-32 rides in the last cell's payload. Cells of different
// virtual circuits may interleave on a link; reassembly is per-VC.
//
// The paper's cluster treats cell loss as catastrophic ("we therefore feel
// justified in treating data loss within the cluster as an extremely rare
// occurrence"); links here are lossless unless a fault-injection rate is
// configured, and FIFO overflow exerts backpressure rather than dropping.
package atm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// PayloadSize is the usable payload of one cell.
const PayloadSize = 48

// CellSize is the on-wire size of one cell (5-byte header + payload).
const CellSize = 53

// trailerSize is the frame trailer: length (2) + truncated CRC (2). A full
// AAL5 trailer is 8 bytes; we use a compact 4-byte variant so that a small
// remote-memory operation (header + a few words of data) fits in a single
// cell, as the paper's raw-cell request format does. Frames are therefore
// capped at 64 KiB; higher layers chunk larger transfers.
const trailerSize = 4

// MaxFrame is the largest frame Segment accepts.
const MaxFrame = 1<<16 - 1

// VCI identifies a virtual circuit. This cluster uses a static well-known
// mapping with no signalling protocol: the circuit from node s to node d
// has VCI d<<8|s. Switches route on the destination byte, and reassembly
// keyed by the full VCI keeps frames from different sources to the same
// destination from interleaving.
type VCI uint16

// MakeVCI returns the well-known circuit id from node src to node dst.
// Node ids must fit in a byte (the cluster is "a modest number of
// high-performance workstations").
func MakeVCI(dst, src int) VCI {
	if dst < 0 || dst > 255 || src < 0 || src > 255 {
		panic("atm: node id out of range for well-known VCI scheme")
	}
	return VCI(dst)<<8 | VCI(src)
}

// Dst returns the destination node of the circuit.
func (v VCI) Dst() int { return int(v >> 8) }

// Src returns the source node of the circuit.
func (v VCI) Src() int { return int(v & 0xff) }

// Cell is one ATM cell. Cells are passed by value through FIFOs and links.
type Cell struct {
	VCI     VCI
	Last    bool // AAL5 end-of-frame flag (PT bit)
	Payload [PayloadSize]byte
}

// Segment splits frame into cells on the given circuit, appending the AAL5
// trailer (length + CRC-32 of the frame body) in the final cell, padding
// with zeros as needed. A frame always produces at least one cell.
func Segment(vci VCI, frame []byte) []Cell {
	return SegmentInto(nil, vci, frame)
}

// SegmentInto is Segment reusing the backing array of cells when it is
// large enough, so a sender that keeps a scratch slice segments without
// allocating. The frame is laid into the cell payloads directly — no
// intermediate padded buffer — and the pad region is zeroed explicitly
// because recycled cells carry stale bytes.
func SegmentInto(cells []Cell, vci VCI, frame []byte) []Cell {
	if len(frame) > MaxFrame {
		panic("atm: frame exceeds 64 KiB framing limit")
	}
	total := len(frame) + trailerSize
	ncells := (total + PayloadSize - 1) / PayloadSize
	if cap(cells) >= ncells {
		cells = cells[:ncells]
	} else {
		cells = make([]Cell, ncells)
	}
	off := 0
	for i := range cells {
		c := &cells[i]
		c.VCI = vci
		c.Last = false
		n := copy(c.Payload[:], frame[off:])
		off += n
		if n < PayloadSize {
			clear(c.Payload[n:])
		}
	}
	last := &cells[ncells-1]
	last.Last = true
	binary.BigEndian.PutUint16(last.Payload[PayloadSize-4:], uint16(len(frame)))
	binary.BigEndian.PutUint16(last.Payload[PayloadSize-2:], uint16(crc32.ChecksumIEEE(frame)))
	return cells
}

// CellsForFrame returns how many cells Segment will produce for a frame of
// n bytes (including the trailer).
func CellsForFrame(n int) int {
	return (n + trailerSize + PayloadSize - 1) / PayloadSize
}

// Reassembler rebuilds frames from interleaved per-VC cell streams.
// Completed frame buffers can be handed back with Recycle once the consumer
// is done with them, so steady-state reassembly does not allocate.
type Reassembler struct {
	// partial[dst][src] is the frame so far on circuit src→dst, nil when
	// none is open. A cell finds its circuit by two indexes, with no
	// hashing; rows grow to the highest node seen, on first use.
	partial [][][]byte
	pending int // open circuits
	spare   [][]byte
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{}
}

// open returns circuit v's entry in the partial-frame table, growing the
// table to hold it.
func (r *Reassembler) open(v VCI) *[]byte {
	d, s := v.Dst(), v.Src()
	if n := d + 1; n > len(r.partial) {
		r.partial = append(r.partial, make([][][]byte, n-len(r.partial))...)
	}
	row := r.partial[d]
	if n := s + 1; n > len(row) {
		row = append(row, make([][]byte, n-len(row))...)
		r.partial[d] = row
	}
	return &row[s]
}

// buffer takes a recycled frame buffer, or starts an empty one.
func (r *Reassembler) buffer() []byte {
	if n := len(r.spare); n > 0 {
		b := r.spare[n-1]
		r.spare[n-1] = nil
		r.spare = r.spare[:n-1]
		return b
	}
	return nil
}

// Recycle returns a frame obtained from Add to the reassembler's buffer
// pool. The caller must be done with the frame — and with anything aliasing
// it — before recycling; the buffer is reused for a future frame.
func (r *Reassembler) Recycle(frame []byte) {
	if cap(frame) > 0 {
		r.spare = append(r.spare, frame[:0])
	}
}

// Add accepts one cell. When the cell completes a frame, Add returns the
// frame body (trailer stripped and verified) and done=true. A CRC or
// length violation returns an error and discards the partial frame —
// upper layers treat this as the catastrophic event the paper says it is.
func (r *Reassembler) Add(c Cell) (frame []byte, done bool, err error) {
	slot := r.open(c.VCI)
	buf := *slot // an open circuit holds at least one cell's bytes
	if buf == nil {
		buf = r.buffer()
		r.pending++
	}
	buf = append(buf, c.Payload[:]...)
	if !c.Last {
		*slot = buf
		return nil, false, nil
	}
	*slot = nil
	r.pending--
	if len(buf) < trailerSize {
		r.Recycle(buf)
		return nil, true, fmt.Errorf("atm: runt frame on VCI %d", c.VCI)
	}
	n := binary.BigEndian.Uint16(buf[len(buf)-4:])
	sum := binary.BigEndian.Uint16(buf[len(buf)-2:])
	if int(n) > len(buf)-trailerSize {
		r.Recycle(buf)
		return nil, true, fmt.Errorf("atm: frame length %d exceeds %d received bytes on VCI %d", n, len(buf)-trailerSize, c.VCI)
	}
	body := buf[:n]
	if uint16(crc32.ChecksumIEEE(body)) != sum {
		r.Recycle(buf)
		return nil, true, fmt.Errorf("atm: CRC mismatch on VCI %d", c.VCI)
	}
	return body, true, nil
}

// Pending reports how many circuits have partially reassembled frames.
func (r *Reassembler) Pending() int { return r.pending }
