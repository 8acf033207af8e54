package dfs

import (
	"encoding/binary"
	"fmt"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/rmem"
)

// mirrorHdr is the mirror segment's header: five geometry words (attr,
// name, link, data, dir bucket counts), the primary's epoch, and two
// reserved words — written once by the primary at AttachStandby so a
// takeover can cross-check that both ends agree on the data-area layout.
const mirrorHdr = 32

// Standby is the hot-standby end of the mirror channel: a node that
// exports one write-only segment shaped like the primary's data area and
// otherwise burns no cycles — mirroring is pure data transfer into its
// memory (§3.1). On the primary's death, TakeOver promotes it to a full
// server and grafts the mirrored write-behind state into the new
// incarnation.
type Standby struct {
	m      *rmem.Manager
	geo    Geometry
	mirror *rmem.Segment

	// Restored counts dirty buckets grafted into the new incarnation by
	// TakeOver.
	Restored int64
}

// NewStandby exports the mirror segment on m's node. The geometry must
// match the primary's (AttachStandby stamps it into the header; TakeOver
// verifies).
func NewStandby(p *des.Proc, m *rmem.Manager, geo Geometry) *Standby {
	geo.fill()
	sb := &Standby{m: m, geo: geo}
	sb.mirror = m.Export(p, mirrorHdr+geo.DataBuckets*dataStride)
	sb.mirror.SetDefaultRights(rmem.RightWrite)
	return sb
}

// MirrorSeg exposes the mirror segment's coordinates for the primary's
// AttachStandby.
func (sb *Standby) MirrorSeg() (id, gen uint16, size int) {
	return sb.mirror.ID(), sb.mirror.Gen(), sb.mirror.Size()
}

// Node returns the standby's node.
func (sb *Standby) Node() *cluster.Node { return sb.m.Node }

// TakeOver promotes the standby to the live file service: it builds a new
// server incarnation over the surviving file store (fresh segment ids and
// generations, the standby node's epoch) and grafts every mirrored dirty
// bucket into the new data area — still flagged dirty, so the next Sync
// applies the write-behind blocks the dead primary never flushed. Clerks
// rebind to the returned server (Clerk.Rebind) and replay in-flight
// operations.
func (sb *Standby) TakeOver(p *des.Proc, store *fstore.Store, nodes int, opts ...ServerOption) (*Server, error) {
	hdr := sb.mirror.Bytes()
	if db := binary.BigEndian.Uint32(hdr[12:]); db != 0 && int(db) != sb.geo.DataBuckets {
		return nil, fmt.Errorf("dfs: takeover: mirror geometry mismatch (primary %d data buckets, standby %d)",
			db, sb.geo.DataBuckets)
	}
	srv := NewServer(p, sb.m, nodes, sb.geo, append([]ServerOption{WithStore(store)}, opts...)...)
	for b := 0; b < sb.geo.DataBuckets; b++ {
		rec := hdr[mirrorHdr+b*dataStride:]
		if flag, _, _, _ := getHdr(rec); flag != flagDirty {
			continue
		}
		copy(srv.storeData(b*dataStride, dataStride), rec[:dataStride])
		sb.Restored++
	}
	if tr := sb.m.Node.Env.Tracer(); tr != nil {
		tr.Count("dfs.standby.takeovers", 1)
		tr.Count("dfs.standby.restored", sb.Restored)
	}
	return srv, nil
}
