package dfs

import "netmem/internal/rmem"

// bucketFilter is the candidate filter shared by the two polling pushers
// of the replica chain (Server.chainPass, ChainReplica.forwardPass). Clerk
// deposits land by one-sided WRITE, so a pusher learns of them only by
// polling its memory every interval of virtual time. The filter keeps
// that cadence but spares the host the rescan: the bucket segment tracks
// writes (rmem.Segment.TrackWrites), and the filter remembers, per
// bucket, the stamp at which the pusher last found the bucket in step
// with its shadow (equal bytes, or pushed). A bucket whose pages carry no
// later stamp is skipped without touching its bytes; a stale one is
// still compared byte for byte, because a store of identical bytes moves
// the stamp too.
type bucketFilter struct {
	seg    *rmem.Segment // tracked segment holding the buckets
	side   *rmem.Segment // optional second tracked segment gating the quiet skip
	base   int           // offset of bucket 0 in seg
	stride int           // bucket stride in seg

	seen    []uint64 // per-bucket stamp at which the bucket was last settled
	mark    uint64   // seg's stamp when the last full pass began
	sideMk  uint64   // side's stamp when the last full pass began
	pending bool     // the last full pass left a bucket unsettled
}

// newBucketFilter turns on write tracking for seg (and side, when not
// nil) and returns a filter over n buckets that starts with everything
// unsettled: the first pass compares every bucket.
func newBucketFilter(seg, side *rmem.Segment, base, stride, n int) *bucketFilter {
	seg.TrackWrites()
	if side != nil {
		side.TrackWrites()
	}
	return &bucketFilter{seg: seg, side: side, base: base, stride: stride,
		seen: make([]uint64, n), pending: true}
}

// stamps returns the current write stamps of seg and side.
func (f *bucketFilter) stamps() (mark, side uint64) {
	mark = f.seg.WriteStamp()
	if f.side != nil {
		side = f.side.WriteStamp()
	}
	return mark, side
}

// quiet reports, without starting a pass, that a pass would have nothing
// to do: neither segment has been written since the last full pass began,
// and that pass settled every bucket. A poller sleeps through quiet ticks
// (des.Proc.SleepWhile).
func (f *bucketFilter) quiet() bool {
	mark, side := f.stamps()
	return !f.pending && mark == f.mark && side == f.sideMk
}

// begin starts a pass. It returns false when the filter is quiet.
// Otherwise the pass runs in full.
func (f *bucketFilter) begin() bool {
	if f.quiet() {
		return false
	}
	f.mark, f.sideMk = f.stamps()
	f.pending = false
	return true
}

// stale reports whether bucket b may have been written since it was last
// settled.
func (f *bucketFilter) stale(b int) bool {
	return f.seg.RangeStamp(f.base+b*f.stride, f.stride) > f.seen[b]
}

// now returns seg's current stamp. Captured when a bucket's bytes are
// compared or snapshotted, it is what settle records.
func (f *bucketFilter) now() uint64 { return f.seg.WriteStamp() }

// settle records that bucket b was in step with its shadow as of stamp.
func (f *bucketFilter) settle(b int, stamp uint64) { f.seen[b] = stamp }

// hold marks the pass unfinished: a bucket is left pending (recalled,
// aborted, or its push failed), so the next pass runs in full.
func (f *bucketFilter) hold() { f.pending = true }
