package rmem

// Host-side write tracking. A one-sided WRITE deposits data without a
// control transfer (§3.1), so a process that wants to act on deposits —
// a primary pushing changed buckets down its replica chain, say — has to
// poll its own memory. Write stamps are the simulator's MMU dirty bit for
// that poll: every store into a tracked segment advances a per-segment
// clock and stamps the 4 KiB pages it covered, at zero virtual time. A
// poller records the clock when it last found a range in step with its
// shadow and byte-compares the range again only once a page under it
// carries a later stamp. The stamp is a candidate filter, not a change
// signal: a store of identical bytes still advances it.
//
// Tracking is opt-in per segment (TrackWrites); an untracked segment pays
// one nil check per store.

// stampShift is log2 of the tracking page size.
const stampShift = 12

// writeStamps is a tracked segment's stamp state.
type writeStamps struct {
	clock uint64   // latest stamp handed out
	pages []uint64 // per-page stamp of the last store covering it
}

// TrackWrites turns on write tracking for the segment (idempotent). Every
// page starts at stamp 1, the segment's clock: whatever the memory held
// before tracking began counts as written once, so a poller whose
// recorded stamp is 0 compares everything.
func (s *Segment) TrackWrites() {
	if s.stamps != nil {
		return
	}
	ws := &writeStamps{clock: 1, pages: make([]uint64, (len(s.buf)+1<<stampShift-1)>>stampShift)}
	for i := range ws.pages {
		ws.pages[i] = 1
	}
	s.stamps = ws
}

// MarkWritten stamps the pages covering [off, off+n) with a new clock
// value. The rmem store paths call it themselves; a segment owner that
// stores through Bytes() must call it at the store, with no blocking
// point in between. A no-op on an untracked segment.
func (s *Segment) MarkWritten(off, n int) {
	ws := s.stamps
	if ws == nil || n <= 0 {
		return
	}
	ws.clock++
	for pg := off >> stampShift; pg <= (off+n-1)>>stampShift; pg++ {
		ws.pages[pg] = ws.clock
	}
}

// WriteStamp returns the segment's latest stamp: every store so far is
// visible in its bytes, and any later store carries a higher stamp. Zero
// when the segment is untracked.
func (s *Segment) WriteStamp() uint64 {
	if s.stamps == nil {
		return 0
	}
	return s.stamps.clock
}

// RangeStamp returns the latest stamp among the pages covering
// [off, off+n): a range whose RangeStamp is at most a recorded
// WriteStamp has not been stored into since it was recorded. Zero when
// the segment is untracked.
func (s *Segment) RangeStamp(off, n int) uint64 {
	ws := s.stamps
	if ws == nil || n <= 0 {
		return 0
	}
	var latest uint64
	for _, st := range ws.pages[off>>stampShift : (off+n-1)>>stampShift+1] {
		if st > latest {
			latest = st
		}
	}
	return latest
}
