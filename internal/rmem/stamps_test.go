package rmem

import (
	"testing"
	"time"

	"netmem/internal/des"
)

// stampProbe snapshots a tracked segment's per-page stamps so a test can
// ask which pages a store advanced.
type stampProbe struct {
	seg    *Segment
	before []uint64
}

func probe(seg *Segment) *stampProbe {
	pr := &stampProbe{seg: seg}
	for pg := 0; pg < len(seg.stamps.pages); pg++ {
		pr.before = append(pr.before, seg.RangeStamp(pg<<stampShift, 1))
	}
	return pr
}

// advanced returns the pages whose stamp moved since the probe, and fails
// the test if the segment's latest stamp disagrees with them.
func (pr *stampProbe) advanced(t *testing.T) []int {
	t.Helper()
	var moved []int
	var latest uint64
	for pg, was := range pr.before {
		now := pr.seg.RangeStamp(pg<<stampShift, 1)
		if now < was {
			t.Fatalf("page %d stamp went backwards: %d -> %d", pg, was, now)
		}
		if now != was {
			moved = append(moved, pg)
		}
		if now > latest {
			latest = now
		}
	}
	if latest != pr.seg.WriteStamp() {
		t.Fatalf("WriteStamp %d != latest page stamp %d", pr.seg.WriteStamp(), latest)
	}
	return moved
}

func wantPages(t *testing.T, what string, got []int, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s advanced pages %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s advanced pages %v, want %v", what, got, want)
		}
	}
}

// TestWriteStampsEveryStorePath pins that every rmem path that stores into
// a segment advances exactly the covering pages' stamps — remote WRITE
// (plain and byte-swapped), a successful CAS, the READ-reply and
// CAS-reply deposits, WriteLocal, WriteWord and CASLocal — and that a
// failed CAS, a remote READ and the local read helpers advance nothing.
func TestWriteStampsEveryStorePath(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		const pages = 4
		seg := m1.Export(p, pages<<stampShift)
		seg.SetDefaultRights(RightsAll)
		seg.TrackWrites()
		dst := m0.Export(p, pages<<stampShift) // READ/CAS results land here
		dst.TrackWrites()
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		settle := func() { p.Sleep(time.Millisecond) }

		pr := probe(seg)
		if err := imp.Write(p, 4096+8, []byte("register"), false); err != nil {
			t.Fatal(err)
		}
		settle()
		wantPages(t, "remote WRITE", pr.advanced(t), 1)

		pr = probe(seg)
		if err := imp.WriteBlock(p, 4096-4, make([]byte, 4096+8), false); err != nil {
			t.Fatal(err)
		}
		settle()
		wantPages(t, "remote block WRITE across pages", pr.advanced(t), 0, 1, 2)

		imp.SetByteOrderSwap(true)
		pr = probe(seg)
		if err := imp.WriteBlock(p, 3*4096, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false); err != nil {
			t.Fatal(err)
		}
		settle()
		wantPages(t, "byte-swapped WRITE", pr.advanced(t), 3)
		imp.SetByteOrderSwap(false)

		pr, prDst := probe(seg), probe(dst)
		if err := imp.Read(p, 2*4096, 64, dst, 3*4096+16, 0); err != nil {
			t.Fatal(err)
		}
		wantPages(t, "remote READ (target)", pr.advanced(t))
		wantPages(t, "READ-reply deposit", prDst.advanced(t), 3)

		pr, prDst = probe(seg), probe(dst)
		ok, err := imp.CAS(p, 2*4096, 0, 7, dst, 4, 0)
		if err != nil || !ok {
			t.Fatalf("CAS = %v, %v; want success", ok, err)
		}
		wantPages(t, "successful CAS (target)", pr.advanced(t), 2)
		wantPages(t, "CAS-reply deposit", prDst.advanced(t), 0)

		pr, prDst = probe(seg), probe(dst)
		ok, err = imp.CAS(p, 2*4096, 0, 9, dst, 4096, 0)
		if err != nil || ok {
			t.Fatalf("CAS = %v, %v; want failure", ok, err)
		}
		wantPages(t, "failed CAS (target)", pr.advanced(t))
		wantPages(t, "failed CAS's reply deposit", prDst.advanced(t), 1)

		pr = probe(seg)
		seg.WriteLocal(p, 4096*2-2, []byte("span"))
		wantPages(t, "WriteLocal", pr.advanced(t), 1, 2)

		pr = probe(seg)
		seg.WriteWord(p, 3*4096+4, 42)
		wantPages(t, "WriteWord", pr.advanced(t), 3)

		pr = probe(seg)
		if !seg.CASLocal(p, 3*4096+4, 42, 43) {
			t.Fatal("CASLocal failed")
		}
		wantPages(t, "CASLocal success", pr.advanced(t), 3)

		pr = probe(seg)
		if seg.CASLocal(p, 3*4096+4, 42, 44) {
			t.Fatal("CASLocal succeeded on a stale compare")
		}
		m1.Buffers().Put(seg.ReadLocal(p, 0, 128))
		_ = seg.ReadWord(p, 8)
		wantPages(t, "failed CASLocal and local reads", pr.advanced(t))
	})
}

// TestWriteStampsMonotone pins the stamp contract a poller relies on: a
// freshly tracked segment starts every page at stamp 1 (so a recorded 0
// means "never compared"), TrackWrites is idempotent, and every store
// hands out a strictly later stamp — including a store of identical
// bytes, which is why pollers still byte-compare.
func TestWriteStampsMonotone(t *testing.T) {
	env, _, m0, _ := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m0.Export(p, 3*4096+100)
		seg.TrackWrites()
		if got := seg.WriteStamp(); got != 1 {
			t.Fatalf("fresh WriteStamp = %d, want 1", got)
		}
		if got := seg.RangeStamp(0, seg.Size()); got != 1 {
			t.Fatalf("fresh RangeStamp = %d, want 1", got)
		}
		seg.WriteWord(p, 3*4096, 5)
		seg.TrackWrites() // must not reset
		at := seg.WriteStamp()
		if at != 2 || seg.RangeStamp(3*4096, 4) != 2 || seg.RangeStamp(0, 3*4096) != 1 {
			t.Fatalf("after one store: WriteStamp %d, last page %d, rest %d",
				at, seg.RangeStamp(3*4096, 4), seg.RangeStamp(0, 3*4096))
		}
		seg.WriteWord(p, 3*4096, 5) // same bytes
		if seg.RangeStamp(3*4096, 4) <= at {
			t.Fatal("a same-bytes store did not advance the stamp")
		}
		seg.MarkWritten(0, 0) // empty range: no stamp
		if seg.WriteStamp() != at+1 {
			t.Fatalf("empty MarkWritten advanced the clock to %d", seg.WriteStamp())
		}
	})
}

// TestWriteStampsUntrackedCostNothing pins the opt-in: a segment nobody
// tracks carries no stamp state, reports zero stamps, and its store paths
// stay allocation free, as do the tracked ones once warm.
func TestWriteStampsUntrackedCostNothing(t *testing.T) {
	env, _, m0, _ := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m0.Export(p, 8192)
		word := []byte("abcd")
		seg.WriteLocal(p, 0, word)
		seg.WriteWord(p, 4, 1)
		seg.CASLocal(p, 4, 1, 2)
		seg.MarkWritten(0, 8192)
		if seg.stamps != nil || seg.WriteStamp() != 0 || seg.RangeStamp(0, 8192) != 0 {
			t.Fatal("an untracked segment grew stamp state")
		}
		for _, tracked := range []bool{false, true} {
			if tracked {
				seg.TrackWrites()
			}
			avg := testing.AllocsPerRun(200, func() {
				seg.WriteLocal(p, 100, word)
				seg.WriteWord(p, 4, 3)
				seg.CASLocal(p, 4, 3, 4)
				m0.Buffers().Put(seg.ReadLocal(p, 0, 128))
			})
			if avg > 0 {
				t.Errorf("tracked=%v: local store/read path allocates %.2f objects/op, want 0", tracked, avg)
			}
		}
	})
}
