package dfs

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/des"
	"netmem/internal/fstore"
)

func TestReadAheadOverlapsTransferWithCompute(t *testing.T) {
	r := newRig(t, 1, DX)
	content := make([]byte, 6*fstore.BlockSize)
	for i := range content {
		content[i] = byte(i * 13)
	}
	h, err := r.server.Store.WriteFile("/seq/stream", content)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.server.WarmFile(h); err != nil {
		t.Fatal(err)
	}

	// Sequential whole-file read with per-block "compute" time, with and
	// without read-ahead.
	sequential := func(c *Clerk) (time.Duration, []byte) {
		var out []byte
		start := r.env.Now()
		var end des.Time
		r.env.Spawn("reader", func(p *des.Proc) {
			for b := int64(0); b < 6; b++ {
				blk, err := c.Read(p, h, b*fstore.BlockSize, fstore.BlockSize)
				if err != nil {
					t.Error(err)
					return
				}
				out = append(out, blk...)
				p.Sleep(3 * time.Millisecond) // the application computes
			}
			end = p.Now()
		})
		if err := r.env.RunUntil(r.env.Now().Add(5 * time.Minute)); err != nil {
			t.Fatal(err)
		}
		return time.Duration(end.Sub(start)), out
	}

	cold := r.clerks[0]
	cold.FlushLocal()
	plainTime, got := sequential(cold)
	if !bytes.Equal(got, content) {
		t.Fatal("plain sequential read corrupted")
	}

	r.env.Spawn("enable", func(p *des.Proc) { cold.EnableReadAhead(p) })
	if err := r.env.RunUntil(r.env.Now().Add(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cold.FlushLocal()
	aheadTime, got := sequential(cold)
	if !bytes.Equal(got, content) {
		t.Fatal("read-ahead sequential read corrupted")
	}

	if cold.PrefetchHits < 4 {
		t.Fatalf("prefetch hits = %d, want most of the 5 follow-on blocks", cold.PrefetchHits)
	}
	// Each non-first block's ~1.9ms transfer should hide behind the 3ms
	// compute: expect several milliseconds saved overall.
	saved := plainTime - aheadTime
	t.Logf("sequential 48K read: %v plain, %v with read-ahead (saved %v)", plainTime, aheadTime, saved)
	if saved < 5*time.Millisecond {
		t.Fatalf("read-ahead saved only %v", saved)
	}
}

func TestReadAheadHarmlessOnRandomAccess(t *testing.T) {
	r := newRig(t, 1, DX)
	h, err := r.server.Store.WriteFile("/rand/file", make([]byte, 4*fstore.BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.server.WarmFile(h); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *des.Proc) {
		c := r.clerks[0]
		c.EnableReadAhead(p)
		// Random-ish order: block 2, 0, 3, 1 — correctness must hold and
		// stray prefetches must be discarded, not served wrongly.
		for _, b := range []int64{2, 0, 3, 1} {
			blk, err := c.Read(p, h, b*fstore.BlockSize, fstore.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			if len(blk) != fstore.BlockSize {
				t.Fatalf("block %d: %d bytes", b, len(blk))
			}
		}
	})
}

func TestReadAheadRespectsEOF(t *testing.T) {
	r := newRig(t, 1, DX)
	h, err := r.server.Store.WriteFile("/short/file", make([]byte, fstore.BlockSize+100))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.server.WarmFile(h); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *des.Proc) {
		c := r.clerks[0]
		c.EnableReadAhead(p)
		got, err := c.Read(p, h, 0, 2*fstore.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != fstore.BlockSize+100 {
			t.Fatalf("read %d bytes, want %d", len(got), fstore.BlockSize+100)
		}
		// A prefetch beyond EOF (block 2) may be in flight; it must not
		// corrupt a subsequent read.
		p.Sleep(10 * time.Millisecond)
		got2, err := c.Read(p, h, 0, 100)
		if err != nil || len(got2) != 100 {
			t.Fatalf("re-read: %d bytes, %v", len(got2), err)
		}
	})
}

// TestWriteIntoPrefetchedBlock writes part of a block whose read-ahead is
// still outstanding: the clerk's later read of that block must return its
// own write, not the bytes the read-ahead fetched before it.
func TestWriteIntoPrefetchedBlock(t *testing.T) {
	r := newRig(t, 1, DX)
	content := make([]byte, 3*fstore.BlockSize)
	for i := range content {
		content[i] = byte(i * 7)
	}
	h, err := r.server.Store.WriteFile("/seq/written", content)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.server.WarmFile(h); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *des.Proc) {
		c := r.clerks[0]
		c.EnableReadAhead(p)
		if _, err := c.Read(p, h, 0, fstore.BlockSize); err != nil {
			t.Fatal(err)
		}
		if c.pf == nil || c.pf.bk != (blockKey{h, 1}) {
			t.Fatal("reading block 0 did not start a read-ahead of block 1")
		}
		patch := bytes.Repeat([]byte{0xAB}, 512)
		off := int64(fstore.BlockSize + 100)
		if err := c.Write(p, h, off, patch); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), content[fstore.BlockSize:2*fstore.BlockSize]...)
		copy(want[100:], patch)
		got, err := c.Read(p, h, fstore.BlockSize, fstore.BlockSize)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after the write: %d bytes (err %v), not the written block", len(got), err)
		}
	})
}
