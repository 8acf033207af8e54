package dfs

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/des"
	"netmem/internal/fstore"
)

// TestWholeBlockReadSharesCachedBlock pins Read's sharing contract: a read
// of exactly one whole block returns the clerk's cached block itself (an
// EOF-short last block included), every other read returns a private copy,
// and a write never changes bytes an earlier Read returned.
func TestWholeBlockReadSharesCachedBlock(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		r := newRig(t, 1, mode)
		const size = 2*fstore.BlockSize + 1000
		content := make([]byte, size)
		for i := range content {
			content[i] = byte(i * 13)
		}
		h, err := r.server.Store.WriteFile("/data/shared", content)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.server.WarmFile(h); err != nil {
			t.Fatal(err)
		}
		r.run(t, func(p *des.Proc) {
			c := r.clerks[0]
			read := func(off int64, n int) []byte {
				t.Helper()
				b, err := c.Read(p, h, off, n)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, content[off:min(int(off)+n, size)]) {
					t.Fatalf("read(%d, %d) returned wrong bytes", off, n)
				}
				return b
			}
			for _, block := range []int64{0, 2} {
				off := block * fstore.BlockSize
				a, b := read(off, fstore.BlockSize), read(off, fstore.BlockSize)
				if &a[0] != &b[0] {
					t.Fatalf("block %d: two whole-block reads returned different copies", block)
				}
				if cap(a) != len(a) {
					t.Fatalf("block %d: shared block has spare capacity %d", block, cap(a)-len(a))
				}
			}
			whole := read(0, fstore.BlockSize)
			for _, rd := range []struct {
				off int64
				n   int
			}{{100, 500}, {0, fstore.BlockSize - 1}, {0, 2 * fstore.BlockSize}} {
				x, y := read(rd.off, rd.n), read(rd.off, rd.n)
				if &x[0] == &y[0] || &x[0] == &whole[rd.off] {
					t.Fatalf("read(%d, %d) shares storage; want a private copy", rd.off, rd.n)
				}
			}

			// A full-block overwrite of the same length must publish a new
			// block, not rewrite the one already handed out.
			before := append([]byte(nil), whole...)
			fresh := bytes.Repeat([]byte{0x5a}, fstore.BlockSize)
			if err := c.Write(p, h, 0, fresh); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(whole, before) {
				t.Fatal("write changed the bytes of a block an earlier Read returned")
			}
			if mode == DX {
				// Let the write-behind cells land before reading back.
				p.Sleep(10 * time.Millisecond)
			}
			got, err := c.Read(p, h, 0, fstore.BlockSize)
			if err != nil || !bytes.Equal(got, fresh) {
				t.Fatalf("read-own-write failed (err %v)", err)
			}
		})
	})
}
