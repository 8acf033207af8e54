package dfs

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/rmem"
)

// writeCase is one DX write into block 0 of a file.
type writeCase struct {
	name    string
	size    int  // file length
	warm    bool // the server's data cache holds the block
	in      int  // write offset within the block
	n       int  // write length
	whole   bool // the merged block is complete, so the clerk keeps it
	maxRead int  // record bytes the cold write may READ (recHdr + in), -1: miss path
}

var writeCases = []writeCase{
	{"head-of-8K", fstore.BlockSize, true, 0, 512, false, recHdr},
	{"mid-8K", fstore.BlockSize, true, 1000, 512, false, recHdr + 1000},
	{"tail-of-8K", fstore.BlockSize, true, fstore.BlockSize - 512, 512, true, recHdr + fstore.BlockSize - 512},
	{"hole-past-vlen", 3000, true, 5000, 512, true, recHdr + 5000},
	{"cold-bucket", fstore.BlockSize, false, 100, 512, false, -1},
}

// depositOnce runs one write through a fresh DX rig, with the clerk
// either holding the block already (read first) or not, and returns the
// server's data record for the block once the deposit has landed, the
// record's bytes as they were before, the bytes the server node sent
// during the write, and the clerk.
func depositOnce(t *testing.T, wc writeCase, cached bool) (rec, before []byte, sent int64, c *Clerk, h fstore.Handle) {
	t.Helper()
	r := newRig(t, 1, DX)
	content := make([]byte, wc.size)
	for i := range content {
		content[i] = byte(i*7 + 3)
	}
	h, err := r.server.Store.WriteFile("/w/file", content)
	if err != nil {
		t.Fatal(err)
	}
	if wc.warm {
		if err := r.server.WarmFile(h); err != nil {
			t.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte{0xa5}, wc.n)
	off := r.server.Geo.dataOff(h, 0)
	c = r.clerks[0]
	r.run(t, func(p *des.Proc) {
		if cached {
			if _, err := c.Read(p, h, 0, fstore.BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		before = append([]byte(nil), r.server.data.Bytes()[off:off+dataStride]...)
		writes := r.server.data.RemoteWrites
		sent0 := r.server.Node().BytesSent
		if err := c.Write(p, h, int64(wc.in), data); err != nil {
			t.Fatal(err)
		}
		sent = r.server.Node().BytesSent - sent0
		for r.server.data.RemoteWrites == writes {
			p.Sleep(10 * time.Microsecond)
		}
		rec = append([]byte(nil), r.server.data.Bytes()[off:off+dataStride]...)
	})
	return rec, before, sent, c, h
}

// TestColdWriteProbesHeaderAndPrefix pins the DX write path for a block
// the clerk does not hold: one remote read of the header plus the prefix
// the span rewrites (never the whole block), and a deposit byte-identical
// to the one a clerk holding the block makes — the same header length,
// the same span, and the record's tail past the span left as it was.
// Only a complete merged block is kept locally. A bucket holding another
// block falls back to the server procedure, which loads it.
func TestColdWriteProbesHeaderAndPrefix(t *testing.T) {
	for _, wc := range writeCases {
		t.Run(wc.name, func(t *testing.T) {
			want, _, _, _, _ := depositOnce(t, wc, true)
			got, before, sent, c, h := depositOnce(t, wc, false)
			if !bytes.Equal(got, want) {
				t.Fatalf("server record differs from the cached-block deposit")
			}
			span := wc.in + wc.n
			_, _, _, vlen := getHdr(got)
			if wantLen := max(min(wc.size, fstore.BlockSize), span); vlen != wantLen {
				t.Fatalf("header length %d, want %d", vlen, wantLen)
			}
			if wc.warm && !bytes.Equal(got[recHdr+span:], before[recHdr+span:]) {
				t.Fatal("the deposit changed the record past the span")
			}
			if wc.maxRead < 0 {
				if c.Misses != 1 {
					t.Fatalf("cold bucket: %d server procedures, want 1", c.Misses)
				}
			} else {
				if c.Misses != 0 || c.RemoteReads != 1 {
					t.Fatalf("%d remote reads and %d server procedures, want 1 and 0", c.RemoteReads, c.Misses)
				}
				if sent > int64(wc.maxRead+rmem.ReadReplyHdr) {
					t.Fatalf("the write read %d bytes from the server, want at most %d", sent, wc.maxRead+rmem.ReadReplyHdr)
				}
			}
			blk, kept := c.lData[blockKey{h, 0}]
			if kept != (wc.whole || wc.maxRead < 0) {
				t.Fatalf("clerk kept the block: %v, want %v", kept, !kept)
			}
			if kept && !bytes.Equal(blk, got[recHdr:recHdr+vlen]) {
				t.Fatal("the block the clerk kept differs from the server record")
			}
		})
	}
}
