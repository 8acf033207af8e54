package shard

import (
	"bytes"
	"testing"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
)

// TestTokenCacheSharesSubClerkBlocks fills the token cache with a file's
// blocks (a whole one and an EOF-short one) and checks that each entry is
// the owning sub-clerk's cached block itself, not a second copy of it.
// Each block is checked right after its fill: filling a block under a
// token not yet held makes the sub-clerk forget the file's other blocks.
func TestTokenCacheSharesSubClerkBlocks(t *testing.T) {
	r := newSvcRig(t, 2, 1, dfs.DX, WithTokenCache())
	r.run(t, func(p *des.Proc) {
		_, hs := r.seedTree(t, 2)
		c := r.clerks[0]
		h := hs[0]
		want, err := r.svc.Store.Read(h, 0, 12*1024)
		if err != nil {
			t.Fatal(err)
		}
		s := c.owner(h)
		for block := int64(0); block < 2; block++ {
			off := block * fstore.BlockSize
			got, err := c.Read(p, h, off, fstore.BlockSize)
			if err != nil || !bytes.Equal(got, want[off:min(off+fstore.BlockSize, int64(len(want)))]) {
				t.Fatalf("block %d: read returned wrong bytes (err %v)", block, err)
			}
			cached, ok := c.cache[s][c.svc.Geo.DataBucket(h, block)][blockKey{h, block}]
			if !ok {
				t.Fatalf("block %d not in the token cache", block)
			}
			// A local hit: the sub-clerk hands back its cached block.
			sub, err := c.Sub(s).Read(p, h, off, fstore.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			if !cached.whole || &cached.b[0] != &sub[0] {
				t.Fatalf("block %d: the token cache holds its own copy of the sub-clerk's block", block)
			}
		}
	})
}
