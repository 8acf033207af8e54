package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// A bucket slot holds the poison word and the frame head, then the data
// record (header, then the block's bytes), then the tail word: slotRec is
// where the record starts and slotData where the block's bytes start.
const slotRec = dfs.ChainHeadOff + 8

var slotData = dfs.ChainFramePrefix(0)

// prefixRig is a one-shard service on node 0 with one token-caching clerk
// on node 1 and, when replicas is 1, a one-member chain on node 2.
type prefixRig struct {
	env   *des.Env
	cl    *cluster.Cluster
	svc   *Service
	c     *Clerk
	files map[string]fstore.Handle
}

func newPrefixRig(t *testing.T, replicas int, files map[string][]byte) *prefixRig {
	t.Helper()
	env := des.NewEnv()
	nodes := 2 + replicas
	cl := cluster.New(env, &model.Default, nodes)
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	r := &prefixRig{env: env, cl: cl, files: map[string]fstore.Handle{}}
	var setupErr error
	done := false
	env.Spawn("prefix.setup", func(p *des.Proc) {
		defer func() { done = true }()
		r.svc = NewService(p, mgrs[:1], nodes, dfs.Geometry{})
		r.c = NewClerk(p, mgrs[1], r.svc, dfs.DX, WithTokenCache())
		for name, content := range files {
			h, err := r.svc.Store.WriteFile("/export/"+name, content)
			if err != nil {
				setupErr = err
				return
			}
			if setupErr = r.svc.WarmFile(h); setupErr != nil {
				return
			}
			r.files[name] = h
		}
		if replicas > 0 {
			if setupErr = r.svc.AttachReplicas(p, 0, mgrs[2:], 100*time.Microsecond); setupErr != nil {
				return
			}
			r.svc.awaitChain(p, 0)
		}
	})
	if err := runSteps(env, time.Millisecond, time.Second, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return r
}

// run runs fn to completion; the chain daemons never idle, so the clock
// stops as soon as fn returns.
func (r *prefixRig) run(t *testing.T, fn func(p *des.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("prefix.test", func(p *des.Proc) {
		defer func() { done = true }()
		fn(p)
	})
	if err := runSteps(r.env, time.Millisecond, 10*time.Second, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixReadMovesOnlyPrefix reads 512 bytes of an 8 KB block through
// the token cache, from a chain member and from the primary: the serving
// node sends the header plus those bytes (and, from a member, the frame's
// words), not the block. The cached prefix serves a re-read of the same
// bytes, and a later whole-block read fetches again and returns all of it.
func TestPrefixReadMovesOnlyPrefix(t *testing.T) {
	for _, replicas := range []int{0, 1} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			content := patterned(12*1024, 3)
			r := newPrefixRig(t, replicas, map[string][]byte{"big": content})
			h := r.files["big"]
			server := r.cl.Nodes[0]
			bound := int64(dfs.ChainFramePrefix(512) - slotRec + rmem.ReadReplyHdr)
			if replicas > 0 {
				server = r.cl.Nodes[2]
				bound = int64(dfs.ChainFramePrefix(512) + 8 + 2*rmem.ReadReplyHdr)
			}
			r.run(t, func(p *des.Proc) {
				c := r.c
				read := func(off int64, n int) {
					t.Helper()
					got, err := c.Read(p, h, off, n)
					if err != nil || !bytes.Equal(got, content[off:off+int64(n)]) {
						t.Fatalf("read(%d, %d) returned wrong bytes (err %v)", off, n, err)
					}
				}
				// Take the read token first: the measured reads then move
				// only block bytes.
				read(0, 1)
				c.FlushLocal()
				c.DropTokenCache()
				fetches := func() int64 { return c.ReplicaReads + c.Stats().RemoteReads }
				sent, f0 := server.BytesSent, fetches()
				read(0, 512)
				if moved := server.BytesSent - sent; moved > bound {
					t.Fatalf("a 512 B read moved %d bytes from node %d, want at most %d", moved, server.ID, bound)
				}
				if fetches() != f0+1 {
					t.Fatalf("a 512 B read made %d fetches, want 1", fetches()-f0)
				}
				hits := c.TokenHits
				read(100, 412)
				if c.TokenHits != hits+1 || fetches() != f0+1 {
					t.Fatal("a re-read inside the cached prefix was not a token hit")
				}
				sent = server.BytesSent
				read(0, fstore.BlockSize)
				if fetches() != f0+2 || server.BytesSent-sent < fstore.BlockSize {
					t.Fatal("a whole-block read after a prefix read did not fetch the block")
				}
				if replicas > 0 && (c.ReplicaReads != 3 || c.ReplicaFallbacks != 0) {
					t.Fatalf("%d replica reads, %d fallbacks; want 3 and 0", c.ReplicaReads, c.ReplicaFallbacks)
				}
			})
		})
	}
}

// TestPrefixReadEOFShort reads short files through the token cache: a
// prefix of a longer block must not read as EOF, and a block shorter than
// a read is cached whole, so its short length is EOF for every later read.
func TestPrefixReadEOFShort(t *testing.T) {
	for _, replicas := range []int{0, 1} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			files := map[string][]byte{"700": patterned(700, 1), "300": patterned(300, 2)}
			r := newPrefixRig(t, replicas, files)
			r.run(t, func(p *des.Proc) {
				c := r.c
				read := func(name string, off int64, n int, fresh bool) {
					t.Helper()
					content := files[name]
					hits := c.TokenHits
					got, err := c.Read(p, r.files[name], off, n)
					want := content[min(off, int64(len(content))):min(off+int64(n), int64(len(content)))]
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: read(%d, %d) = %d bytes (err %v), want %d", name, off, n, len(got), err, len(want))
					}
					if hit := c.TokenHits > hits; hit == fresh {
						t.Fatalf("%s: read(%d, %d) token hit %v, want %v", name, off, n, hit, !fresh)
					}
				}
				read("700", 0, 512, true)
				read("700", 0, 1000, true) // the 512 B prefix is not EOF
				read("700", 0, fstore.BlockSize, false)
				read("700", 690, 100, false)
				read("300", 0, 512, true)
				read("300", 300, 10, false) // EOF
				read("300", 0, fstore.BlockSize, false)
			})
		})
	}
}

// TestTornFrameRefused puts a member's frame in the state a landing push
// leaves it in — head at the new version, tail still at the old one — and
// checks that neither a prefix read nor a whole-block read serves it: both
// fall back to the primary and return the right bytes.
func TestTornFrameRefused(t *testing.T) {
	content := patterned(fstore.BlockSize, 5)
	r := newPrefixRig(t, 1, map[string][]byte{"f": content})
	h := r.files["f"]
	r.run(t, func(p *des.Proc) {
		c := r.c
		if _, err := c.Read(p, h, 0, 1); err != nil || c.ReplicaReads != 1 {
			t.Fatalf("first read: err %v, %d replica reads", err, c.ReplicaReads)
		}
		// Rewind the member's tail word by one version, as a push that has
		// landed its head but not yet its tail would leave it.
		cr := r.svc.Replicas(0)[0]
		id, gen, size := cr.ChainSeg()
		imp := c.m.Import(p, cr.Node().ID, id, gen, size)
		tailOff := dfs.ChainFrameOff(r.svc.Geo.DataBucket(h, 0)) + dfs.ChainTailOff
		scratch := c.m.Export(p, 8)
		if err := imp.Read(p, tailOff, 8, scratch, 0, des.Duration(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		var old [8]byte
		binary.BigEndian.PutUint64(old[:], binary.BigEndian.Uint64(scratch.Bytes())-2)
		if err := imp.WriteBlock(p, tailOff, old[:], false); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
		for i, n := range []int{512, fstore.BlockSize} {
			c.FlushLocal()
			c.DropTokenCache()
			got, err := c.Read(p, h, 0, n)
			if err != nil || !bytes.Equal(got, content[:n]) {
				t.Fatalf("read of %d bytes returned wrong bytes (err %v)", n, err)
			}
			if c.ReplicaReads != 1 || c.ReplicaFallbacks != int64(i+1) {
				t.Fatalf("read of %d bytes: %d replica reads, %d fallbacks; want 1 and %d",
					n, c.ReplicaReads, c.ReplicaFallbacks, i+1)
			}
		}
	})
}

// TestPrefixReadSeqlock sweeps a replica read across a frame landing,
// with the reader starting 10 µs later on each run. A read may
// refuse the frame, but every frame it accepts must be one version
// throughout, and the sweep must accept both the old and the new version.
// The cases cover a prefix read in one READ, and reads a reliable import
// moves in pieces (a prefix longer than one piece, and a whole block)
// against a frame landing in one write or, as chain pushes do, in
// reliable pieces. Reading the tail after the prefix, or not at all, or
// not re-reading the head after a read in pieces, breaks this.
func TestPrefixReadSeqlock(t *testing.T) {
	h := fstore.Handle{Ino: 9, Gen: 1}
	frame := func(v uint64) []byte {
		f := make([]byte, dfs.ChainFrameLen)
		binary.BigEndian.PutUint64(f[dfs.ChainHeadOff:], v)
		rec := f[slotRec:]
		binary.BigEndian.PutUint32(rec, 1) // valid
		binary.BigEndian.PutUint64(rec[4:], h.U64())
		binary.BigEndian.PutUint32(rec[16:], fstore.BlockSize)
		for i := slotData; i < slotData+fstore.BlockSize; i++ {
			f[i] = byte(v) ^ byte(i)
		}
		binary.BigEndian.PutUint64(f[dfs.ChainTailOff:], v)
		return f
	}
	v1, v2 := frame(2), frame(4)
	for _, tc := range []struct {
		name  string
		need  int
		relRd bool         // the reader's import is reliable: long READs move in pieces
		cut   int          // record bytes the landing's first write carries; 0: one write
		relWr bool         // the landing goes through a reliable import, in pieces
		lead  des.Duration // how long before the landing the sweep starts
	}{
		{"prefix", 2000, false, 1000, false, 0},
		{"prefix-pieces-one-write", 4000, true, 0, false, des.Duration(3 * time.Millisecond)},
		{"prefix-pieces-reliable-push", 4000, true, 0, true, des.Duration(3 * time.Millisecond)},
		{"block-pieces-reliable-push", fstore.BlockSize, true, 0, true, des.Duration(3 * time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[uint64][]byte{2: v1[slotData : slotData+tc.need], 4: v2[slotData : slotData+tc.need]}
			cut := len(v2)
			if tc.cut > 0 {
				cut = slotData + tc.cut
			}

			// run places v1, then writes v2 at 8 ms; a reader starting at
			// 8 ms + delay reads the frame. landed reports when the member
			// saw v2's tail; without a reader the writer runs alone.
			run := func(delay des.Duration, reader bool) (accepted uint64, landed des.Time) {
				env := des.NewEnv()
				cl := cluster.New(env, &model.Default, 3)
				mgrs := []*rmem.Manager{rmem.NewManager(cl.Nodes[0]), rmem.NewManager(cl.Nodes[1]), rmem.NewManager(cl.Nodes[2])}
				var seg *rmem.Segment
				var w, rd *rmem.Import
				var dst *rmem.Segment
				env.Spawn("setup", func(p *des.Proc) {
					seg = mgrs[0].Export(p, dfs.ChainFrameOff(0)+dfs.ChainFrameLen)
					seg.SetDefaultRights(rmem.RightRead | rmem.RightWrite)
					w = mgrs[1].Import(p, 0, seg.ID(), seg.Gen(), seg.Size())
					w.SetReliable(tc.relWr)
					rd = mgrs[2].Import(p, 0, seg.ID(), seg.Gen(), seg.Size())
					rd.SetReliable(tc.relRd)
					dst = mgrs[2].Export(p, dfs.ChainFrameLen)
					copy(seg.Bytes()[dfs.ChainFrameOff(0):], v1)
				})
				start := des.Time(8 * time.Millisecond)
				env.Spawn("writer", func(p *des.Proc) {
					p.Sleep(time.Duration(start.Sub(p.Now())))
					_ = w.WriteBlock(p, dfs.ChainFrameOff(0), v2[:cut], false)
					if cut < len(v2) {
						_ = w.WriteBlock(p, dfs.ChainFrameOff(0)+cut, v2[cut:], false)
					}
				})
				if !reader {
					env.Spawn("watch", func(p *des.Proc) {
						p.Sleep(time.Duration(start.Sub(p.Now())))
						for binary.BigEndian.Uint64(seg.Bytes()[dfs.ChainFrameOff(0)+dfs.ChainTailOff:]) != 4 {
							p.Sleep(time.Microsecond)
						}
						landed = p.Now()
					})
				} else {
					env.Spawn("reader", func(p *des.Proc) {
						p.Sleep(time.Duration(start.Add(delay).Sub(p.Now())))
						if err := readFrame(p, rd, 0, tc.need, dst, des.Duration(10*time.Millisecond)); err != nil {
							return
						}
						blk, ver, ok := dfs.ParseChainFrame(dst.Bytes(), h, 0, 0, tc.need)
						if !ok {
							return
						}
						if !bytes.Equal(blk, want[ver]) {
							t.Errorf("reader at +%v accepted a torn frame (version %d)", time.Duration(delay), ver)
						}
						accepted = ver
					})
				}
				if err := env.RunUntil(des.Time(40 * time.Millisecond)); err != nil {
					t.Fatal(err)
				}
				return accepted, landed
			}
			_, landed := run(0, false)
			if landed == 0 {
				t.Fatal("the second version never landed")
			}
			seen := map[uint64]int{}
			end := des.Duration(landed.Sub(des.Time(8*time.Millisecond))) + des.Duration(200*time.Microsecond)
			for d := -tc.lead; d <= end && !t.Failed(); d += des.Duration(10 * time.Microsecond) {
				v, _ := run(d, true)
				seen[v]++
			}
			if seen[2] == 0 || seen[4] == 0 {
				t.Fatalf("accepted versions %v over the sweep; want both 2 and 4", seen)
			}
			t.Logf("over %v of start times: %v (0 = refused)", time.Duration(tc.lead+end), seen)
		})
	}
}
