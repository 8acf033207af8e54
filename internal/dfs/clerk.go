package dfs

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/hybrid"
	"netmem/internal/rmem"
)

// Mode selects the clerk↔server structure under comparison (§5.2).
type Mode int

const (
	// DX is the paper's proposed structure: pure data transfer. The clerk
	// probes the server's cache areas with remote reads and pushes file
	// writes with remote writes; the server process runs only on a cache
	// miss or a metadata mutation.
	DX Mode = iota
	// HY is Hybrid-1: every operation is a write-with-notification
	// request answered by return writes — an RPC in remote-memory
	// clothing, costing a server control transfer per call.
	HY
)

func (m Mode) String() string {
	if m == DX {
		return "DX"
	}
	return "HY"
}

// Clerk is the per-client-machine agent of the file service. Clients talk
// to it with local RPC (whose cost Figure 2 neglects — "we also neglect
// the communication cost between client and clerk"); the clerk talks to
// the server with pure data transfer (DX) or Hybrid-1 (HY). Clerk and
// server trust each other; both are parts of the one file service.
type Clerk struct {
	m      *rmem.Manager
	Mode   Mode
	server int
	geo    Geometry

	attr, name, link, data, dir, token *rmem.Import
	scratch                            *rmem.Segment // deposit target for probes
	barrier                            *rmem.Segment // deposit target for DepositBarrier, lazily created
	push                               *rmem.Segment // eager-update board (§3.2), nil unless enabled
	hcli                               *hybrid.Client

	// Local (client-side) caches: the clerk caches what it has fetched so
	// repeated client requests are satisfied on the client machine.
	lAttr map[fstore.Handle]fstore.Attr
	lName map[string]lookupHit
	lLink map[fstore.Handle]string
	lData map[blockKey][]byte
	lDir  map[blockKey][]byte

	// CallTimeout bounds one request-channel exchange. Zero (the default)
	// does not mean wait-forever: callTimeout derives a bound from the
	// model's retry policy, so a crashed server can never hang a clerk.
	CallTimeout time.Duration

	// rel/fenced record the wiring options so a Rebind after failover
	// re-imports the new server incarnation's areas identically.
	rel    bool
	fenced bool

	// Observability: trace track and metric-name prefix, fixed at
	// construction ("node1.clerk", "dfs.dx.").
	obsTrack  string
	obsPrefix string

	// Read-ahead state (EnableReadAhead).
	readAhead bool
	lastRead  map[fstore.Handle]int64
	pf        *prefetchState
	pfBuf     *rmem.Segment

	// Stats.
	LocalHits    int64
	RemoteReads  int64
	RemoteWrites int64
	Misses       int64 // control transfers to the server procedure
	PushHits     int64 // attributes found on the eager-update board
	PrefetchHits int64 // blocks served from a completed read-ahead
	Rebinds      int64 // re-wirings to a new server incarnation
}

type lookupHit struct {
	h fstore.Handle
	a fstore.Attr
}

type blockKey struct {
	h     fstore.Handle
	block int64
}

func dirNameKey(dir fstore.Handle, name string) string {
	return fmt.Sprintf("%d.%d/%s", dir.Ino, dir.Gen, name)
}

// NewClerk wires a clerk on m's node to the server. The clerk imports the
// server's cache areas and opens a Hybrid-1 channel for misses (DX) or
// for everything (HY).
func NewClerk(p *des.Proc, m *rmem.Manager, srv *Server, mode Mode, opts ...ClerkOption) *Clerk {
	var o clerkOptions
	for _, opt := range opts {
		opt(&o)
	}
	c := &Clerk{
		m:         m,
		Mode:      mode,
		server:    srv.Node().ID,
		geo:       srv.Geo,
		obsTrack:  fmt.Sprintf("node%d.clerk", m.Node.ID),
		obsPrefix: "dfs." + strings.ToLower(mode.String()) + ".",
	}
	c.rel = o.reliable
	c.fenced = o.fenced
	c.wireAreas(p, srv)
	c.FlushLocal()
	return c
}

// Reliable reports whether the clerk was wired with the retransmitting
// transport — callers building side-channel imports on the clerk's behalf
// (replica frame reads) should match it, or a lossy fabric turns every
// chain fetch into a full client timeout.
func (c *Clerk) Reliable() bool { return c.rel }

// wireAreas installs the clerk's descriptors against srv: the six cache
// areas, the Hybrid-1 request channel, and the reply-segment handshake.
// Called at construction and again by Rebind after a failover.
func (c *Clerk) wireAreas(p *des.Proc, srv *Server) {
	m := c.m
	areas := srv.Areas()
	epoch := srv.Epoch()
	imp := func(a [3]int) *rmem.Import {
		i := m.Import(p, c.server, uint16(a[0]), uint16(a[1]), a[2])
		if c.rel {
			i.SetReliable(true)
		}
		if c.fenced {
			i.SetFence(true)
			i.SetEpoch(epoch)
		}
		return i
	}
	c.attr, c.name, c.link = imp(areas[0]), imp(areas[1]), imp(areas[2])
	c.data, c.dir, c.token = imp(areas[3]), imp(areas[4]), imp(areas[5])
	if c.scratch == nil {
		c.scratch = m.Export(p, dataStride+recHdr)
	}
	id, gen, size := srv.ReqChannel()
	c.hcli = hybrid.NewClient(p, m, c.server, id, gen, size, reqSlotCap, fstore.BlockSize+256)
	if c.rel {
		c.hcli.SetReliable(true)
	}
	if c.fenced {
		c.hcli.SetFence(true, epoch)
	}
	cid, cgen, csize := c.hcli.RepSeg()
	srv.AttachClerk(p, m.Node.ID, cid, cgen, csize)
}

// Rebind re-wires the clerk to a new server incarnation after a failover:
// fresh imports of the promoted chain member's re-exported cache areas
// (new descriptor ids, generations, and epoch) and a fresh Hybrid-1
// channel. Local caches survive: their contents were read coherently and
// remain valid.
// Eager-attribute subscriptions and an in-flight prefetch do not carry
// over; re-enable them against the new server if wanted.
func (c *Clerk) Rebind(p *des.Proc, srv *Server) {
	c.server = srv.Node().ID
	c.geo = srv.Geo
	c.pf = nil
	c.push = nil
	c.wireAreas(p, srv)
	c.Rebinds++
	if tr := c.m.Node.Env.Tracer(); tr != nil {
		tr.Count("dfs.clerk.rebinds", 1)
	}
}

// callTimeout bounds one remote exchange. A zero CallTimeout used to mean
// wait-forever — a crashed server would wedge the clerk permanently in the
// Hybrid-1 spin wait — so zero now derives a bound from the model's retry
// policy: enough for a reliable sender to run its whole schedule (base
// model.RetryTimeout doubling up to RetryBackoffMax, RetryLimit times)
// before the clerk gives up.
func (c *Clerk) callTimeout() time.Duration {
	if c.CallTimeout > 0 {
		return c.CallTimeout
	}
	pp := c.m.Node.P
	return time.Duration(pp.RetryLimit+1) * pp.RetryBackoffMax
}

// EffectiveCallTimeout is the bound callTimeout derives (the verified mix
// polls deposit counters against the same deadline the clerk itself uses).
func (c *Clerk) EffectiveCallTimeout() time.Duration { return c.callTimeout() }

// FlushLocal drops the clerk's client-side caches (between experiment
// iterations, so each measured operation exercises the clerk↔server path).
func (c *Clerk) FlushLocal() {
	c.lAttr = make(map[fstore.Handle]fstore.Attr)
	c.lName = make(map[string]lookupHit)
	c.lLink = make(map[fstore.Handle]string)
	c.lData = make(map[blockKey][]byte)
	c.lDir = make(map[blockKey][]byte)
	c.lastRead = make(map[fstore.Handle]int64)
}

// call routes a request over the Hybrid-1 channel (every HY operation;
// DX misses and mutations).
func (c *Clerk) call(p *des.Proc, req *request) ([]byte, error) {
	c.Misses++
	rep, err := c.hcli.Call(p, req.encode(), c.callTimeout())
	if err != nil {
		return nil, err
	}
	return parseReply(rep)
}

// DepositBarrier proves every data-area frame this clerk sent to the
// server before the call has been deposited. A minimal remote read of the
// data area travels the same node-to-node path as the clerk's deposit
// frames; cells are FIFO per path and the receiver drains them in arrival
// order, so the reply returns only after every earlier frame has landed.
// Unlike Null it shares no call state with the Hybrid-1 channel and uses
// its own scratch segment — a membership cutover runs it from the
// coordinator's proc while the clerk's owner may have an operation (and a
// probe into the shared scratch) in flight.
func (c *Clerk) DepositBarrier(p *des.Proc) error {
	if c.Mode != DX || c.data == nil {
		return nil // all writes were synchronous procedures; nothing in flight
	}
	if c.barrier == nil {
		c.barrier = c.m.Export(p, 4)
	}
	return c.data.Read(p, 0, 4, c.barrier, 0, c.callTimeout())
}

// probe performs one remote read of n bytes at off within area, deposited
// into the clerk's scratch segment, and returns the bytes.
func (c *Clerk) probe(p *des.Proc, area *rmem.Import, off, n int) ([]byte, error) {
	c.RemoteReads++
	if err := area.Read(p, off, n, c.scratch, 0, c.callTimeout()); err != nil {
		return nil, err
	}
	return c.scratch.Bytes()[:n], nil
}

// obsOp starts one clerk-operation measurement. The returned func (run via
// defer) records the operation's latency into the mode-qualified histogram
// (e.g. "dfs.dx.read") and bumps its call counter; with event tracing on it
// also emits a span on the clerk's track.
func (c *Clerk) obsOp(op Op) func() {
	env := c.m.Node.Env
	tr := env.Tracer()
	if tr == nil {
		return func() {}
	}
	start := env.Now()
	return func() {
		name := c.obsPrefix + op.String()
		d := env.Now().Sub(start)
		tr.Count(name+".count", 1)
		tr.Observe(name, d)
		if tr.EventsEnabled() {
			tr.Span(c.obsTrack, "dfs", op.String(), time.Duration(start), d)
		}
	}
}

// ---------------------------------------------------------------------------
// Operations. Each has the same client-visible semantics in both modes.

// Null is the NFS null ping.
func (c *Clerk) Null(p *des.Proc) error {
	defer c.obsOp(OpNull)()
	_, err := c.call(p, &request{Op: OpNull})
	return err
}

// GetAttr returns a file's attributes.
func (c *Clerk) GetAttr(p *des.Proc, h fstore.Handle) (fstore.Attr, error) {
	defer c.obsOp(OpGetAttr)()
	if a, ok := c.lAttr[h]; ok {
		c.LocalHits++
		return a, nil
	}
	if a, ok := c.checkPushBoard(p, h); ok {
		c.lAttr[h] = a
		return a, nil
	}
	if c.Mode == DX {
		buf, err := c.probe(p, c.attr, c.geo.attrOff(h), attrRec)
		if err == nil {
			if flag, key, _, _ := getHdr(buf); flag != flagEmpty && key == h {
				a := unpackAttr(buf[recHdr:])
				c.lAttr[h] = a
				return a, nil
			}
		}
		// Fall through to the miss channel.
	}
	rep, err := c.call(p, &request{Op: OpGetAttr, Handle: h})
	if err != nil {
		return fstore.Attr{}, err
	}
	if len(rep) < attrLen {
		return fstore.Attr{}, ErrBadReply
	}
	a := unpackAttr(rep)
	c.lAttr[h] = a
	return a, nil
}

// SetAttr updates attributes (always a server procedure: it mutates).
func (c *Clerk) SetAttr(p *des.Proc, h fstore.Handle, mode uint16, size int64) (fstore.Attr, error) {
	defer c.obsOp(OpSetAttr)()
	rep, err := c.call(p, &request{Op: OpSetAttr, Handle: h, Mode: mode, Size: size})
	if err != nil {
		return fstore.Attr{}, err
	}
	if len(rep) < attrLen {
		return fstore.Attr{}, ErrBadReply
	}
	a := unpackAttr(rep)
	c.lAttr[h] = a
	// Truncation/extension invalidates every cached block of the file.
	for bk := range c.lData {
		if bk.h == h {
			delete(c.lData, bk)
		}
	}
	return a, nil
}

// Lookup resolves name in dir, returning the child handle and attributes.
func (c *Clerk) Lookup(p *des.Proc, dir fstore.Handle, name string) (fstore.Handle, fstore.Attr, error) {
	defer c.obsOp(OpLookup)()
	k := dirNameKey(dir, name)
	if hit, ok := c.lName[k]; ok {
		c.LocalHits++
		return hit.h, hit.a, nil
	}
	if c.Mode == DX && len(name) <= 20 {
		buf, err := c.probe(p, c.name, c.geo.nameOff(dir, name), nameRec)
		if err == nil {
			flag, key, sub, _ := getHdr(buf)
			if flag != flagEmpty && key == dir && sub == nameKeyHash(name) {
				nb := buf[recHdr:]
				stored := nb[:20]
				match := true
				for i := 0; i < 20; i++ {
					want := byte(0)
					if i < len(name) {
						want = name[i]
					}
					if stored[i] != want {
						match = false
						break
					}
				}
				if match {
					child := fstore.HandleFromU64(binary.BigEndian.Uint64(nb[20:]))
					a := unpackAttr(nb[28:])
					c.lName[k] = lookupHit{child, a}
					c.lAttr[child] = a
					return child, a, nil
				}
			}
		}
	}
	rep, err := c.call(p, &request{Op: OpLookup, Dir: dir, Name: name})
	if err != nil {
		return fstore.Handle{}, fstore.Attr{}, err
	}
	if len(rep) < 8+attrLen {
		return fstore.Handle{}, fstore.Attr{}, ErrBadReply
	}
	child := fstore.HandleFromU64(binary.BigEndian.Uint64(rep))
	a := unpackAttr(rep[8:])
	c.lName[k] = lookupHit{child, a}
	c.lAttr[child] = a
	return child, a, nil
}

// ReadLink returns a symlink's target.
func (c *Clerk) ReadLink(p *des.Proc, h fstore.Handle) (string, error) {
	defer c.obsOp(OpReadLink)()
	if t, ok := c.lLink[h]; ok {
		c.LocalHits++
		return t, nil
	}
	if c.Mode == DX {
		buf, err := c.probe(p, c.link, c.geo.linkOff(h), linkRec)
		if err == nil {
			if flag, key, _, n := getHdr(buf); flag != flagEmpty && key == h && n <= 64 {
				t := string(buf[recHdr : recHdr+n])
				c.lLink[h] = t
				return t, nil
			}
		}
	}
	rep, err := c.call(p, &request{Op: OpReadLink, Handle: h})
	if err != nil {
		return "", err
	}
	t := string(rep)
	c.lLink[h] = t
	return t, nil
}

// readBlock fetches one cached file block (DX: remote read of the data
// area; miss or HY: server procedure). Returns the block's valid bytes.
func (c *Clerk) readBlock(p *des.Proc, h fstore.Handle, block int64, need int) ([]byte, error) {
	bk := blockKey{h, block}
	if b, ok := c.lData[bk]; ok {
		c.LocalHits++
		return b, nil
	}
	if blk, ok := c.takePrefetch(p, bk); ok {
		c.lData[bk] = blk
		c.noteSequential(p, h, block)
		return blk, nil
	}
	if c.Mode == DX {
		// One contiguous remote read: header plus the needed prefix of
		// the block (§5.2's "one (or more) remote reads to fetch a block
		// of data or metadata" with flag-word validity check).
		n := min(need, fstore.BlockSize)
		if rec, vlen, ok := c.probeData(p, h, block, n); ok {
			avail := min(vlen, n)
			blk := append([]byte(nil), rec[:avail]...)
			if avail == vlen {
				c.lData[bk] = blk
			}
			c.noteSequential(p, h, block)
			return blk, nil
		}
	}
	return c.callBlock(p, h, block, need)
}

// probeData is the DX fetch of one data record: a single remote read of
// the header plus the record's first n bytes. It reports false when the
// read fails or the bucket holds something other than (h, block);
// otherwise it returns the n record bytes (those past vlen are not the
// block's) and the header's valid length. The bytes live in the clerk's
// probe scratch, which the next probe overwrites.
func (c *Clerk) probeData(p *des.Proc, h fstore.Handle, block int64, n int) (rec []byte, vlen int, ok bool) {
	buf, err := c.probe(p, c.data, c.geo.dataOff(h, block), recHdr+n)
	if err != nil {
		return nil, 0, false
	}
	flag, key, sub, vlen := getHdr(buf)
	if flag == flagEmpty || key != h || int64(sub) != block {
		return nil, 0, false
	}
	return buf[recHdr:], vlen, true
}

// callBlock fetches one block through the server procedure, which also
// loads it into the server's data cache.
func (c *Clerk) callBlock(p *des.Proc, h fstore.Handle, block int64, need int) ([]byte, error) {
	// Request exactly what the client asked for (NFS transfers are sized
	// by the caller); only a full-block fetch is cacheable as the block.
	count := min(need, fstore.BlockSize)
	rep, err := c.call(p, &request{Op: OpRead, Handle: h,
		Offset: block * fstore.BlockSize, Count: int32(count)})
	if err != nil {
		return nil, err
	}
	blk := append([]byte(nil), rep...)
	if count == fstore.BlockSize || len(blk) < count {
		// Full block (or EOF-short): safe to cache.
		c.lData[blockKey{h, block}] = blk
	}
	return blk, nil
}

// Read returns up to count bytes at offset. A read of exactly one whole
// block (offset a multiple of fstore.BlockSize, count fstore.BlockSize)
// returns the block itself, which may be shared with the clerk's cache:
// the caller must not modify it. Cached blocks are never written in place,
// so the bytes stay as returned. Any other read returns a private copy.
func (c *Clerk) Read(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error) {
	defer c.obsOp(OpRead)()
	if offset < 0 || count < 0 {
		return nil, fstore.ErrBadOffset
	}
	if count == fstore.BlockSize && offset%fstore.BlockSize == 0 {
		blk, err := c.readBlock(p, h, offset/fstore.BlockSize, count)
		if err != nil || len(blk) == 0 {
			return nil, err
		}
		return blk[:len(blk):len(blk)], nil
	}
	var out []byte
	for count > 0 {
		block := offset / fstore.BlockSize
		in := int(offset % fstore.BlockSize)
		want := count
		if in+want > fstore.BlockSize {
			want = fstore.BlockSize - in
		}
		blk, err := c.readBlock(p, h, block, in+want)
		if err != nil {
			return out, err
		}
		if in >= len(blk) {
			break // EOF
		}
		hi := in + want
		if hi > len(blk) {
			hi = len(blk)
		}
		out = append(out, blk[in:hi]...)
		if hi < in+want {
			break // short block = EOF
		}
		offset += int64(want)
		count -= want
	}
	return out, nil
}

// Write stores data at offset. In DX mode the clerk pushes the block
// straight into the server's data cache with a remote write (no server
// process involvement); the server applies dirty blocks on Sync. In HY
// mode it is a request/response like everything else.
func (c *Clerk) Write(p *des.Proc, h fstore.Handle, offset int64, data []byte) error {
	defer c.obsOp(OpWrite)()
	if c.Mode == HY {
		// NFS-style 8K maximum transfer per request. The clerk's own
		// cached copies of the touched blocks (and the file's attributes)
		// go stale and are dropped.
		for len(data) > 0 {
			n := len(data)
			if n > fstore.BlockSize {
				n = fstore.BlockSize
			}
			rep, err := c.call(p, &request{Op: OpWrite, Handle: h, Offset: offset, Data: data[:n]})
			if err != nil {
				return err
			}
			for b := offset / fstore.BlockSize; b*fstore.BlockSize < offset+int64(n); b++ {
				delete(c.lData, blockKey{h, b})
			}
			if len(rep) >= attrLen {
				c.lAttr[h] = unpackAttr(rep)
			} else {
				delete(c.lAttr, h)
			}
			offset += int64(n)
			data = data[n:]
		}
		return nil
	}
	for len(data) > 0 {
		block := offset / fstore.BlockSize
		in := int(offset % fstore.BlockSize)
		n := len(data)
		if in+n > fstore.BlockSize {
			n = fstore.BlockSize - in
		}
		if err := c.writeBlock(p, h, block, in, data[:n]); err != nil {
			return err
		}
		offset += int64(n)
		data = data[n:]
	}
	return nil
}

// writeBlock deposits data at byte in of one block with a single remote
// write: the header (dirty, length max(vlen, span)) and the record from
// its start through the last written byte, span = in+len(data). The
// record's tail past span keeps its bytes on the server. The old prefix
// [0, in) that the span rewrites comes from the local copy, or from an
// outstanding read-ahead of the block, when there is one. Otherwise one
// remote read of the header plus that prefix both proves the server
// bucket holds this block (in a shared deployment the CAS write token is
// taken before this — see AcquireToken) and supplies the bytes; only a bucket holding something else takes the server
// procedure, which loads the block.
func (c *Clerk) writeBlock(p *des.Proc, h fstore.Handle, block int64, in int, data []byte) error {
	bk := blockKey{h, block}
	span := in + len(data)
	buf := make([]byte, recHdr+span)
	body := buf[recHdr:]
	old, whole := c.lData[bk]
	if !whole {
		// An outstanding read-ahead of this block holds its pre-write
		// bytes: consume it as the local copy, or a later read would.
		old, whole = c.takePrefetch(p, bk)
	}
	vlen := len(old)
	if !whole {
		rec, n, ok := c.probeData(p, h, block, in)
		if ok {
			vlen = min(n, fstore.BlockSize)
			copy(body[:in], rec[:min(in, vlen)]) // a hole past vlen stays zero
		} else {
			var err error
			if old, err = c.callBlock(p, h, block, fstore.BlockSize); err != nil {
				return err
			}
			whole, vlen = true, len(old)
		}
	}
	if whole {
		copy(body[:in], old)
	}
	copy(body[in:], data)
	size := max(vlen, span)
	putHdr(buf, flagDirty, h, uint32(block), size)
	c.RemoteWrites++
	if err := c.data.WriteBlock(p, c.geo.dataOff(h, block), buf, false); err != nil {
		return err
	}
	// A published block is immutable (Read may have handed it out), so
	// the merged block is always a fresh one. It is kept only when its
	// every byte is known: from the local copy, or because the span
	// covers the whole record.
	switch {
	case whole:
		merged := make([]byte, size)
		copy(merged, old)
		copy(merged, body)
		c.lData[bk] = merged
	case span >= vlen:
		c.lData[bk] = body[:span:span]
	}
	if a, ok := c.lAttr[h]; ok {
		if end := block*fstore.BlockSize + int64(size); end > a.Size {
			a.Size = end
			c.lAttr[h] = a
		}
	}
	return nil
}

// ReadDir returns up to count bytes of the serialized directory stream
// starting at offset (parse with ParseDir).
func (c *Clerk) ReadDir(p *des.Proc, h fstore.Handle, offset int64, count int) ([]byte, error) {
	defer c.obsOp(OpReadDir)()
	if c.Mode == DX {
		var out []byte
		remaining := count
		off := offset
		for remaining > 0 {
			chunk := off / fstore.BlockSize
			in := int(off % fstore.BlockSize)
			want := remaining
			if in+want > fstore.BlockSize {
				want = fstore.BlockSize - in
			}
			bk := blockKey{h, chunk}
			blk, ok := c.lDir[bk]
			if !ok {
				n := recHdr + in + want
				buf, err := c.probe(p, c.dir, c.geo.dirOff(h, chunk), n)
				if err != nil {
					return nil, err
				}
				flag, key, sub, vlen := getHdr(buf)
				if flag == flagEmpty || key != h || int64(sub) != chunk {
					goto miss
				}
				avail := vlen
				if avail > n-recHdr {
					avail = n - recHdr
				}
				blk = append([]byte(nil), buf[recHdr:recHdr+avail]...)
				if avail == vlen {
					c.lDir[bk] = blk
				}
			} else {
				c.LocalHits++
			}
			if in >= len(blk) {
				break
			}
			hi := in + want
			if hi > len(blk) {
				hi = len(blk)
			}
			out = append(out, blk[in:hi]...)
			if hi < in+want {
				break
			}
			off += int64(want)
			remaining -= want
		}
		return out, nil
	}
miss:
	rep, err := c.call(p, &request{Op: OpReadDir, Handle: h, Offset: offset, Count: int32(count)})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Create, Mkdir, Symlink, Remove, Rename, StatFS are metadata mutations
// (or whole-store queries); both modes route them through the server
// procedure, invalidating affected local cache entries.

func (c *Clerk) Create(p *des.Proc, dir fstore.Handle, name string, mode uint16) (fstore.Handle, fstore.Attr, error) {
	return c.mknod(p, &request{Op: OpCreate, Dir: dir, Name: name, Mode: mode})
}

func (c *Clerk) Mkdir(p *des.Proc, dir fstore.Handle, name string, mode uint16) (fstore.Handle, fstore.Attr, error) {
	return c.mknod(p, &request{Op: OpMkdir, Dir: dir, Name: name, Mode: mode})
}

func (c *Clerk) Symlink(p *des.Proc, dir fstore.Handle, name, target string) (fstore.Handle, fstore.Attr, error) {
	return c.mknod(p, &request{Op: OpSymlink, Dir: dir, Name: name, Target: target})
}

func (c *Clerk) mknod(p *des.Proc, req *request) (fstore.Handle, fstore.Attr, error) {
	defer c.obsOp(req.Op)()
	rep, err := c.call(p, req)
	if err != nil {
		return fstore.Handle{}, fstore.Attr{}, err
	}
	if len(rep) < 8+attrLen {
		return fstore.Handle{}, fstore.Attr{}, ErrBadReply
	}
	child := fstore.HandleFromU64(binary.BigEndian.Uint64(rep))
	a := unpackAttr(rep[8:])
	c.invalidateDir(req.Dir)
	c.lName[dirNameKey(req.Dir, req.Name)] = lookupHit{child, a}
	c.lAttr[child] = a
	return child, a, nil
}

func (c *Clerk) Remove(p *des.Proc, dir fstore.Handle, name string) error {
	defer c.obsOp(OpRemove)()
	k := dirNameKey(dir, name)
	if hit, ok := c.lName[k]; ok {
		delete(c.lAttr, hit.h)
		delete(c.lLink, hit.h)
	}
	delete(c.lName, k)
	c.invalidateDir(dir)
	_, err := c.call(p, &request{Op: OpRemove, Dir: dir, Name: name})
	return err
}

func (c *Clerk) Rename(p *des.Proc, fromDir fstore.Handle, fromName string, toDir fstore.Handle, toName string) error {
	defer c.obsOp(OpRename)()
	delete(c.lName, dirNameKey(fromDir, fromName))
	c.invalidateDir(fromDir)
	c.invalidateDir(toDir)
	_, err := c.call(p, &request{Op: OpRename, Dir: fromDir, Name: fromName, Handle: toDir, Target: toName})
	return err
}

func (c *Clerk) invalidateDir(dir fstore.Handle) {
	for bk := range c.lDir {
		if bk.h == dir {
			delete(c.lDir, bk)
		}
	}
	delete(c.lAttr, dir)
}

// StatFS returns store-wide statistics.
func (c *Clerk) StatFS(p *des.Proc) (fstore.FSStat, error) {
	defer c.obsOp(OpStatFS)()
	rep, err := c.call(p, &request{Op: OpStatFS})
	if err != nil {
		return fstore.FSStat{}, err
	}
	if len(rep) < 20 {
		return fstore.FSStat{}, ErrBadReply
	}
	return fstore.FSStat{
		Files:       int(binary.BigEndian.Uint32(rep)),
		BytesUsed:   int64(binary.BigEndian.Uint64(rep[4:])),
		BytesStored: int64(binary.BigEndian.Uint64(rep[12:])),
	}, nil
}

// ---------------------------------------------------------------------------
// Write tokens (§5.1): in deployments where several clerks write-share
// files, a clerk takes a per-bucket token with the CAS primitive before
// pushing data — "token acquire and release can be implemented using
// compare-and-swap operations". The experiments' single-writer workloads
// do not need them, but the primitive is available and tested.

// AcquireToken spins until this clerk owns the write token for the data
// bucket of (h, block). Returns an error only on communication failure.
func (c *Clerk) AcquireToken(p *des.Proc, h fstore.Handle, block int64) error {
	off := c.geo.dataBucket(h, block) * tokenStride
	me := uint32(c.m.Node.ID + 1)
	for {
		ok, err := c.token.CAS(p, off, 0, me, c.scratch, 0, c.callTimeout())
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		p.Sleep(50 * time.Microsecond)
	}
}

// ReleaseToken gives the token back.
func (c *Clerk) ReleaseToken(p *des.Proc, h fstore.Handle, block int64) error {
	off := c.geo.dataBucket(h, block) * tokenStride
	me := uint32(c.m.Node.ID + 1)
	ok, err := c.token.CAS(p, off, me, 0, c.scratch, 0, c.callTimeout())
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("dfs: released a token we did not hold")
	}
	return nil
}

// Node returns the clerk's node, for accounting.
func (c *Clerk) Node() *cluster.Node { return c.m.Node }

// ---------------------------------------------------------------------------
// Coherence repairs. A sharded deployment (internal/shard) executes a
// namespace mutation on the shard owning the source directory; cache areas
// on *other* shards can then hold stale records for the objects the
// mutation touched. These helpers force the server procedure to reload (or
// drop, via the error-path dropAttr/dropName in execute) the affected
// records, bypassing both the local cache and the DX probe fast path.

// Refresh reloads h's attribute record through the server procedure. An
// error (e.g. the handle was removed) still repairs the server cache: the
// server drops the stale record before failing.
func (c *Clerk) Refresh(p *des.Proc, h fstore.Handle) error {
	delete(c.lAttr, h)
	rep, err := c.call(p, &request{Op: OpGetAttr, Handle: h})
	if err != nil {
		return err
	}
	if len(rep) >= attrLen {
		c.lAttr[h] = unpackAttr(rep)
	}
	return nil
}

// RefreshDir re-serializes dir through the server procedure, replacing
// every cached directory chunk on the server and dropping ours.
func (c *Clerk) RefreshDir(p *des.Proc, dir fstore.Handle) error {
	c.invalidateDir(dir)
	_, err := c.call(p, &request{Op: OpReadDir, Handle: dir, Offset: 0, Count: int32(fstore.BlockSize)})
	return err
}

// RefreshLookup reloads the (dir, name) record through the server
// procedure; a failed lookup drops the stale record server-side.
func (c *Clerk) RefreshLookup(p *des.Proc, dir fstore.Handle, name string) error {
	delete(c.lName, dirNameKey(dir, name))
	rep, err := c.call(p, &request{Op: OpLookup, Dir: dir, Name: name})
	if err != nil {
		return err
	}
	if len(rep) >= 8+attrLen {
		child := fstore.HandleFromU64(binary.BigEndian.Uint64(rep))
		a := unpackAttr(rep[8:])
		c.lName[dirNameKey(dir, name)] = lookupHit{child, a}
		c.lAttr[child] = a
	}
	return nil
}

// Forget drops every local cache entry for h (a handle another clerk — or
// another shard's mutation — made stale).
func (c *Clerk) Forget(h fstore.Handle) {
	delete(c.lAttr, h)
	delete(c.lLink, h)
	for bk := range c.lData {
		if bk.h == h {
			delete(c.lData, bk)
		}
	}
}

// ForgetMoved drops every local cache entry whose handle the predicate
// flags — the bulk cousin of Forget for shard cutovers, where every key
// whose ring owner changed goes stale on this shard's sub-clerk at once.
// Returns the number of entries dropped.
func (c *Clerk) ForgetMoved(moved func(fstore.Handle) bool) int {
	dropped := 0
	for h := range c.lAttr {
		if moved(h) {
			delete(c.lAttr, h)
			dropped++
		}
	}
	for h := range c.lLink {
		if moved(h) {
			delete(c.lLink, h)
			dropped++
		}
	}
	for bk := range c.lData {
		if moved(bk.h) {
			delete(c.lData, bk)
			dropped++
		}
	}
	for bk := range c.lDir {
		if moved(bk.h) {
			delete(c.lDir, bk)
			dropped++
		}
	}
	for k := range c.lName {
		var ino, gen uint32
		if _, err := fmt.Sscanf(k, "%d.%d/", &ino, &gen); err == nil {
			if moved(fstore.Handle{Ino: ino, Gen: gen}) {
				delete(c.lName, k)
				dropped++
			}
		}
	}
	return dropped
}

// ForgetDir drops the local directory stream and every cached (dir, name)
// lookup under it.
func (c *Clerk) ForgetDir(dir fstore.Handle) {
	c.invalidateDir(dir)
	prefix := fmt.Sprintf("%d.%d/", dir.Ino, dir.Gen)
	for k := range c.lName {
		if strings.HasPrefix(k, prefix) {
			delete(c.lName, k)
		}
	}
}
