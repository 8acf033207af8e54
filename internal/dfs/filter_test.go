package dfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/fstore"
	"netmem/internal/model"
	"netmem/internal/obs"
	"netmem/internal/rmem"
)

// filterRig is a primary with a three-member replica chain, one DX clerk depositing into the data area, and a spare node that
// plays a write-token holder's recall against the chain-state markers.
type filterRig struct {
	env     *des.Env
	cl      *cluster.Cluster
	srv     *Server
	clerk   *Clerk
	members []*ChainReplica
	writer  *rmem.Manager
	files   []fstore.Handle

	checks, skipped int // invariant sweeps run, filter skips verified
}

const filterInterval = 100 * time.Microsecond

func newFilterRig(t *testing.T) *filterRig {
	t.Helper()
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 6) // primary, clerk, 3 members, writer
	r := &filterRig{env: env, cl: cl}
	ms := rmem.NewManager(cl.Nodes[0])
	mc := rmem.NewManager(cl.Nodes[1])
	var mm []*rmem.Manager
	for i := 2; i < 5; i++ {
		mm = append(mm, rmem.NewManager(cl.Nodes[i]))
	}
	r.writer = rmem.NewManager(cl.Nodes[5])
	env.Spawn("setup", func(p *des.Proc) {
		// A small data area keeps the invariant sweeps cheap.
		r.srv = NewServer(p, ms, 6, Geometry{DataBuckets: 31})
		r.clerk = NewClerk(p, mc, r.srv, DX)
		for i := 0; i < 6; i++ {
			h, err := r.srv.Store.WriteFile(fmt.Sprintf("/export/f%d", i), patterned(2*fstore.BlockSize))
			if err != nil {
				t.Error(err)
				return
			}
			if err := r.srv.WarmFile(h); err != nil {
				t.Error(err)
				return
			}
			r.files = append(r.files, h)
		}
		for _, m := range mm {
			r.members = append(r.members, NewChainReplica(p, m, r.srv.Geo))
		}
		if err := r.srv.AttachChain(p, 1, r.members, filterInterval); err != nil {
			t.Error(err)
		}
	})
	if err := env.RunUntil(des.Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkFilters asserts the filters' exactness invariant: every bucket a
// filter would skip is one the full rescan would have skipped too. For
// the chain pass that means byte-equal to chainShadow; for a replica's
// forward pass, a frame that is poisoned, torn, or already
// relayed (head == shadowVer[b]).
func (r *filterRig) checkFilters(t *testing.T) {
	t.Helper()
	s := r.srv
	data := s.data.Bytes()
	r.checks++
	for b := 0; b < s.Geo.DataBuckets; b++ {
		lo := b * dataStride
		cur := data[lo : lo+dataStride]
		if !s.chainFilter.stale(b) {
			r.skipped++
			if !bytes.Equal(cur, s.chainShadow[lo:lo+dataStride]) {
				t.Errorf("at %v: chain filter skips bucket %d, which differs from the chain shadow", r.env.Now(), b)
				return
			}
		}
	}
	for i, cr := range r.members {
		buf := cr.seg.Bytes()
		for b := 0; b < cr.geo.DataBuckets; b++ {
			if cr.filter.stale(b) {
				continue
			}
			frame := buf[ChainFrameOff(b) : ChainFrameOff(b)+chainStride]
			head := binary.BigEndian.Uint64(frame[4:])
			tail := binary.BigEndian.Uint64(frame[chainStride-8:])
			poisoned := binary.BigEndian.Uint32(frame) != 0
			torn := head == 0 || head != tail || head%2 != 0
			if !poisoned && !torn && head != cr.shadowVer[b] {
				t.Errorf("at %v: member %d's filter skips bucket %d with unrelayed version %#x (relayed %#x)",
					r.env.Now(), i, b, head, cr.shadowVer[b])
				return
			}
		}
	}
}

// spawnChecker sweeps the invariant every 211 µs — out of phase with the
// 100 µs pushers, so sweeps land mid-pass and mid-push — until stop.
func (r *filterRig) spawnChecker(t *testing.T, stop *bool) {
	r.env.Spawn("filter-check", func(p *des.Proc) {
		for !*stop && !t.Failed() {
			r.checkFilters(t)
			p.Sleep(211 * time.Microsecond)
		}
	})
}

// assertConverged checks that, once quiet, every chain member holds
// exactly the primary's data area, unpoisoned.
func (r *filterRig) assertConverged(t *testing.T) {
	t.Helper()
	s := r.srv
	data := s.data.Bytes()
	for b := 0; b < s.Geo.DataBuckets; b++ {
		lo := b * dataStride
		cur := data[lo : lo+dataStride]
		if !bytes.Equal(cur, s.chainShadow[lo:lo+dataStride]) {
			t.Errorf("bucket %d: chain shadow never caught up with the data area", b)
			return
		}
		for i, cr := range r.members {
			frame := cr.seg.Bytes()[ChainFrameOff(b):]
			if !bytes.Equal(frame[12:12+dataStride], cur) {
				t.Errorf("bucket %d: member %d's frame differs from the primary", b, i)
				return
			}
			if binary.BigEndian.Uint32(frame) != 0 {
				t.Errorf("bucket %d: member %d still poisoned", b, i)
				return
			}
		}
	}
}

// runUntilStopped runs the simulation until the traffic proc has set
// stop: the pushers are daemons, so the run would otherwise go on.
func (r *filterRig) runUntilStopped(t *testing.T, stop *bool) {
	t.Helper()
	for step := 0; !*stop; step++ {
		if step == 100 {
			t.Fatal("traffic proc never finished")
		}
		if err := r.env.RunUntil(r.env.Now().Add(10 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
}

// quiesce waits until the chain pass has caught up with the data area.
func (r *filterRig) quiesce(t *testing.T, p *des.Proc) bool {
	t.Helper()
	for i := 0; i < 50; i++ {
		if bytes.Equal(r.srv.data.Bytes(), r.srv.chainShadow) {
			return true
		}
		p.Sleep(2 * time.Millisecond)
	}
	t.Error("chain pass never caught up with the data area")
	return false
}

// TestBucketFilterExactUnderDeposits runs steady DX deposit traffic —
// fresh bytes, same-bytes rewrites, Syncs flipping dirty flags through the
// server's own stores, and a re-chain — with the invariant checked between
// and during passes, then checks the chain converged.
func TestBucketFilterExactUnderDeposits(t *testing.T) {
	r := newFilterRig(t)
	stop := false
	r.spawnChecker(t, &stop)
	r.env.Spawn("deposits", func(p *des.Proc) {
		defer func() { stop = true }()
		for _, h := range r.files {
			if _, err := r.clerk.Read(p, h, 0, 2*fstore.BlockSize); err != nil {
				t.Error(err)
				return
			}
		}
		for round := 0; round < 12; round++ {
			h := r.files[round%len(r.files)]
			off := int64(round%2) * fstore.BlockSize
			payload := chaosPattern(fstore.BlockSize)
			payload[0] = byte(round)
			if err := r.clerk.Write(p, h, off, payload); err != nil {
				t.Error(err)
				return
			}
			if round%2 == 1 {
				// Rewrite the same bytes once the chain has caught up: the
				// stamps move, but the chain pass pushes only on change.
				if !r.quiesce(t, p) {
					return
				}
				pushes := r.srv.ChainPushes
				if err := r.clerk.Write(p, h, off, payload); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(5 * time.Millisecond)
				if r.srv.ChainPushes != pushes {
					t.Errorf("round %d: a same-bytes deposit was pushed down the chain", round)
				}
			}
			if round == 6 {
				// A re-chain under a new epoch starts a zero shadow: the
				// next pass must compare, and push, every bucket again.
				if err := r.srv.AttachChain(p, 2, r.members, filterInterval); err != nil {
					t.Error(err)
					return
				}
			}
			if round%6 == 5 {
				if _, err := r.srv.Sync(p); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(700 * time.Microsecond)
		}
		p.Sleep(30 * time.Millisecond)
		r.checkFilters(t)
		r.assertConverged(t)
	})
	r.runUntilStopped(t, &stop)
	if r.srv.ChainPushes == 0 || r.members[2].Acked == 0 {
		t.Fatalf("no traffic: %d chain pushes, %d tail acks",
			r.srv.ChainPushes, r.members[2].Acked)
	}
	if r.checks < 200 || r.skipped == 0 {
		t.Fatalf("invariant checked %d times over %d skipped buckets; the checker did not run", r.checks, r.skipped)
	}
}

// TestBucketFilterRecallRacesPush plays a write-grant recall landing while
// the primary's push of the same bucket is in flight. The push must abort,
// the bucket must stay pending (R != D: no push, members poisoned) until
// the writer's deposit marker lands, and the very next pass must re-push
// it even though its bytes did not change — all with the invariant held.
func TestBucketFilterRecallRacesPush(t *testing.T) {
	r := newFilterRig(t)
	s := r.srv
	stop := false
	r.spawnChecker(t, &stop)
	r.env.Spawn("recall", func(p *des.Proc) {
		defer func() { stop = true }()
		h := r.files[0]
		b := s.Geo.dataBucket(h, 0)
		id, gen, size := s.ChainState()
		st := r.writer.Import(p, 0, id, gen, size)
		st.SetReliable(true)
		marker := func(off int, v uint32) {
			var w [4]byte
			binary.BigEndian.PutUint32(w[:], v)
			if err := st.WriteBlock(p, ChainStateVerOff(b)+off, w[:], false); err != nil {
				t.Error(err)
			}
		}

		if _, err := r.clerk.Read(p, h, 0, fstore.BlockSize); err != nil {
			t.Error(err)
			return
		}
		if !r.quiesce(t, p) {
			return
		}
		seq, pushes := s.chainSeq, s.ChainPushes
		if err := r.clerk.Write(p, h, 0, chaosPattern(fstore.BlockSize)); err != nil {
			t.Error(err)
			return
		}
		// Wait for the push of bucket b to start, then recall under it.
		for s.chainSeq == seq {
			p.Sleep(5 * time.Microsecond)
		}
		if s.ChainPushes != pushes {
			t.Error("push finished before the recall could race it")
			return
		}
		const nonce = 7
		marker(ChainStateROff, nonce)
		p.Sleep(10 * time.Millisecond)

		if s.ChainAborts != 1 || s.ChainPushes != pushes {
			t.Errorf("after the racing recall: %d aborts, %d new pushes; want 1 abort, 0 pushes",
				s.ChainAborts, s.ChainPushes-pushes)
			return
		}
		if !s.chainFilter.pending {
			t.Error("recalled bucket not left pending")
		}
		entry := s.chainState.Bytes()[ChainStateVerOff(b):]
		verBefore := binary.BigEndian.Uint64(entry)
		for i, cr := range r.members {
			if binary.BigEndian.Uint32(cr.seg.Bytes()[ChainFrameOff(b):]) == 0 {
				t.Errorf("member %d not re-poisoned by the abort", i)
			}
		}

		// The writer's deposit marker: R == D, C != R. The bytes are
		// unchanged since the aborted push, yet the next pass re-pushes.
		marker(ChainStateDOff, nonce)
		p.Sleep(10 * time.Millisecond)
		if s.ChainPushes != pushes+1 {
			t.Errorf("after the deposit marker: %d new pushes, want 1", s.ChainPushes-pushes)
		}
		if c := binary.BigEndian.Uint32(entry[chainStateCOff:]); c != nonce {
			t.Errorf("clean marker = %d, want %d", c, nonce)
		}
		if v := binary.BigEndian.Uint64(entry); v <= verBefore {
			t.Errorf("published version %#x did not advance past %#x", v, verBefore)
		}
		p.Sleep(20 * time.Millisecond)
		r.checkFilters(t)
		r.assertConverged(t)
	})
	r.runUntilStopped(t, &stop)
	if r.checks < 100 {
		t.Fatalf("invariant checked only %d times", r.checks)
	}
}

// TestPollerExitsWhenNodeFailsWhileIdle crashes the primary and a chain
// member while their pollers sleep through quiet ticks in SleepWhile. At
// the first tick after the crash idle() turns false, the poller resumes,
// sees the failed node and exits, exactly as a Sleep loop would.
func TestPollerExitsWhenNodeFailsWhileIdle(t *testing.T) {
	r := newFilterRig(t)
	tr := obs.New(obs.Config{Events: true})
	r.env.SetTracer(tr)
	crash := r.env.Now().Add(1234 * time.Microsecond)
	r.env.Schedule(crash, func() {
		r.cl.Nodes[0].Fail()
		r.cl.Nodes[3].Fail()
	})
	// Before the crash the rig is quiet: the pollers tick without resuming.
	events, handoffs := r.env.Events(), r.env.Handoffs()
	if err := r.env.RunUntil(crash.Add(-time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if r.env.Events() == events || r.env.Handoffs() != handoffs {
		t.Fatalf("quiet window: %d ticks, %d hand-offs; want ticks and no hand-offs",
			r.env.Events()-events, r.env.Handoffs()-handoffs)
	}
	if err := r.env.RunUntil(crash.Add(5 * filterInterval)); err != nil {
		t.Fatal(err)
	}
	exits := map[string]des.Time{}
	for _, ev := range tr.Events() {
		if name, ok := strings.CutPrefix(ev.Name, "exit "); ok {
			exits[name] = des.Time(ev.At)
		}
	}
	for _, name := range []string{"dfs.chainpush.0", "dfs.chain.3"} {
		at, ok := exits[name]
		if !ok {
			t.Errorf("%s did not exit after its node failed", name)
			continue
		}
		if at < crash || at > crash.Add(filterInterval) {
			t.Errorf("%s exited at %v, want the first tick in [%v, %v]", name, at, crash, crash.Add(filterInterval))
		}
	}
	for _, name := range []string{"dfs.chain.2", "dfs.chain.4"} {
		if _, ok := exits[name]; ok {
			t.Errorf("%s exited, but its node is up", name)
		}
	}
}
