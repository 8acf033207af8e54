package consensus

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// TestCompactionOutrunsSlots is the compaction acceptance check: with a
// 64-slot window a client commits several windows' worth of decrees.
// A bare group would stop at slot 64 with ErrLogFull; under a control
// plane the snapshot decrees keep recycling the window. Afterwards every
// replica must hold byte-identical logs, identical checkpoints, and a
// digest that replays exactly from checkpoint + suffix.
func TestCompactionOutrunsSlots(t *testing.T) {
	const (
		slots   = 64
		commits = 200 // > 3 windows
	)
	env := des.NewEnv()
	env.Seed(1)
	c := cluster.New(env, &model.Default, 4)
	mgrs := make([]*rmem.Manager, 4)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(c.Nodes[i])
	}
	var cp *ControlPlane
	env.Spawn("boot", func(p *des.Proc) {
		g := NewGroup(p, Config{Slots: slots}, mgrs[:3]...)
		cp = NewControlPlane(p, g, nil)
		if err := cp.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		cl := cp.NewClient(p, mgrs[3])
		for k := 0; k < commits; k++ {
			if err := cl.Noop(p); err != nil {
				t.Errorf("commit %d: %v", k, err)
				return
			}
		}
	})
	if err := env.RunUntil(des.Time(3 * time.Second)); err != nil {
		t.Fatalf("sim: %v", err)
	}

	r0 := cp.Replicas()[0]
	if r0.SnapBase() == 0 {
		t.Fatalf("no snapshot decree committed across %d commits in a %d-slot window", commits, slots)
	}
	if r0.AppliedCount() <= slots {
		t.Fatalf("applied %d decrees, want > Slots=%d", r0.AppliedCount(), slots)
	}

	// Replicas agree byte for byte, including where the watermark sits
	// and what the checkpoint says.
	ref := r0.Log()
	s0, e0, l0, d0 := r0.Checkpoint(nil)
	for _, r := range cp.Replicas()[1:] {
		if r.AppliedCount() != r0.AppliedCount() {
			t.Fatalf("replica %d applied %d, replica 0 applied %d", r.Idx(), r.AppliedCount(), r0.AppliedCount())
		}
		for s, cmd := range r.Log() {
			if !bytes.Equal(cmd.Encode(), ref[s].Encode()) {
				t.Fatalf("replica %d slot %d diverges", r.Idx(), s)
			}
		}
		if r.SnapBase() != r0.SnapBase() {
			t.Fatalf("replica %d snapBase %d, replica 0 %d", r.Idx(), r.SnapBase(), r0.SnapBase())
		}
		s, e, l, d := r.Checkpoint(nil)
		if s != s0 || e != e0 || l != l0 || d != d0 {
			t.Fatalf("replica %d checkpoint (%d,%d,%d,%x) differs from replica 0 (%d,%d,%d,%x)",
				r.Idx(), s, e, l, d, s0, e0, l0, d0)
		}
	}

	// The digest replays: fold the checkpoint's prefix digest over the
	// suffix (snapshot decree onward) and land exactly on the live one.
	replay := d0
	for _, cmd := range ref[s0:] {
		replay = foldDigest(replay, cmd.Encode())
	}
	if replay != r0.Digest() {
		t.Fatalf("replay digest %x != live digest %x", replay, r0.Digest())
	}
}

// TestBareGroupStopsAtSlots: with no control plane nothing snapshots the
// log, so a bare group fills its window once and then reports
// ErrLogFull.
func TestBareGroupStopsAtSlots(t *testing.T) {
	const slots = 16
	r := newRig(t, 1, 3, 1, Config{Slots: slots})
	r.spawn("run", func(p *des.Proc) {
		r.await(p)
		pr := NewProposer(p, r.mgrs[3], 0, r.g)
		pr.Notify = false
		for k := 0; k < slots; k++ {
			slot, err := pr.Commit(p, []byte{byte(k)})
			if err != nil || slot != k {
				t.Errorf("commit %d: slot %d, %v", k, slot, err)
				return
			}
		}
		if _, err := pr.Commit(p, []byte("one too many")); !errors.Is(err, ErrLogFull) {
			t.Errorf("commit past the window: %v, want ErrLogFull", err)
		}
	})
	r.run(t)
}

// TestValueLimit pins the largest decree a default group carries: the
// 128-byte cell payload minus the 4-byte logical-slot prefix.
func TestValueLimit(t *testing.T) {
	r := newRig(t, 1, 3, 1, Config{})
	r.env.Spawn("run", func(p *des.Proc) {
		r.await(p)
		pr := NewProposer(p, r.mgrs[3], 0, r.g)
		pr.Notify = false
		fits := bytes.Repeat([]byte{0xa5}, 124)
		slot, err := pr.Commit(p, fits)
		if err != nil {
			t.Errorf("124-byte value: %v", err)
			return
		}
		if b, got := r.g.Accs[0].Learned(p, slot); b == 0 || !bytes.Equal(got, fits) {
			t.Errorf("124-byte value learned as %x (ballot %d)", got, b)
		}
		if _, err := pr.Commit(p, make([]byte, 125)); !errors.Is(err, ErrValueTooLarge) {
			t.Errorf("125-byte value: %v, want ErrValueTooLarge", err)
		}
	})
	if err := r.env.RunUntil(des.Time(50 * time.Millisecond)); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestIdleLaneSkipsCompactedSlots: a client lane that sits out more than
// a window of other lanes' decrees comes back with a stale watermark and
// an allocation hint pointing at recycled physical slots. Its next
// commit must land at or above the watermark, and every replica must
// apply it, rather than overwrite a newer decree in the recycled slot.
func TestIdleLaneSkipsCompactedSlots(t *testing.T) {
	const (
		slots = 16
		busy  = 40 // lane B's commits: > 2 windows
	)
	env := des.NewEnv()
	env.Seed(1)
	c := cluster.New(env, &model.Default, 5)
	mgrs := make([]*rmem.Manager, 5)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(c.Nodes[i])
	}
	want := Command{Kind: KindMembership, Epoch: 7, Blob: []byte("lane-a")}
	var (
		cp         *ControlPlane
		slot, base = -1, 0
	)
	env.Spawn("boot", func(p *des.Proc) {
		g := NewGroup(p, Config{Slots: slots}, mgrs[:3]...)
		cp = NewControlPlane(p, g, nil)
		if err := cp.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		a, b := cp.NewClient(p, mgrs[3]), cp.NewClient(p, mgrs[4])
		if err := a.Noop(p); err != nil {
			t.Errorf("lane A first commit: %v", err)
			return
		}
		for k := 0; k < busy; k++ {
			if err := b.Noop(p); err != nil {
				t.Errorf("lane B commit %d: %v", k, err)
				return
			}
		}
		for _, r := range cp.Replicas() {
			base = max(base, r.SnapBase())
		}
		var err error
		want.Origin, want.Seq = uint8(a.Proposer().Lane()), 99
		if slot, err = a.Proposer().Commit(p, want.Encode()); err != nil {
			t.Errorf("lane A second commit: %v", err)
		}
	})
	if err := env.RunUntil(des.Time(2 * time.Second)); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if base < slots {
		t.Fatalf("watermark %d: lane B's %d commits did not recycle the %d-slot window", base, busy, slots)
	}
	if slot < base {
		t.Fatalf("lane A's decree landed in slot %d, below the watermark %d", slot, base)
	}
	for _, r := range cp.Replicas() {
		log := r.Log()
		if len(log) <= slot || !bytes.Equal(log[slot].Encode(), want.Encode()) {
			t.Fatalf("replica %d did not apply lane A's decree at slot %d (applied %d)", r.Idx(), slot, r.AppliedCount())
		}
	}
}
