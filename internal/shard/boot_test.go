package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/model"
	"netmem/internal/nameserver"
	"netmem/internal/rmem"
)

// TestResolveRingBeforeClerkBoot: a client machine whose name-service
// clerk was constructed but whose async boot process has not yet exported
// its well-known segments can still call ResolveRing — the capped-backoff
// retry absorbs ErrNotReady instead of surfacing it. This replaces the
// old boot-order assumption (every clerk fully booted before the tier is
// used) with an explicit retry window.
func TestResolveRingBeforeClerkBoot(t *testing.T) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 4)
	var mgrs []*rmem.Manager
	for i := 0; i < 4; i++ {
		mgrs = append(mgrs, rmem.NewManager(cl.Nodes[i]))
	}
	var bootErr error
	env.Spawn("setup", func(p *des.Proc) {
		peers := []int{0, 1, 2, 3}
		var names []*nameserver.Clerk
		for i := 0; i < 3; i++ {
			names = append(names, nameserver.New(mgrs[i], peers, nameserver.Config{}))
		}
		// Well-known registry segments must be each service node's first
		// exports; give those boot processes their head start.
		p.Sleep(time.Millisecond)
		svc := NewService(p, mgrs[:3], 4, dfs.Geometry{})
		if err := svc.RegisterNames(p, names[:3]); err != nil {
			bootErr = fmt.Errorf("register: %w", err)
			return
		}
		// Node 3's clerk is created only now: its boot process has not run
		// yet, so a non-retrying resolve would see ErrNotReady here.
		names = append(names, nameserver.New(mgrs[3], peers, nameserver.Config{}))
		if names[3].Ready() {
			bootErr = errors.New("test rig stale: clerk 3 already booted, race not exercised")
			return
		}
		ring, epoch, nodes, err := ResolveRing(p, mgrs[3], names[3], 0)
		if err != nil {
			bootErr = fmt.Errorf("resolve through booting clerk: %w", err)
			return
		}
		if epoch == 0 || ring.Size() != 3 || len(nodes) != 3 {
			bootErr = fmt.Errorf("resolved ring wrong: size=%d epoch=%d nodes=%v", ring.Size(), epoch, nodes)
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if bootErr != nil {
		t.Fatal(bootErr)
	}
}

// TestAwaitNSBackoff pins the retry classifier: sentinels retry until the
// deadline, anything else returns immediately.
func TestAwaitNSBackoff(t *testing.T) {
	env := des.NewEnv()
	boom := errors.New("boom")
	env.Spawn("run", func(p *des.Proc) {
		// Transient ErrNotReady clears after a few attempts.
		calls := 0
		err := awaitNS(p, 10*time.Millisecond, func() error {
			if calls++; calls < 4 {
				return nameserver.ErrNotReady
			}
			return nil
		})
		if err != nil || calls != 4 {
			t.Errorf("transient not-ready: err=%v calls=%d", err, calls)
		}
		// ErrNotFound (name not yet published) is also retried.
		calls = 0
		err = awaitNS(p, 10*time.Millisecond, func() error {
			if calls++; calls < 3 {
				return fmt.Errorf("lookup: %w", nameserver.ErrNotFound)
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Errorf("transient not-found: err=%v calls=%d", err, calls)
		}
		// A sentinel still standing at the deadline surfaces.
		start := p.Now()
		err = awaitNS(p, 3*time.Millisecond, func() error { return nameserver.ErrNotReady })
		if !errors.Is(err, nameserver.ErrNotReady) {
			t.Errorf("deadline: err=%v, want ErrNotReady", err)
		}
		if waited := p.Now().Sub(start); waited > 4*time.Millisecond {
			t.Errorf("deadline overshot: waited %v", waited)
		}
		// Non-sentinel errors pass straight through.
		calls = 0
		err = awaitNS(p, 10*time.Millisecond, func() error { calls++; return boom })
		if !errors.Is(err, boom) || calls != 1 {
			t.Errorf("hard error: err=%v calls=%d", err, calls)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// A membership record too short for its own header must fail every
// resolve with an error; the reader used to index it unchecked and panic.
func TestResolveRingShortRecord(t *testing.T) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 2)
	mgrs := []*rmem.Manager{rmem.NewManager(cl.Nodes[0]), rmem.NewManager(cl.Nodes[1])}
	var errs []error
	env.Spawn("setup", func(p *des.Proc) {
		peers := []int{0, 1}
		names := []*nameserver.Clerk{
			nameserver.New(mgrs[0], peers, nameserver.Config{}),
			nameserver.New(mgrs[1], peers, nameserver.Config{}),
		}
		p.Sleep(time.Millisecond)
		seg := mgrs[0].Export(p, 4)
		seg.SetDefaultRights(rmem.RightRead)
		if err := names[0].Register(p, ringName, seg); err != nil {
			t.Error(err)
			return
		}
		_, _, _, err := ResolveRing(p, mgrs[1], names[1], 0)
		errs = append(errs, err)
		_, _, _, err = ResolveRingAny(p, mgrs[1], names[1], []int{0})
		errs = append(errs, err)
		_, err = ResolveRingChains(p, mgrs[1], names[1], 0)
		errs = append(errs, err)
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 {
		t.Fatalf("resolves did not all return: %v", errs)
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("resolve %d accepted a 4-byte membership record", i)
		}
	}
}

// parseRingBlob bounds-checks the member pairs and the chain section.
func TestParseRingBlobBounds(t *testing.T) {
	words := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.BigEndian.AppendUint32(b, w)
		}
		return b
	}
	base := words(16, 2, 7, 0, 10, 1, 11) // vnodes, 2 members, epoch 7, (0→10), (1→11)
	for _, tc := range []struct {
		name string
		blob []byte
		ok   bool
	}{
		{"pre-chain layout", base, true},
		{"one chain", append(append([]byte(nil), base...), words(1, 0, 2, 20, 21)...), true},
		{"short header", words(16, 2), false},
		{"members past the end", words(16, 3, 7, 0, 10, 1, 11), false},
		{"truncated chain header", append(append([]byte(nil), base...), words(1, 0)...), false},
		{"truncated chain members", append(append([]byte(nil), base...), words(1, 0, 3, 20, 21)...), false},
	} {
		l, err := parseRingBlob(ringName, tc.blob)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if l.epoch != 7 || l.ring.Size() != 2 || l.nodes[0] != 10 || l.nodes[1] != 11 {
			t.Errorf("%s: parsed epoch %d size %d nodes %v", tc.name, l.epoch, l.ring.Size(), l.nodes)
		}
		if tc.name == "one chain" && (len(l.chains[0]) != 2 || l.chains[0][1] != 21) {
			t.Errorf("%s: chains %v", tc.name, l.chains)
		}
	}
}
