package dfs

import (
	"errors"
	"testing"
	"time"

	"netmem/internal/des"
	"netmem/internal/rmem"
)

// §3.7: the primitives carry no built-in fault tolerance, but compose into
// recovery: a crashed server's clients see timeouts and stale descriptors;
// a new server incarnation over the surviving store re-exports fresh
// segments and re-wired clerks carry on.

func TestServerCrashSurfacesAsTimeouts(t *testing.T) {
	r := newRig(t, 1, DX)
	h, err := r.server.Store.WriteFile("/durable/file", []byte("survives crashes"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.server.WarmFile(h); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *des.Proc) {
		c := r.clerks[0]
		c.CallTimeout = 20 * time.Millisecond
		if _, err := c.Read(p, h, 0, 16); err != nil {
			t.Fatal(err)
		}
		// Crash the server machine mid-service.
		r.server.Node().Fail()
		c.FlushLocal()
		_, err := c.Read(p, h, 0, 16)
		if !errors.Is(err, rmem.ErrTimeout) {
			t.Fatalf("read from crashed server: %v, want timeout", err)
		}
		// The machine comes back with its kernel state intact (a power
		// blip, not a reboot): the same descriptors work again.
		r.server.Node().Recover()
		got, err := c.Read(p, h, 0, 16)
		if err != nil || string(got) != "survives crashe"[:15]+"s" {
			t.Fatalf("read after recovery: %q %v", got, err)
		}
	})
}

func TestServerReincarnationWithFreshSegments(t *testing.T) {
	// A full server restart: the new incarnation re-exports everything
	// with fresh generations. The old clerk's descriptors are dead (the
	// old segments were revoked); a re-wired clerk sees the data.
	r := newRig(t, 1, DX)
	st := r.server.Store
	h, err := st.WriteFile("/durable/state", []byte("persistent bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.server.WarmFile(h); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *des.Proc) {
		oldClerk := r.clerks[0]
		oldClerk.CallTimeout = 50 * time.Millisecond
		if _, err := oldClerk.Read(p, h, 0, 8); err != nil {
			t.Fatal(err)
		}

		// Tear down the old incarnation: revoke its exported areas and its
		// request channel.
		for _, area := range r.server.Areas() {
			if seg, ok := rmemLookup(r, uint16(area[0])); ok {
				rmemRevoke(r, p, seg)
			}
		}
		reqID, _, _ := r.server.ReqChannel()
		if seg, ok := rmemLookup(r, reqID); ok {
			rmemRevoke(r, p, seg)
		}

		// The old clerk now gets revoked/stale failures, not wrong data.
		oldClerk.FlushLocal()
		if _, err := oldClerk.Read(p, h, 0, 8); err == nil {
			t.Fatal("old clerk read succeeded against a torn-down server")
		}

		// New incarnation over the same store; fresh clerk wiring.
		srv2 := NewServer(p, serverManager(r), 2, Geometry{}, WithStore(st))
		if err := srv2.WarmFile(h); err != nil {
			t.Fatal(err)
		}
		clerk2 := NewClerk(p, clerkManager(r), srv2, DX)
		got, err := clerk2.Read(p, h, 0, 16)
		if err != nil || string(got) != "persistent bytes" {
			t.Fatalf("re-wired clerk read: %q %v", got, err)
		}
	})
}

// Small accessors to reach the rig's managers without widening the rig API.
func serverManager(r *rig) *rmem.Manager { return r.server.m }
func clerkManager(r *rig) *rmem.Manager  { return r.clerks[0].m }

func rmemLookup(r *rig, id uint16) (*rmem.Segment, bool) {
	return r.server.m.Lookup(id)
}

func rmemRevoke(r *rig, p *des.Proc, seg *rmem.Segment) {
	r.server.m.Revoke(p, seg)
}
