package tokens

import (
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// rig: home node 0 holds the table; clients on nodes 1..n.
type rig struct {
	env     *des.Env
	cl      *cluster.Cluster
	table   *Table
	clients []*Client
}

func newRig(t *testing.T, nClients, nTokens int) *rig {
	t.Helper()
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, nClients+1)
	r := &rig{env: env, cl: cl}
	mgrs := make([]*rmem.Manager, nClients+1)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	env.Spawn("setup", func(p *des.Proc) {
		r.table = NewTable(p, mgrs[0], nTokens)
		id, gen, size := r.table.Coordinates()
		for i := 1; i <= nClients; i++ {
			r.clients = append(r.clients, NewClient(p, mgrs[i], 0, id, gen, size, nClients+1))
		}
		// Full-mesh revocation channels.
		for i, ci := range r.clients {
			for j, cj := range r.clients {
				if i == j {
					continue
				}
				rid, rgen, rsize := cj.RevocationChannel()
				ci.Connect(p, j+1, rid, rgen, rsize)
				pid, pgen, psize := ci.PeerReply(j + 1)
				cj.AttachPeer(p, i+1, pid, pgen, psize)
			}
		}
	})
	if err := env.RunUntil(des.Time(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) run(t *testing.T, fn func(p *des.Proc)) {
	t.Helper()
	r.env.Spawn("test", fn)
	if err := r.env.RunUntil(des.Time(5 * 60 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireReleaseFastPath(t *testing.T) {
	r := newRig(t, 2, 4)
	r.run(t, func(p *des.Proc) {
		c := r.clients[0]
		start := p.Now()
		if err := c.Acquire(p, 2, time.Second); err != nil {
			t.Fatal(err)
		}
		lat := time.Duration(p.Now().Sub(start))
		// Uncontended acquire = one remote CAS ≈ 40µs: pure data transfer.
		if lat > 60*time.Microsecond {
			t.Fatalf("fast-path acquire took %v", lat)
		}
		if r.table.Holder(2) != 1 {
			t.Fatalf("holder = %d", r.table.Holder(2))
		}
		if !c.Holds(2) || c.FastAcquires != 1 {
			t.Fatal("bookkeeping wrong")
		}
		if err := c.Release(p, 2); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond)
		if r.table.Holder(2) != -1 {
			t.Fatal("token not free after release")
		}
	})
	// No control transfer anywhere: the home node never dispatched.
	if got := r.cl.Nodes[0].CPUAcct[cluster.CatControl]; got != 0 {
		t.Fatalf("home node control CPU = %v, want 0", got)
	}
}

func TestContendedAcquireRevokes(t *testing.T) {
	r := newRig(t, 2, 1)
	r.run(t, func(p *des.Proc) {
		a, b := r.clients[0], r.clients[1]
		if err := a.Acquire(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		// b's acquire must appeal to a (control transfer) and then win.
		if err := b.Acquire(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		if a.Holds(0) || !b.Holds(0) {
			t.Fatal("ownership did not move")
		}
		if b.Revocations == 0 {
			t.Fatal("no revocation appeal recorded")
		}
		if a.RevokesServed == 0 {
			t.Fatal("holder never served the revoke")
		}
	})
}

func TestDelayedRevocationWhilePinned(t *testing.T) {
	r := newRig(t, 2, 1)
	r.run(t, func(p *des.Proc) {
		a, b := r.clients[0], r.clients[1]
		if err := a.Acquire(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		a.Pin(0) // actively using the protected object

		acquired := false
		r.env.Spawn("contender", func(bp *des.Proc) {
			if err := b.Acquire(bp, 0, 5*time.Second); err != nil {
				t.Error(err)
				return
			}
			acquired = true
		})
		// Let the contender bang on it for a while: it must NOT get the
		// token while a has it pinned.
		p.Sleep(20 * time.Millisecond)
		if acquired {
			t.Fatal("token revoked while pinned")
		}
		if a.RevokesDelayed == 0 {
			t.Fatal("no delayed revocation recorded")
		}
		// Unpinning hands it over.
		a.Unpin(p, 0)
		p.Sleep(20 * time.Millisecond)
		if !acquired {
			t.Fatal("contender still waiting after unpin")
		}
	})
}

func TestAcquireTimeout(t *testing.T) {
	r := newRig(t, 2, 1)
	r.run(t, func(p *des.Proc) {
		a, b := r.clients[0], r.clients[1]
		if err := a.Acquire(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		a.Pin(0)
		err := b.Acquire(p, 0, 10*time.Millisecond)
		if err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
}

// Re-acquiring a held token returns at once: the CAS from 0 fails on our
// own word, and there is no other holder to appeal to.
func TestReacquireHeldToken(t *testing.T) {
	r := newRig(t, 2, 1)
	r.run(t, func(p *des.Proc) {
		c := r.clients[0]
		if err := c.Acquire(p, 0, time.Second); err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		if err := c.Acquire(p, 0, 5*time.Millisecond); err != nil {
			t.Errorf("re-acquire: %v", err)
			return
		}
		if lat := p.Now().Sub(start); lat != 0 {
			t.Errorf("re-acquire took %v, want 0", lat)
		}
		if !c.Holds(0) || r.table.Holder(0) != 1 || c.FastAcquires != 1 || c.Revocations != 0 {
			t.Errorf("bookkeeping after re-acquire: holds %v holder %d fast %d revocations %d",
				c.Holds(0), r.table.Holder(0), c.FastAcquires, c.Revocations)
		}
		if err := c.Release(p, 0); err != nil {
			t.Error(err)
		}
	})
}

func TestMutualExclusionUnderContention(t *testing.T) {
	r := newRig(t, 3, 1)
	var inCrit, maxCrit, entries int
	for i, c := range r.clients {
		c := c
		delay := time.Duration(i) * 37 * time.Microsecond
		r.env.Spawn("worker", func(p *des.Proc) {
			p.Sleep(delay)
			for k := 0; k < 4; k++ {
				if err := c.Acquire(p, 0, time.Minute); err != nil {
					t.Error(err)
					return
				}
				inCrit++
				entries++
				if inCrit > maxCrit {
					maxCrit = inCrit
				}
				p.Sleep(300 * time.Microsecond)
				inCrit--
				if err := c.Release(p, 0); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(100 * time.Microsecond)
			}
		})
	}
	if err := r.env.RunUntil(des.Time(5 * 60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if entries != 12 {
		t.Fatalf("entries = %d", entries)
	}
	if maxCrit != 1 {
		t.Fatalf("mutual exclusion violated (%d inside)", maxCrit)
	}
}

func TestManyTokensIndependent(t *testing.T) {
	r := newRig(t, 2, 8)
	r.run(t, func(p *des.Proc) {
		a, b := r.clients[0], r.clients[1]
		// Different tokens never conflict.
		for tok := 0; tok < 8; tok += 2 {
			if err := a.Acquire(p, tok, time.Second); err != nil {
				t.Fatal(err)
			}
			if err := b.Acquire(p, tok+1, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if a.Revocations+b.Revocations != 0 {
			t.Fatal("independent tokens caused revocations")
		}
		for tok := 0; tok < 8; tok += 2 {
			if err := a.Release(p, tok); err != nil {
				t.Fatal(err)
			}
			if err := b.Release(p, tok+1); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestReleaseWithoutHold(t *testing.T) {
	r := newRig(t, 1, 1)
	r.run(t, func(p *des.Proc) {
		if err := r.clients[0].Release(p, 0); err == nil {
			t.Fatal("release of unheld token succeeded")
		}
	})
}
