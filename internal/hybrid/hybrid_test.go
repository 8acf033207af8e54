package hybrid

import (
	"bytes"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

const us = time.Microsecond

// wire builds a server on node 0 and a client on node 1.
func wire(t *testing.T, h Handler) (*des.Env, *cluster.Cluster, *Server, *Client) {
	t.Helper()
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 2)
	ms := rmem.NewManager(cl.Nodes[0])
	mc := rmem.NewManager(cl.Nodes[1])
	var srv *Server
	var cli *Client
	env.Spawn("setup", func(p *des.Proc) {
		srv = NewServer(p, ms, 2, 8192, h)
		id, gen, size := srv.ReqSeg()
		cli = NewClient(p, mc, 0, id, gen, size, 8192, 8192)
		cid, cgen, csize := cli.RepSeg()
		srv.AttachClient(p, 1, cid, cgen, csize)
	})
	if err := env.RunUntil(des.Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return env, cl, srv, cli
}

func TestCallRoundTrip(t *testing.T) {
	env, _, srv, cli := wire(t, func(p *des.Proc, src int, req []byte) []byte {
		return append([]byte("svc:"), req...)
	})
	var got []byte
	env.Spawn("client", func(p *des.Proc) {
		r, err := cli.Call(p, []byte("args"), time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		got = r
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("svc:args")) {
		t.Fatalf("got %q", got)
	}
	if srv.Calls != 1 {
		t.Fatalf("calls = %d", srv.Calls)
	}
}

func TestSequentialCallsReuseSlot(t *testing.T) {
	env, _, _, cli := wire(t, func(p *des.Proc, src int, req []byte) []byte {
		return []byte{req[0] + 1}
	})
	env.Spawn("client", func(p *des.Proc) {
		for i := byte(0); i < 5; i++ {
			r, err := cli.Call(p, []byte{i}, time.Second)
			if err != nil || r[0] != i+1 {
				t.Errorf("call %d: %v %v", i, r, err)
				return
			}
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestLargeReply(t *testing.T) {
	blob := make([]byte, 8000)
	for i := range blob {
		blob[i] = byte(i)
	}
	env, _, _, cli := wire(t, func(p *des.Proc, src int, req []byte) []byte {
		return blob
	})
	env.Spawn("client", func(p *des.Proc) {
		r, err := cli.Call(p, []byte("gimme"), time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(r, blob) {
			t.Error("large reply corrupted")
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestRequestTooBig(t *testing.T) {
	env, _, _, cli := wire(t, func(p *des.Proc, src int, req []byte) []byte { return nil })
	env.Spawn("client", func(p *des.Proc) {
		if _, err := cli.Call(p, make([]byte, 9000), time.Second); err != rmem.ErrTooBig {
			t.Errorf("err = %v, want ErrTooBig", err)
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestCallCostStructure(t *testing.T) {
	// A small Hybrid-1 call must cost roughly: request write (~30 µs) +
	// notification (260 µs) + handler (0 here) + reply write (~30 µs) +
	// spin-wait detection — i.e. ≈290–360 µs. This is the HY overhead bar
	// Figures 2/3 are built from.
	env, cl, _, cli := wire(t, func(p *des.Proc, src int, req []byte) []byte {
		return []byte("ok")
	})
	var elapsed time.Duration
	env.Spawn("client", func(p *des.Proc) {
		start := p.Now()
		if _, err := cli.Call(p, []byte("x"), time.Second); err != nil {
			t.Error(err)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if elapsed < 290*us || elapsed > 380*us {
		t.Fatalf("null hybrid call = %v, want ≈300–370µs", elapsed)
	}
	// The server paid the control transfer; a pure data transfer would not.
	if got := cl.Nodes[0].CPUAcct[cluster.CatControl]; got != 260*us {
		t.Fatalf("server control CPU = %v, want 260µs", got)
	}
}

func TestTwoClients(t *testing.T) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 3)
	ms := rmem.NewManager(cl.Nodes[0])
	m1 := rmem.NewManager(cl.Nodes[1])
	m2 := rmem.NewManager(cl.Nodes[2])
	env.Spawn("setup", func(p *des.Proc) {
		srv := NewServer(p, ms, 3, 256, func(hp *des.Proc, src int, req []byte) []byte {
			return append([]byte{byte(src)}, req...)
		})
		id, gen, size := srv.ReqSeg()
		for i, m := range []*rmem.Manager{m1, m2} {
			cli := NewClient(p, m, 0, id, gen, size, 256, 256)
			cid, cgen, csize := cli.RepSeg()
			srv.AttachClient(p, i+1, cid, cgen, csize)
			node := i + 1
			env.Spawn("client", func(cp *des.Proc) {
				r, err := cli.Call(cp, []byte("hi"), time.Second)
				if err != nil || int(r[0]) != node {
					t.Errorf("client %d: %q %v", node, r, err)
				}
			})
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestCallTimesOutWhenUnattached(t *testing.T) {
	// The server never attached this client's reply segment: the request
	// is delivered and even handled, but no reply can come back.
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 2)
	ms := rmem.NewManager(cl.Nodes[0])
	mc := rmem.NewManager(cl.Nodes[1])
	env.Spawn("run", func(p *des.Proc) {
		srv := NewServer(p, ms, 2, 256, func(hp *des.Proc, src int, req []byte) []byte {
			return []byte("into the void")
		})
		id, gen, size := srv.ReqSeg()
		cli := NewClient(p, mc, 0, id, gen, size, 256, 256)
		// Deliberately no AttachClient.
		start := p.Now()
		_, err := cli.Call(p, []byte("anyone there"), 20*time.Millisecond)
		if err != rmem.ErrTimeout {
			t.Errorf("err = %v, want timeout", err)
		}
		if waited := time.Duration(p.Now().Sub(start)); waited < 20*time.Millisecond {
			t.Errorf("returned after %v", waited)
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestReliableReplyNotTorn: with reliable replies a multi-chunk reply
// block moves as independently-acked pieces, and the completion word the
// client spins on lives at the front of the block. The server must not
// let that flag land before the body's tail, or the client reads a torn
// reply. Every byte of a >1-chunk reply must come back intact.
func TestReliableReplyNotTorn(t *testing.T) {
	big := make([]byte, 6000)
	for i := range big {
		big[i] = byte(i*11 + 5)
	}
	env, _, srv, cli := wire(t, func(p *des.Proc, src int, req []byte) []byte {
		return big
	})
	srv.SetReliable(true)
	cli.SetReliable(true)
	calls := 0
	env.Spawn("client", func(p *des.Proc) {
		for k := 0; k < 5; k++ {
			r, err := cli.Call(p, []byte{byte(k)}, time.Second)
			if err != nil {
				t.Errorf("call %d: %v", k, err)
				return
			}
			if !bytes.Equal(r, big) {
				t.Errorf("call %d: torn reply (%d bytes)", k, len(r))
				return
			}
			calls++
		}
	})
	if err := env.RunUntil(des.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("completed %d/5 calls", calls)
	}
}

// TestPostsOutstandingToTwoServers: one process posts to two servers
// before awaiting either. Each reply lands on its own client; an Await
// whose deadline passes first returns ErrTimeout, and the reply still
// lands on that client for a later Await.
func TestPostsOutstandingToTwoServers(t *testing.T) {
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, 3)
	ms := []*rmem.Manager{rmem.NewManager(cl.Nodes[0]), rmem.NewManager(cl.Nodes[1])}
	mc := rmem.NewManager(cl.Nodes[2])
	slow := 30 * time.Millisecond
	env.Spawn("run", func(p *des.Proc) {
		var clis [2]*Client
		var srvs [2]*Server
		for i, m := range ms {
			tag := []byte{'a' + byte(i), ':'}
			delay := time.Duration(i) * slow
			srvs[i] = NewServer(p, m, 3, 256, func(hp *des.Proc, src int, req []byte) []byte {
				hp.Sleep(delay)
				return append(append([]byte(nil), tag...), req...)
			})
			id, gen, size := srvs[i].ReqSeg()
			clis[i] = NewClient(p, mc, i, id, gen, size, 256, 256)
			cid, cgen, csize := clis[i].RepSeg()
			srvs[i].AttachClient(p, 2, cid, cgen, csize)
		}
		for i, req := range []string{"x", "y"} {
			if err := clis[i].Post(p, []byte(req)); err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
		}
		deadline := p.Now().Add(slow / 2)
		r, err := clis[0].Await(p, deadline)
		if err != nil || string(r) != "a:x" {
			t.Errorf("fast server: %q %v, want \"a:x\"", r, err)
			return
		}
		if srvs[1].Calls != 1 {
			t.Errorf("slow server served %d calls while the fast reply was awaited, want 1 (both posts outstanding)", srvs[1].Calls)
			return
		}
		if _, err := clis[1].Await(p, deadline); err != rmem.ErrTimeout {
			t.Errorf("slow server before its reply: err = %v, want ErrTimeout", err)
			return
		}
		if p.Now() <= deadline {
			t.Errorf("Await timed out at %v, before its deadline %v", p.Now(), deadline)
			return
		}
		r, err = clis[1].Await(p, 0)
		if err != nil || string(r) != "b:y" {
			t.Errorf("slow server: %q %v, want \"b:y\"", r, err)
			return
		}
	})
	if err := env.RunUntil(des.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
}
