package tokens

import (
	"encoding/binary"
	"testing"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/obs"
	"netmem/internal/rmem"
)

// rwRig: home node 0 holds the table; RW clients on nodes 1..n.
type rwRig struct {
	env     *des.Env
	cl      *cluster.Cluster
	table   *Table
	clients []*RWClient
}

func newRWRig(t *testing.T, nClients, nTokens int) *rwRig {
	t.Helper()
	env := des.NewEnv()
	cl := cluster.New(env, &model.Default, nClients+1)
	r := &rwRig{env: env, cl: cl}
	mgrs := make([]*rmem.Manager, nClients+1)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}
	env.Spawn("setup", func(p *des.Proc) {
		r.table = NewTable(p, mgrs[0], nTokens)
		id, gen, size := r.table.Coordinates()
		for i := 1; i <= nClients; i++ {
			r.clients = append(r.clients, NewRWClient(p, mgrs[i], 0, id, gen, size, nClients+1))
		}
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

func (r *rwRig) run(t *testing.T, fn func(p *des.Proc)) {
	t.Helper()
	r.env.Spawn("test", fn)
	if err := r.env.RunUntil(des.Time(5 * 60 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestRWSharedReaders(t *testing.T) {
	r := newRWRig(t, 3, 2)
	r.run(t, func(p *des.Proc) {
		// All three clients take the same read token concurrently-validly.
		for _, c := range r.clients {
			if err := c.AcquireRead(p, 1, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range r.clients {
			if !c.HoldsRead(1) {
				t.Fatalf("client %d lost its read token", i)
			}
			if c.RevokesServed != 0 {
				t.Fatalf("client %d served a revoke: readers must coexist without control transfer", i)
			}
		}
		// Idempotent re-acquire is free.
		if err := r.clients[0].AcquireRead(p, 1, time.Second); err != nil {
			t.Fatal(err)
		}
		if r.clients[0].ReadAcquires != 1 {
			t.Fatalf("re-acquire counted twice: %d", r.clients[0].ReadAcquires)
		}
		for _, c := range r.clients {
			if err := c.ReleaseRead(p, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Pure CAS protocol: the home node never ran a control transfer.
	if got := r.cl.Nodes[0].CPUAcct[cluster.CatControl]; got != 0 {
		t.Fatalf("home node control CPU = %v, want 0", got)
	}
}

func TestRWWriteRecallsReaders(t *testing.T) {
	r := newRWRig(t, 3, 1)
	invalidated := make([]int, 3)
	r.run(t, func(p *des.Proc) {
		for i, c := range r.clients {
			i := i
			c.OnInvalidate(func(p *des.Proc, tok int) { invalidated[i]++ })
			if i > 0 {
				if err := c.AcquireRead(p, 0, time.Second); err != nil {
					t.Fatal(err)
				}
			}
		}
		w := r.clients[0]
		if err := w.AcquireWrite(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		if !w.HoldsWrite(0) {
			t.Fatal("writer does not hold the token")
		}
		for i := 1; i < 3; i++ {
			if r.clients[i].HoldsRead(0) {
				t.Fatalf("reader %d kept its token past a write recall", i)
			}
			if invalidated[i] != 1 {
				t.Fatalf("reader %d invalidation callback ran %d times, want 1", i, invalidated[i])
			}
		}
		if w.RevokesSent == 0 {
			t.Fatal("writer recorded no recall appeals")
		}
		if err := w.ReleaseWrite(p, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteRecallIsOneRound: a writer recalling k readers posts every
// appeal before awaiting any reply, so the recall costs about one appeal
// latency, not k of them back to back. A one-reader recall of another
// token is the yardstick for one appeal round.
func TestWriteRecallIsOneRound(t *testing.T) {
	const readers = 7
	r := newRWRig(t, readers+1, 2)
	tr := obs.New(obs.Config{})
	r.env.SetTracer(tr)
	invalidated := make([]int, readers+1)
	var one, all time.Duration
	r.run(t, func(p *des.Proc) {
		w := r.clients[0]
		for i := 1; i <= readers; i++ {
			i := i
			r.clients[i].OnInvalidate(func(p *des.Proc, tok int) {
				if tok == 0 {
					invalidated[i]++
				}
			})
			if err := r.clients[i].AcquireRead(p, 0, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.clients[1].AcquireRead(p, 1, time.Second); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if err := w.AcquireWrite(p, 1, time.Second); err != nil {
			t.Fatal(err)
		}
		one = p.Now().Sub(start)
		sent := w.RevokesSent
		start = p.Now()
		if err := w.AcquireWrite(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		all = p.Now().Sub(start)
		if got := w.RevokesSent - sent; got != readers {
			t.Fatalf("recall sent %d appeals, want %d", got, readers)
		}
	})
	for i := 1; i <= readers; i++ {
		if invalidated[i] != 1 {
			t.Fatalf("reader %d invalidation callback ran %d times, want 1", i, invalidated[i])
		}
		if r.clients[i].HoldsRead(0) {
			t.Fatalf("reader %d kept its token past the recall", i)
		}
	}
	// The writer is node 1: the word carries writerBit | nodeID+1.
	if got, want := binary.BigEndian.Uint32(r.table.seg.Bytes()), uint32(writerBit|2); got != want {
		t.Fatalf("token word = %#x, want %#x", got, want)
	}
	// Seven appeals back to back would take about seven times the
	// one-reader acquire; in one round they cost little more than it.
	if all > 2*one {
		t.Fatalf("%d-reader recall took %v, one-reader recall %v: the appeals did not overlap", readers, all, one)
	}
	snap := tr.Snapshot()
	if got := snap.Counter("tokens.recall.rounds"); got != 2 {
		t.Fatalf("tokens.recall.rounds = %d, want 2 (one per acquire)", got)
	}
	if got := snap.Counter("tokens.recall.appeals"); got != readers+1 {
		t.Fatalf("tokens.recall.appeals = %d, want %d", got, readers+1)
	}
	if h, ok := snap.Hist("tokens.write.wait"); !ok || h.Count != 2 || h.Max != all {
		t.Fatalf("tokens.write.wait = %+v, want 2 samples with max %v", h, all)
	}
}

func TestRWDowngradeAndReaderReturn(t *testing.T) {
	r := newRWRig(t, 2, 1)
	r.run(t, func(p *des.Proc) {
		w, rd := r.clients[0], r.clients[1]
		if err := w.AcquireWrite(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		// Reader joins concurrently: blocked until the writer downgrades.
		done := make(chan error, 1)
		r.env.Spawn("reader", func(p2 *des.Proc) {
			done <- rd.AcquireRead(p2, 0, 50*time.Millisecond)
		})
		p.Sleep(2 * time.Millisecond)
		if rd.HoldsRead(0) {
			t.Fatal("reader slipped past an exclusive writer")
		}
		if err := w.Downgrade(p, 0); err != nil {
			t.Fatal(err)
		}
		if !w.HoldsRead(0) || w.HoldsWrite(0) {
			t.Fatal("downgrade bookkeeping wrong")
		}
		p.Sleep(5 * time.Millisecond)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("reader after downgrade: %v", err)
			}
		default:
			t.Fatal("reader still blocked after downgrade")
		}
		if !rd.HoldsRead(0) {
			t.Fatal("reader did not obtain the token")
		}
	})
}

func TestRWWriterExcludesWriter(t *testing.T) {
	r := newRWRig(t, 2, 1)
	r.run(t, func(p *des.Proc) {
		a, b := r.clients[0], r.clients[1]
		if err := a.AcquireWrite(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		// b cannot take the write token while a holds it: write recalls are
		// deferred (never force-released), so b times out.
		if err := b.AcquireWrite(p, 0, 5*time.Millisecond); err != ErrTimeout {
			t.Fatalf("second writer got %v, want ErrTimeout", err)
		}
		if err := a.ReleaseWrite(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.AcquireWrite(p, 0, time.Second); err != nil {
			t.Fatalf("writer after release: %v", err)
		}
	})
}

func TestRWRebindForfeitsTokens(t *testing.T) {
	r := newRWRig(t, 2, 2)
	r.run(t, func(p *des.Proc) {
		c := r.clients[0]
		drops := 0
		c.OnInvalidate(func(p *des.Proc, tok int) { drops++ })
		if err := c.AcquireRead(p, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.AcquireWrite(p, 1, time.Second); err != nil {
			t.Fatal(err)
		}
		id, gen, size := r.table.Coordinates()
		c.RebindTable(p, 0, id, gen, size)
		if c.HoldsRead(0) || c.HoldsWrite(1) {
			t.Fatal("rebind kept tokens from the dead incarnation")
		}
		if drops != 1 {
			t.Fatalf("rebind invalidated %d cached tokens, want 1 (the read token)", drops)
		}
	})
}
