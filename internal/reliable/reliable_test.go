package reliable

import (
	"testing"
	"time"
)

func TestAttemptTimeoutDoublesToCap(t *testing.T) {
	c := Config{Timeout: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
	want := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for attempt, w := range want {
		if got := c.AttemptTimeout(0, attempt); got != w*time.Microsecond {
			t.Errorf("attempt %d: got %v, want %v", attempt, got, w*time.Microsecond)
		}
	}
	// An explicit base overrides Timeout.
	if got := c.AttemptTimeout(300*time.Microsecond, 1); got != 600*time.Microsecond {
		t.Errorf("base 300µs attempt 1: got %v, want 600µs", got)
	}
}

func TestAttemptTimeoutBaseAboveCap(t *testing.T) {
	// A large transfer's base already exceeds MaxBackoff: the cap rises to
	// the base, so every attempt waits exactly the base, never less.
	c := Config{Timeout: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
	for attempt := 0; attempt < 4; attempt++ {
		if got := c.AttemptTimeout(5*time.Millisecond, attempt); got != 5*time.Millisecond {
			t.Errorf("attempt %d: got %v, want 5ms", attempt, got)
		}
	}
}

func TestSenderBumpResetsSequence(t *testing.T) {
	s := NewSender()
	for want := uint32(1); want <= 3; want++ {
		if gen, seq := s.Next(); gen != 1 || seq != want {
			t.Fatalf("Next = (%d, %d), want (1, %d)", gen, seq, want)
		}
	}
	s.Bump()
	if s.Generation() != 2 {
		t.Fatalf("generation after Bump = %d, want 2", s.Generation())
	}
	if gen, seq := s.Next(); gen != 2 || seq != 1 {
		t.Fatalf("first Next after Bump = (%d, %d), want (2, 1)", gen, seq)
	}
}

func TestDedupFreshThenDuplicate(t *testing.T) {
	d := NewDedup()
	if r := d.Accept(7, 1, 1); r != Fresh {
		t.Fatalf("first delivery = %v, want Fresh", r)
	}
	if r := d.Accept(7, 1, 1); r != Duplicate {
		t.Fatalf("retransmission = %v, want Duplicate", r)
	}
	// Sources are independent: the same identity from another node is new.
	if r := d.Accept(8, 1, 1); r != Fresh {
		t.Fatalf("other source = %v, want Fresh", r)
	}
}

func TestDedupGenerations(t *testing.T) {
	d := NewDedup()
	d.Accept(3, 2, 5)
	d.SaveReply(3, 5, []byte("old"))
	if r := d.Accept(3, 1, 6); r != Stale {
		t.Fatalf("older generation = %v, want Stale", r)
	}
	// A newer incarnation clears the seen-set and the reply cache: its
	// sequence 5 is a different frame than the predecessor's.
	if r := d.Accept(3, 3, 5); r != Fresh {
		t.Fatalf("newer generation reusing seq 5 = %v, want Fresh", r)
	}
	if _, ok := d.Reply(3, 5); ok {
		t.Fatal("reply cache survived the generation bump")
	}
	if r := d.Accept(3, 2, 9); r != Stale {
		t.Fatalf("superseded generation = %v, want Stale", r)
	}
}

func TestDedupWindowWriteOff(t *testing.T) {
	d := NewDedup()
	if r := d.Accept(1, 1, 1); r != Fresh {
		t.Fatal("seq 1 not fresh")
	}
	top := uint32(window + 10)
	if r := d.Accept(1, 1, top); r != Fresh {
		t.Fatal("top seq not fresh")
	}
	// Never seen, but further behind the highest sequence than the window
	// tracks: written off as a duplicate (the at-most-once side).
	if r := d.Accept(1, 1, top-window); r != Duplicate {
		t.Fatalf("seq at the window edge = %v, want Duplicate", r)
	}
	// Just inside the window and never seen: still fresh.
	if r := d.Accept(1, 1, top-window+1); r != Fresh {
		t.Fatalf("seq just inside the window = %v, want Fresh", r)
	}
	// The slide pruned seq 1 from the seen-set; the window still rejects it.
	if _, kept := d.srcs[1].seen[1]; kept {
		t.Fatal("seen-set not pruned as the window slid")
	}
	if r := d.Accept(1, 1, 1); r != Duplicate {
		t.Fatalf("pruned seq = %v, want Duplicate", r)
	}
}

func TestDedupReplyCacheFIFO(t *testing.T) {
	d := NewDedup()
	if _, ok := d.Reply(4, 1); ok {
		t.Fatal("reply from an unknown source")
	}
	for seq := uint32(1); seq <= replyCap+2; seq++ {
		d.SaveReply(4, seq, []byte{byte(seq)})
	}
	// The two oldest were evicted in insertion order; the rest remain.
	for _, seq := range []uint32{1, 2} {
		if _, ok := d.Reply(4, seq); ok {
			t.Errorf("seq %d survived FIFO eviction", seq)
		}
	}
	for _, seq := range []uint32{3, replyCap + 2} {
		if f, ok := d.Reply(4, seq); !ok || f[0] != byte(seq) {
			t.Errorf("seq %d: reply %v, %v", seq, f, ok)
		}
	}
	// Re-saving a held reply replaces it without a second eviction slot.
	d.SaveReply(4, 3, []byte("new"))
	if f, _ := d.Reply(4, 3); string(f) != "new" {
		t.Errorf("re-saved reply = %q, want new", f)
	}
	if _, ok := d.Reply(4, 4); !ok {
		t.Error("re-saving an existing reply evicted another")
	}
}
