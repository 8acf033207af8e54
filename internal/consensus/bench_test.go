package consensus

import (
	"testing"

	"netmem/internal/des"
)

// TestCASContentionBench pins the micro-benchmark's invariants at a small
// size: every clerk lands every win exactly once (the contended word ends
// at Clerks×Wins) and the acceptor burns zero agreement CPU — RunCASBench
// returns an error, not a result, when either fails.
func TestCASContentionBench(t *testing.T) {
	res, err := RunCASBench(CASBenchConfig{Clerks: 6, WinsPerClerk: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wins != 300 {
		t.Errorf("wins=%d, want 300", res.Wins)
	}
	if res.Attempts < res.Wins {
		t.Errorf("attempts=%d < wins=%d", res.Attempts, res.Wins)
	}
	if res.AgreementCPU != 0 {
		t.Errorf("agreement CPU %v, want 0", res.AgreementCPU)
	}
	if res.InterfaceCPU <= 0 {
		t.Error("no interface CPU recorded — the scramble did not hit the acceptor")
	}
	if res.Window <= 0 || res.PerWin <= 0 {
		t.Errorf("degenerate timing: window=%v perWin=%v", res.Window, res.PerWin)
	}
}

// BenchmarkCASContention measures simulator wall-clock for the scramble —
// the consensus entry in the repo's gated bench suite.
func BenchmarkCASContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunCASBench(CASBenchConfig{Clerks: 8, WinsPerClerk: 200, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecreeCommit measures the full agreement path: one proposer
// committing decrees back to back on a 3-acceptor group.
func BenchmarkDecreeCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRig(b, 1, 3, 1, Config{Slots: 2048})
		var err error
		r.spawn("bench", func(p *des.Proc) {
			r.await(p)
			pr := NewProposer(p, r.mgrs[3], 3, r.g)
			pr.Notify = false
			for n := 0; n < 1000; n++ {
				if _, err = pr.Commit(p, []byte{byte(n), byte(n >> 8)}); err != nil {
					return
				}
			}
		})
		r.run(b)
		if err != nil {
			b.Fatal(err)
		}
	}
}
