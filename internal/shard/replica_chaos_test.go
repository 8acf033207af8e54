package shard

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
)

// TestReplicaLagChaosDeterministic is the replica tier's determinism
// golden: the replicalag campaign (growing per-cell delays on the deep
// chain hops, then a primary crash with no recovery) run twice at seed 1
// against a 3-member chain must produce byte-identical results, complete
// 12/12 byte-correct, and promote the most-advanced member — the chain
// head, the one node whose inbound link the campaign leaves clean.
func TestReplicaLagChaosDeterministic(t *testing.T) {
	camp, ok := faults.Named("replicalag")
	if !ok {
		t.Fatal("replicalag campaign not registered")
	}
	runOnce := func() ([]byte, *ReplicaChaosResult) {
		res, err := RunReplicaLagChaos(ReplicaChaosConfig{Campaign: camp, Seed: 1, Mode: dfs.DX, Replicas: 3})
		if err != nil {
			t.Fatalf("RunReplicaLagChaos: %v", err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return append(js, res.Metrics.String()...), res
	}
	b1, r1 := runOnce()
	b2, _ := runOnce()
	if !bytes.Equal(b1, b2) {
		i := 0
		for i < len(b1) && i < len(b2) && b1[i] == b2[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		win := func(b []byte) []byte {
			h := hi
			if h > len(b) {
				h = len(b)
			}
			if lo >= h {
				return nil
			}
			return b[lo:h]
		}
		t.Fatalf("replicalag campaign not deterministic at seed 1:\n run1: …%s…\n run2: …%s…", win(b1), win(b2))
	}
	if r1.Completed != len(r1.Ops) || len(r1.Ops) != 12 {
		t.Errorf("goodput %d/%d, want 12/12", r1.Completed, len(r1.Ops))
	}
	if !r1.FailedOver || r1.MTTR <= 0 {
		t.Errorf("expected a measured failover (FailedOver=%v MTTR=%v)", r1.FailedOver, r1.MTTR)
	}
	// The campaign's whole point: the head (node 3) rides the lightest-
	// taxed hop and must be the promotion winner over the starved deep
	// members.
	if r1.PromotedNode != 3 {
		t.Errorf("promoted node %d, want chain head 3 (applied=%d head=%d tail=%d)",
			r1.PromotedNode, r1.PromotedApplied, r1.HeadApplied, r1.TailApplied)
	}
	if r1.PromotedApplied == 0 {
		t.Errorf("promotion recorded a zero applied watermark")
	}
	if r1.ReplicaReads == 0 {
		t.Errorf("mix never read through the replica tier")
	}
	if len(r1.Injected) == 0 {
		t.Errorf("campaign injected no faults")
	}
}

// runSteps must end at the horizon when its stop never comes, even on a
// clock with no event to carry it there. RunUntil leaves the clock at the
// last executed event, so a step that runs nothing used to repeat
// forever; the wall-clock guard turns that hang into a failure.
func TestRunStepsQuietEnvReturnsAtHorizon(t *testing.T) {
	env := des.NewEnv()
	env.ScheduleFunc(des.Time(3*time.Millisecond), func() {})
	done := make(chan error, 1)
	go func() {
		done <- runSteps(env, 10*time.Millisecond, 25*time.Millisecond, func() bool { return false })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runSteps did not return at the horizon")
	}
	if got, want := env.Now(), des.Time(25*time.Millisecond); got != want {
		t.Fatalf("clock at %v after runSteps, want the horizon %v", got, want)
	}
}

// A replica-rig mix that has not finished by the horizon ends the leg
// instead of spinning, and every op it never ran is reported by name.
func TestReplicaChaosUnfinishedMixReturns(t *testing.T) {
	camp, ok := faults.Named("loss5")
	if !ok {
		t.Fatal("loss5 campaign missing")
	}
	done := make(chan *ReplicaChaosResult, 1)
	go func() {
		res, err := RunReplicaLagChaos(ReplicaChaosConfig{Campaign: camp, Seed: 1, Mode: dfs.DX, Replicas: 3})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res *ReplicaChaosResult
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("replica rig did not return at its horizon")
	}
	if res == nil {
		return
	}
	for i, op := range res.Ops {
		if op.Label != dfs.Figure2Ops[i].Label {
			t.Errorf("op %d labelled %q, want %q", i, op.Label, dfs.Figure2Ops[i].Label)
		}
	}
	if res.Window == 0 && res.Completed == len(res.Ops) {
		t.Errorf("unfinished mix reports %d/%d ops complete", res.Completed, len(res.Ops))
	}
}
