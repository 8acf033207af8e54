package consensus

import (
	"bytes"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
)

// CompactionResult is one compaction soak: a client commits many times
// the slot window's worth of decrees while snapshot decrees recycle the
// log underneath it.
type CompactionResult struct {
	Slots     int    // physical slot window (Config.Slots)
	Commits   int    // decrees the client committed
	Applied   int    // decrees every replica applied (incl. snapshots)
	Snapshots int    // snapshot decrees in the retained suffix
	SnapBase  int    // final compaction watermark
	Digest    uint64 // live log digest on replica 0
	LogsAgree bool   // retained suffixes byte-identical across replicas
	ReplayOK  bool   // checkpoint digest + suffix folds to the live digest
	Window    time.Duration
	Events    uint64
}

// Windows is how many times the log wrapped its physical slot window.
func (r *CompactionResult) Windows() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.Applied) / float64(r.Slots)
}

// RunCompaction drives a 3-acceptor compacting control plane through
// `commits` decrees over a `slots`-slot window — the long-run leg that
// proves Config.Slots is a working-set size, not a horizon. The replay
// audit rebuilds the digest from the checkpoint plus the retained suffix
// and must land exactly on the live one.
func RunCompaction(slots, commits int, seed int64) (*CompactionResult, error) {
	leg := dfs.NewLeg(nil, seed, 4)
	var cp *ControlPlane
	var window time.Duration
	// Scale the horizon with the commit count; a decree commits in ~2-3ms
	// (two one-sided phases over three acceptors), so 5ms per decree only
	// bounds runaways.
	horizon := time.Second + time.Duration(commits)*5*time.Millisecond
	err := leg.Setup("compact.soak", horizon, func(p *des.Proc) error {
		g := NewGroup(p, Config{Slots: slots, Proposers: 5, Compact: true}, leg.Mgrs[:3]...)
		cp = NewControlPlane(p, g, nil)
		if err := cp.Start(p); err != nil {
			return err
		}
		cl := cp.NewClient(p, leg.Mgrs[3])
		start := p.Now()
		for k := 0; k < commits; k++ {
			if err := cl.Noop(p); err != nil {
				return fmt.Errorf("commit %d: %w", k, err)
			}
		}
		window = time.Duration(p.Now().Sub(start))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if window == 0 {
		return nil, fmt.Errorf("soak incomplete: %d commits did not finish before the %v horizon",
			commits, horizon)
	}

	r0 := cp.Replicas()[0]
	res := &CompactionResult{
		Slots:    slots,
		Commits:  commits,
		Applied:  r0.AppliedCount(),
		SnapBase: r0.SnapBase(),
		Digest:   r0.Digest(),
		Window:   window,
		Events:   leg.Env.Events(),
	}

	ref := r0.Log()
	s0, _, _, d0 := r0.Checkpoint(nil)
	res.LogsAgree = true
	for _, r := range cp.Replicas()[1:] {
		if r.AppliedCount() != r0.AppliedCount() || r.SnapBase() != r0.SnapBase() {
			res.LogsAgree = false
			break
		}
		for s, cmd := range r.Log() {
			if !bytes.Equal(cmd.Encode(), ref[s].Encode()) {
				res.LogsAgree = false
				break
			}
		}
	}

	replay := d0
	for _, cmd := range ref[s0:] {
		if cmd.Kind == KindSnapshot {
			res.Snapshots++
		}
		replay = foldDigest(replay, cmd.Encode())
	}
	res.ReplayOK = replay == r0.Digest()
	return res, nil
}
