package workload

import (
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/rmem"
	"netmem/internal/shard"
)

// The closed-loop harnesses (RunScale, RunShardScale, RunElastic) share one
// client population, one set of defaults and one point arithmetic; each
// keeps only its topology and what it measures around the loop.

// loopDefaults applies the defaults every closed-loop config shares: a
// negative think time clamps to zero, the trace seed defaults to 1, and the
// tree to 4 directories of 8 files.
func loopDefaults(think *time.Duration, seed *int64, dirs, perDir *int) {
	if *think < 0 {
		*think = 0
	}
	if *seed == 0 {
		*seed = 1
	}
	if *dirs <= 0 {
		*dirs = 4
	}
	if *perDir <= 0 {
		*perDir = 8
	}
}

// clients is a closed-loop client population: one daemon per clerk, each
// replaying its own Table 1a stream back to back with a think-time pause.
type clients struct {
	// rec receives every outcome. Each op reads it afresh as it starts, so
	// the harness can swap in a fresh recorder at a phase boundary (the DES is
	// single-threaded: no races).
	rec  *Recorder
	stop bool  // ends every loop before its next op
	err  error // the failure that ended a loop, when failures are fatal
}

// startClients spawns client i on clerks[i], its trace seeded seed+i. With
// fatal set, a failed op ends that client and lands in err; otherwise
// failures only count in rec. LocalCaching stays off: every op flushes the
// clerk's client-side cache, so each one exercises the clerk↔server path.
func startClients[C FileAPI](env *des.Env, clerks []C, tree *Tree, seed int64, think time.Duration, fatal bool) *clients {
	cs := &clients{rec: NewRecorder()}
	for i, clerk := range clerks {
		env.SpawnDaemon(fmt.Sprintf("client%d", i), func(p *des.Proc) {
			gen := NewGenerator(seed+int64(i), len(tree.Files), len(tree.Dirs))
			rep := &Replayer{Clerk: clerk, Tree: tree}
			for !cs.stop {
				op := gen.Next()
				rep.Rec = cs.rec
				if err := rep.Do(p, op); err != nil && fatal {
					cs.err = fmt.Errorf("client %d: %v: %w", i, op.Activity, err)
					return
				}
				p.Sleep(think)
			}
		})
	}
	return cs
}

// loopPoint is what one measured window of a closed loop delivered.
type loopPoint struct {
	Ops       int64
	OpsPerSec float64
	MeanLatMs float64
	P99Ms     float64
}

// window runs the loop from start for w of virtual time and reports the
// point; a fatal client failure fails the window.
func (cs *clients) window(env *des.Env, start des.Time, w time.Duration) (loopPoint, error) {
	if err := env.RunUntil(start.Add(w)); err != nil {
		return loopPoint{}, err
	}
	if cs.err != nil {
		return loopPoint{}, cs.err
	}
	st := &cs.rec.Tenants[0]
	pt := loopPoint{Ops: st.Ops, OpsPerSec: float64(st.Ops) / time.Duration(env.Now().Sub(start)).Seconds()}
	if st.Ops > 0 {
		pt.MeanLatMs = (st.SumLat / time.Duration(st.Ops)).Seconds() * 1000
		pt.P99Ms = ms(st.Lat.P99())
	}
	return pt, nil
}

// shardClerks builds one sharding-aware clerk per manager, meshed as token
// peers when tokenCache layers the token-coherent block cache. The token
// cache survives FlushLocal by design, so it still shows up in a closed
// loop — as reads the servers never see.
func shardClerks(p *des.Proc, mgrs []*rmem.Manager, svc *shard.Service, mode dfs.Mode, tokenCache bool) []*shard.Clerk {
	var copts []shard.ClerkOption
	if tokenCache {
		copts = append(copts, shard.WithTokenCache())
	}
	clerks := make([]*shard.Clerk, len(mgrs))
	for i, m := range mgrs {
		clerks[i] = shard.NewClerk(p, m, svc, mode, copts...)
	}
	if tokenCache {
		shard.ConnectTokenPeers(p, clerks...)
	}
	return clerks
}
