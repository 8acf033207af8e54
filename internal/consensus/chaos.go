package consensus

import (
	"bytes"
	"fmt"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/nameserver"
)

// Control-plane chaos harness: the Figure 2 operation mix runs on a data
// plane (one file server, one clerk) while a replicated control plane —
// three acceptor/replica machines carrying the name registry — commits a
// steady decree stream, and the campaign kills a control-plane machine
// mid-run. The single-server and sharded harnesses measure what a DATA
// outage costs; this one measures the opposite guarantee: the data plane
// never stalls when the CONTROL plane degrades, the survivors re-elect a
// leaseholder deterministically, and the log keeps committing on a
// majority of the original acceptor set.

// ChaosConfig selects one control-plane chaos run.
type ChaosConfig struct {
	// Campaign is the fault schedule. Control replicas run on nodes 0..2
	// and replica 0 holds the initial lease, so the stock "leadercrash"
	// campaign (crash node 0 at 202ms, no restart) kills the leader.
	Campaign faults.Campaign
	// Seed seeds the simulation environment; 0 means des.DefaultSeed.
	Seed int64
	// Mode is the file-service structure (DX for the paper's proposal).
	Mode dfs.Mode
}

// ChaosResult is one full control-plane chaos run: the data plane's
// byte-verified Figure 2 mix in the embedded result, the control plane's
// outcome beside it.
type ChaosResult struct {
	dfs.ChaosResult

	Replicas        int
	LeaderBefore    int           // lease holder entering the mix
	LeaderAfter     int           // lease holder after the campaign
	Elections       int64         // completed re-elections
	ElectionLatency time.Duration // watchdog verdict → lease applied
	Decrees         int           // decrees applied by every surviving replica
	DriverCommits   int           // registry decrees the driver committed
	DriverErrors    int           // driver proposals that failed
	DecreesPerSec   float64       // driver commit rate under the campaign
	SteadyPerSec    float64       // driver commit rate in the fault-free leg
	LogsAgree       bool          // surviving replica logs byte-identical
	RegistryOK      bool          // replicated registry converged on survivors

	// AcceptorCPU is the per-category CPU burned on the surviving
	// control-plane machines during the measured window. The agreement
	// path itself is one-sided — proc/control/client time here comes from
	// the replicas applying decrees and heartbeating leases, not from
	// prepare/accept handling (see BenchmarkCASContention for the
	// pure-agreement measurement).
	AcceptorCPU map[string]time.Duration
}

// Rig geometry: control replicas on nodes 0..2, the file server on node
// 3, the clerk (and the control-plane driver) on node 4.
const (
	chaosReplicas   = 3
	chaosServerNode = 3
	chaosClerkNode  = 4
	chaosNodes      = 5
)

// driverPeriod is the decree cadence of the control-plane driver.
const driverPeriod = 250 * time.Microsecond

// RunChaos measures the mix twice — fault-free baseline, then under the
// campaign — on identical topologies (control plane up and committing in
// both legs, so the background traffic matches).
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	base, leg, err := dfs.RunLegs("consensus: chaos", cfg.Campaign, func(camp *faults.Campaign) (*cpChaosLeg, error) {
		return runChaosMix(camp, cfg.Seed, cfg.Mode)
	})
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{
		ChaosResult:     leg.Result(cfg.Campaign.Name, cfg.Mode, base.Leg),
		Replicas:        chaosReplicas,
		LeaderBefore:    leg.leaderBefore,
		LeaderAfter:     leg.leaderAfter,
		Elections:       leg.cp.Elections,
		ElectionLatency: time.Duration(leg.cp.LastElection),
		Decrees:         leg.decrees,
		DriverCommits:   leg.commits,
		DriverErrors:    leg.driverErrs,
		LogsAgree:       leg.logsAgree,
		RegistryOK:      leg.registryOK,
		AcceptorCPU:     leg.acceptorCPU,
	}
	if leg.driverWindow > 0 {
		res.DecreesPerSec = float64(leg.commits) / leg.driverWindow.Seconds()
	}
	if base.driverWindow > 0 {
		res.SteadyPerSec = float64(base.commits) / base.driverWindow.Seconds()
	}
	return res, nil
}

// cpChaosLeg is one measured leg.
type cpChaosLeg struct {
	*dfs.Leg
	cp           *ControlPlane
	leaderBefore int
	leaderAfter  int
	commits      int
	driverErrs   int
	driverWindow time.Duration
	decrees      int
	logsAgree    bool
	registryOK   bool
	acceptorCPU  map[string]time.Duration
	auditErr     error
}

// replayAtOnce is the replay gate of a rig without data-plane failover: a
// failed op lost its retry budget to link faults, so replay it straight
// away.
func replayAtOnce(*des.Proc, dfs.OpSpec) error { return nil }

func runChaosMix(camp *faults.Campaign, seed int64, mode dfs.Mode) (*cpChaosLeg, error) {
	leg := &cpChaosLeg{Leg: dfs.NewLeg(camp, seed, chaosNodes)}
	mgrs, cl := leg.Mgrs, leg.Cluster
	var plane *dfs.ServerPlane
	var cli *Client
	err := leg.Setup("cpchaos.setup", 200*time.Millisecond, func(p *des.Proc) (err error) {
		// The name-service clerks boot first: their well-known registry
		// segments carry fixed generation numbers that assume they are each
		// control node's first exports.
		peers := []int{0, 1, 2}
		clerks := make([]*nameserver.Clerk, chaosReplicas)
		for i := range clerks {
			clerks[i] = nameserver.New(mgrs[i], peers, nameserver.Config{})
		}
		p.Sleep(time.Millisecond)
		// Lanes: 3 replicas + the driver; Slots sized for the decree stream
		// the driver commits across the mix window.
		g := NewGroup(p, Config{Acceptors: chaosReplicas, Proposers: chaosReplicas + 1, Slots: 1024}, mgrs[:chaosReplicas]...)
		leg.cp = NewControlPlane(p, g, clerks)
		if err := leg.cp.Start(p); err != nil {
			return err
		}
		plane, err = dfs.NewServerPlane(p, mgrs[chaosServerNode], mgrs[chaosClerkNode], chaosNodes, mode,
			dfs.CyclicPattern(16384), dfs.WithReliable())
		if err != nil {
			return err
		}
		cli = leg.cp.NewClient(p, mgrs[chaosClerkNode])
		return nil
	})
	if err != nil {
		return nil, err
	}

	mixDone := false
	lastName := ""
	// Driver: a steady stream of registry decrees through the log, the
	// control-plane analogue of the mix's data traffic. It keeps proposing
	// straight through the crash — commits after it prove the log lives on
	// a majority of the original acceptors.
	leg.Env.Spawn("cpchaos.driver", func(p *des.Proc) {
		p.SleepUntil(des.Time(200 * time.Millisecond))
		start := p.Now()
		for i := 0; !mixDone; i++ {
			name := fmt.Sprintf("cp.obj%04d", i)
			rec := nameserver.Record{
				Name: name, Node: chaosServerNode,
				Seg: uint16(0x2000 + i), Gen: uint16(i + 1), Epoch: 1, Size: 64,
			}
			if err := cli.RegisterName(p, rec); err != nil {
				leg.driverErrs++
			} else {
				leg.commits++
				lastName = name
			}
			p.Sleep(driverPeriod)
		}
		leg.driverWindow = time.Duration(p.Now().Sub(start))
	})

	leg.Env.Spawn("cpchaos.mix", func(p *des.Proc) {
		// Campaign crash schedules are keyed to virtual time; anchor the mix
		// at t = 200ms so the crash lands inside the measured run.
		p.SleepUntil(des.Time(200 * time.Millisecond))
		leg.leaderBefore = leg.cp.Leader()
		for i := 0; i < chaosReplicas; i++ {
			cl.Nodes[i].ResetCPUAcct()
		}
		start := p.Now()
		leg.RunMix(p, plane.Mix, 0, replayAtOnce)
		// The mix is quick; hold the window open past the crash so the
		// re-election and the driver's post-crash commits are measured.
		if camp != nil {
			for _, c := range camp.Crashes {
				p.SleepUntil(des.Time(c.At + 20*time.Millisecond))
			}
		}
		leg.Window = time.Duration(p.Now().Sub(start))
		mixDone = true
		// Settle, then audit the control plane (untimed): surviving replicas
		// must agree byte-for-byte on the log prefix they have all applied,
		// and the replicated registry must answer on every survivor.
		p.Sleep(5 * time.Millisecond)
		leg.acceptorCPU = make(map[string]time.Duration)
		for i := 0; i < chaosReplicas; i++ {
			if cl.Nodes[i].Failed() {
				continue
			}
			for cat, d := range cl.Nodes[i].CPUAcct {
				leg.acceptorCPU[cat] += time.Duration(d)
			}
		}
		leg.leaderAfter = leg.cp.Leader()
		leg.auditControlPlane(p, lastName)
	})

	// Heartbeat and watchdog daemons never idle; the horizon is finite.
	if err := leg.Env.RunUntil(des.Time(3 * time.Second)); err != nil {
		return nil, err
	}
	if leg.auditErr != nil {
		return nil, leg.auditErr
	}
	return leg, nil
}

// auditControlPlane verifies survivor agreement after the campaign.
func (leg *cpChaosLeg) auditControlPlane(p *des.Proc, lastName string) {
	var live []*Replica
	for _, r := range leg.cp.Replicas() {
		if !r.acc.M.Node.Failed() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		leg.auditErr = fmt.Errorf("consensus: no surviving replicas to audit")
		return
	}
	// Common applied horizon, then byte-compare the prefix.
	h := live[0].AppliedCount()
	for _, r := range live[1:] {
		if n := r.AppliedCount(); n < h {
			h = n
		}
	}
	leg.decrees = h
	leg.logsAgree = true
	for _, r := range live[1:] {
		a, b := live[0].Log(), r.Log()
		for s := 0; s < h; s++ {
			if !bytes.Equal(a[s].Encode(), b[s].Encode()) {
				leg.logsAgree = false
				leg.auditErr = fmt.Errorf("consensus: replica %d diverges from %d at slot %d", r.Idx(), live[0].Idx(), s)
				return
			}
		}
	}
	// Every survivor's clerk answers the last committed registry decree
	// locally — no remote lookup, no dependence on the dead machine.
	leg.registryOK = lastName != ""
	for _, r := range live {
		if r.Clerk() == nil {
			continue
		}
		rec, err := r.Clerk().Lookup(p, lastName, -1, false)
		if err != nil || rec.Node != chaosServerNode {
			leg.registryOK = false
		}
	}
}
