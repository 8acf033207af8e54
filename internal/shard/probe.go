package shard

import (
	"bytes"
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/dfs"
)

// TokenProbeResult reports what a token-cached re-read cost.
type TokenProbeResult struct {
	Shards      int
	Bytes       int           // bytes re-read
	TokenHits   int64         // blocks served from the client's cache
	ServerCPU   time.Duration // CPU charged on any shard node during the re-read
	RemoteReads int64         // remote reads issued during the re-read
}

// TokenRereadProbe measures the token-coherent cache's core claim on a
// fresh sharded rig: after a first read acquires read tokens and caches the
// blocks, a re-read of the same bytes must complete byte-correct with zero
// server CPU and zero remote reads. Returns an error if the bytes are
// wrong or the claim does not hold.
func TokenRereadProbe(shards int) (TokenProbeResult, error) {
	const size = 12 * 1024
	res := TokenProbeResult{Shards: shards, Bytes: size}
	leg := dfs.NewLeg(nil, 0, shards+1)
	err := leg.Setup("probe", 10*time.Second, func(p *des.Proc) error {
		svc := NewService(p, leg.Mgrs[:shards], shards+1, dfs.Geometry{})
		c := NewClerk(p, leg.Mgrs[shards], svc, dfs.DX, WithTokenCache())
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*11 + 3)
		}
		h, err := svc.Store.WriteFile("/export/probe.bin", want)
		if err != nil {
			return err
		}
		if err := svc.WarmFile(h); err != nil {
			return err
		}
		if _, err := c.Read(p, h, 0, size); err != nil {
			return fmt.Errorf("first read: %w", err)
		}
		c.FlushLocal()
		shardNodes := leg.Cluster.Nodes[:shards]
		for _, n := range shardNodes {
			n.ResetCPUAcct()
		}
		var beforeReads int64
		for i := range shardNodes {
			beforeReads += c.Sub(i).RemoteReads
		}
		got, err := c.Read(p, h, 0, size)
		if err != nil {
			return fmt.Errorf("re-read: %w", err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("token-cached re-read returned wrong bytes")
		}
		res.TokenHits = c.TokenHits
		for i, n := range shardNodes {
			for _, d := range n.CPUAcct {
				res.ServerCPU += time.Duration(d)
			}
			res.RemoteReads += c.Sub(i).RemoteReads
		}
		res.RemoteReads -= beforeReads
		return nil
	})
	if err != nil {
		return res, err
	}
	if res.ServerCPU != 0 || res.RemoteReads != 0 {
		return res, fmt.Errorf("token-cached re-read was not free: server CPU %v, %d remote reads",
			res.ServerCPU, res.RemoteReads)
	}
	if res.TokenHits == 0 {
		return res, fmt.Errorf("re-read did not hit the token cache")
	}
	return res, nil
}

// ReplicaProbeResult reports what a replica-served re-read cost the primary.
type ReplicaProbeResult struct {
	Replicas         int
	Bytes            int           // bytes re-read
	ReplicaReads     int64         // block fetches served by chain members
	PrimaryCPU       time.Duration // proc+control+client CPU on the primary
	PrimaryRemoteOps int64         // one-sided ops landed on the primary
}

// ReplicaRereadProbe extends TokenRereadProbe to the replica tier's core
// claim: a read-token holder whose block copies are dropped refetches the
// bytes from chain members with zero primary CPU (client, control, and
// procedure categories — the PR 7 acceptor assertion applied to the
// primary) and zero one-sided operations landed on any primary segment.
// The primary's involvement in a replica read is *nothing at all*.
func ReplicaRereadProbe(replicas int) (ReplicaProbeResult, error) {
	const size = 12 * 1024
	res := ReplicaProbeResult{Replicas: replicas, Bytes: size}
	nodes := 2 + replicas // primary, clerk, chain members
	leg := dfs.NewLeg(nil, 0, nodes)
	probe := func(p *des.Proc) error {
		svc := NewService(p, leg.Mgrs[:1], nodes, dfs.Geometry{})
		c := NewClerk(p, leg.Mgrs[1], svc, dfs.DX, WithTokenCache())
		if err := svc.AttachReplicas(p, 0, leg.Mgrs[2:], 100*time.Microsecond); err != nil {
			return err
		}
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + 5)
		}
		h, err := svc.Store.WriteFile("/export/probe.bin", want)
		if err != nil {
			return err
		}
		if err := svc.WarmFile(h); err != nil {
			return err
		}
		svc.awaitChain(p, 0)
		if _, err := c.Read(p, h, 0, size); err != nil {
			return fmt.Errorf("first read: %w", err)
		}
		// Keep the tokens (and their watermarks), drop every cached
		// block copy: the re-read must move bytes — but only replica
		// bytes.
		c.FlushLocal()
		c.DropTokenCache()
		primary := leg.Cluster.Nodes[0]
		primary.ResetCPUAcct()
		beforeOps := svc.Shards[0].RemoteOps()
		beforeReplica := c.ReplicaReads
		got, err := c.Read(p, h, 0, size)
		if err != nil {
			return fmt.Errorf("re-read: %w", err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("replica re-read returned wrong bytes")
		}
		res.ReplicaReads = c.ReplicaReads - beforeReplica
		res.PrimaryRemoteOps = svc.Shards[0].RemoteOps() - beforeOps
		acct := primary.CPUAcct
		res.PrimaryCPU = time.Duration(acct[cluster.CatProc] + acct[cluster.CatControl] + acct[cluster.CatClient])
		return nil
	}
	var probeErr error
	var probeDone bool
	leg.Env.Spawn("probe", func(p *des.Proc) {
		probeErr = probe(p)
		probeDone = true
	})
	// All assertions are read inside the proc; the chain daemons never
	// idle, so stop as soon as it finishes rather than draining a fixed
	// horizon of empty wakeups.
	if err := runSteps(leg.Env, 10*time.Millisecond, 10*time.Second, func() bool { return probeDone }); err != nil {
		return res, err
	}
	if probeErr != nil {
		return res, probeErr
	}
	if res.PrimaryCPU != 0 || res.PrimaryRemoteOps != 0 {
		return res, fmt.Errorf("replica re-read touched the primary: CPU %v, %d remote ops",
			res.PrimaryCPU, res.PrimaryRemoteOps)
	}
	if res.ReplicaReads == 0 {
		return res, fmt.Errorf("re-read was not served by the replica tier")
	}
	return res, nil
}
