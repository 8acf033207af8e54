package shard

import (
	"fmt"

	"netmem/internal/des"
	"netmem/internal/rmem"
)

// Manager sizes the elastic fleet: it holds the spare capacity and drives
// Service.AddShard/DrainShard to a requested shard count. Joiners come
// from the front of the pool; drains run LIFO, so the fleet contracts back
// onto its founding members and a drained machine is the next to rejoin.
type Manager struct {
	svc  *Service
	pool []*rmem.Manager // spare capacity, next joiner first

	slotMgr map[int]*rmem.Manager // live pool-owned slot → its manager
	joined  []int                 // pool-owned slots, join order (drain LIFO)

	// Stats.
	Joins, Drains int64
}

// NewManager builds a fleet manager over svc with the given spare capacity.
func NewManager(svc *Service, pool []*rmem.Manager) *Manager {
	return &Manager{
		svc:     svc,
		pool:    append([]*rmem.Manager(nil), pool...),
		slotMgr: make(map[int]*rmem.Manager),
	}
}

func (a *Manager) join(p *des.Proc) error {
	m := a.pool[0]
	slot, err := a.svc.AddShard(p, m)
	if err != nil {
		return err
	}
	a.pool = a.pool[1:]
	a.slotMgr[slot] = m
	a.joined = append(a.joined, slot)
	a.Joins++
	if tr := a.svc.mb.env.Tracer(); tr != nil {
		tr.Count("shard.autoscale.joins", 1)
	}
	return nil
}

func (a *Manager) drain(p *des.Proc) error {
	slot := a.joined[len(a.joined)-1]
	if err := a.svc.DrainShard(p, slot); err != nil {
		return err
	}
	a.joined = a.joined[:len(a.joined)-1]
	a.pool = append([]*rmem.Manager{a.slotMgr[slot]}, a.pool...)
	delete(a.slotMgr, slot)
	a.Drains++
	if tr := a.svc.mb.env.Tracer(); tr != nil {
		tr.Count("shard.autoscale.drains", 1)
	}
	return nil
}

// ScaleTo joins or drains until the live shard count reaches n — the
// deterministic sweep driver fsbench's elastic experiment uses. It never
// drains a founding member and never joins beyond the pool.
func (a *Manager) ScaleTo(p *des.Proc, n int) error {
	for a.svc.Size() < n {
		if len(a.pool) == 0 {
			return fmt.Errorf("shard: scale to %d: pool exhausted at %d", n, a.svc.Size())
		}
		if err := a.join(p); err != nil {
			return err
		}
	}
	for a.svc.Size() > n {
		if len(a.joined) == 0 {
			return fmt.Errorf("shard: scale to %d: no joiner left to drain at %d", n, a.svc.Size())
		}
		if err := a.drain(p); err != nil {
			return err
		}
	}
	return nil
}
