package shard

import (
	"testing"

	"netmem/internal/des"
)

func TestAutoscalerScaleToBounds(t *testing.T) {
	r := newElasticRig(t, 2, 1, 1, 1)
	mgr := NewManager(r.svc, r.mgrs[2:3])
	r.run(t, func(p *des.Proc) {
		if err := mgr.ScaleTo(p, 3); err != nil {
			t.Fatalf("scale to 3: %v", err)
		}
		if err := mgr.ScaleTo(p, 4); err == nil {
			t.Fatal("scale past the pool should fail")
		}
		if err := mgr.ScaleTo(p, 2); err != nil {
			t.Fatalf("scale back to 2: %v", err)
		}
		if err := mgr.ScaleTo(p, 1); err == nil {
			t.Fatal("draining a founding member should fail")
		}
		if r.svc.Size() != 2 {
			t.Fatalf("size=%d after bounded sweep", r.svc.Size())
		}
	})
}
