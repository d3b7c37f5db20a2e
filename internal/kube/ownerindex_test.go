package kube

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// ownerIndexOwners is the owner universe the op interpreter draws from:
// the zero owner (unowned pods) and one of each controller kind, two of
// them sharing a name across kinds.
var ownerIndexOwners = []OwnerRef{
	{},
	{Kind: KindStatefulSet, Name: "a"},
	{Kind: KindDeployment, Name: "a"},
	{Kind: KindJob, Name: "b"},
}

// applyOwnerOp interprets one 3-byte op against s: Put (create or
// re-Put, possibly with a different owner), Delete, or UpdatePod whose
// fn may or may not change the owner.
func applyOwnerOp(s *Store, op, pod, owner byte) {
	name := fmt.Sprintf("pod-%d", pod%8)
	o := ownerIndexOwners[int(owner)%len(ownerIndexOwners)]
	switch op % 4 {
	case 0, 1:
		s.PutPod(&Pod{Name: name, Owner: o})
	case 2:
		s.Delete(KindPod, name)
	case 3:
		s.UpdatePod(name, func(p *Pod) {
			p.Owner = o
			p.Status.Phase = PodRunning
		})
	}
}

// checkOwnerIndex compares PodsOf for every owner against the full-scan
// oracle (ListPods filtered by Owner), and checks the index keeps no
// entry for an owner without pods.
func checkOwnerIndex(t *testing.T, s *Store, step int) {
	t.Helper()
	all := s.ListPods("")
	for _, o := range ownerIndexOwners {
		var want []string
		for _, p := range all {
			if p.Owner == o {
				want = append(want, p.Name)
			}
		}
		var got []string
		for _, p := range s.PodsOf(o.Kind, o.Name) {
			if p.Owner != o {
				t.Fatalf("step %d: PodsOf(%v) returned %s owned by %v", step, o, p.Name, p.Owner)
			}
			got = append(got, p.Name)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: PodsOf(%v) = %v, full scan says %v", step, o, got, want)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for o, names := range s.owned {
		if len(names) == 0 {
			t.Fatalf("step %d: owner %v indexed with no pods", step, o)
		}
	}
}

func runOwnerOps(t *testing.T, ops []byte) {
	s := NewStore()
	for i := 0; i+3 <= len(ops); i += 3 {
		applyOwnerOp(s, ops[i], ops[i+1], ops[i+2])
		checkOwnerIndex(t, s, i/3)
	}
}

// TestOwnerIndexMatchesFullScan is the owner index's model test: random
// sequences of Put, re-Put with a different owner, Delete and UpdatePod
// (which may move a pod between owners) must leave PodsOf equal to the
// full-scan oracle after every op.
func TestOwnerIndexMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		ops := make([]byte, 3*60)
		rng.Read(ops)
		runOwnerOps(t, ops)
	}
}

func FuzzOwnerIndex(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 1, 3, 1, 3, 2, 2, 0})
	f.Add([]byte{1, 0, 0, 3, 0, 2, 0, 0, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runOwnerOps(t, ops)
	})
}

// idleCluster returns a cluster whose control loops never started, so a
// test can drive one reconcile call and count exactly its allocations.
// jobPods unrelated Job-owned pods stand in for finished jobs whose
// Guardian kube keeps: a Job that exhausted its backoff stays, Failed,
// with its last pod.
func idleCluster(jobPods int) *Cluster {
	c := newCluster(Config{})
	for i := 0; i < jobPods; i++ {
		job := fmt.Sprintf("jobmonitor-training-%06d", i)
		c.store.Put(KindJob, job, &Job{Name: job, Failed: true})
		c.store.PutPod(&Pod{Name: job + "-attempt-0", Owner: OwnerRef{Kind: KindJob, Name: job},
			Status: PodStatus{Phase: PodFailed}})
	}
	return c
}

// allocBytesPerRun reports f's mean allocated bytes per call, measured
// the way testing.AllocsPerRun measures allocation counts.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// assertSizeIndependent runs the op built for a store with few and with
// many unrelated finished-job pods, and requires the same allocation
// count and (within a map-growth slack) the same allocated bytes.
func assertSizeIndependent(t *testing.T, what string, build func(c *Cluster) func()) {
	t.Helper()
	const small, large = 100, 10_000
	opSmall, opLarge := build(idleCluster(small)), build(idleCluster(large))
	aSmall, aLarge := testing.AllocsPerRun(100, opSmall), testing.AllocsPerRun(100, opLarge)
	if aSmall != aLarge {
		t.Errorf("%s: %v allocs with %d finished-job pods, %v with %d", what, aSmall, small, aLarge, large)
	}
	bSmall, bLarge := allocBytesPerRun(100, opSmall), allocBytesPerRun(100, opLarge)
	if bLarge > bSmall+bSmall/10 {
		t.Errorf("%s: %d B/op with %d finished-job pods, %d B/op with %d", what, bSmall, small, bLarge, large)
	}
}

// TestReconcileCostIndependentOfFinishedJobs pins the per-owner
// controller paths by counts: a StatefulSet scale-down and an
// owner-deleted cascade allocate the same with 100 or 10,000 finished
// jobs' pods in the store.
func TestReconcileCostIndependentOfFinishedJobs(t *testing.T) {
	ss := &StatefulSet{Name: "learner-training-x", Replicas: 1}
	owner := OwnerRef{Kind: KindStatefulSet, Name: ss.Name}
	learner := func(i int) *Pod {
		return &Pod{Name: fmtPodName(ss.Name, i), Owner: owner}
	}
	assertSizeIndependent(t, "scale-down", func(c *Cluster) func() {
		c.store.Put(KindStatefulSet, ss.Name, ss)
		c.store.PutPod(learner(0))
		return func() {
			c.store.PutPod(learner(1))
			c.reconcileStatefulSet(ss)
			if _, ok := c.store.GetPod(learner(1).Name); ok {
				t.Fatal("scale-down kept the excess ordinal")
			}
		}
	})
	dirty := map[ownerKey]struct{}{{KindStatefulSet, ss.Name}: {}}
	assertSizeIndependent(t, "owner-deleted cascade", func(c *Cluster) func() {
		return func() {
			c.store.PutPod(learner(0))
			c.store.PutPod(learner(1))
			c.reconcileDirty(dirty)
			if len(c.store.PodsOf(KindStatefulSet, ss.Name)) != 0 {
				t.Fatal("cascade left pods of the deleted owner")
			}
		}
	})
}
