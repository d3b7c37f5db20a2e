package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// gpuNode builds a node with the given GPUs plus ample CPU/memory.
func gpuNode(name, gpuType string, gpus int) *Node {
	cap := Resources{MilliCPU: 64000, MemoryMB: 256000, GPUs: gpus}
	return &Node{Name: name, GPUType: gpuType, Capacity: cap, Free: cap}
}

func cluster(machines, gpusPer int) *ClusterState {
	nodes := make([]*Node, machines)
	for i := range nodes {
		nodes[i] = gpuNode(fmt.Sprintf("node%02d", i), "K80", gpusPer)
	}
	return NewClusterState(nodes)
}

func gang(jobID string, learners, gpusPerLearner int) *Gang {
	g := &Gang{JobID: jobID, User: "u"}
	for i := 0; i < learners; i++ {
		g.Pods = append(g.Pods, PodSpec{
			Name:   fmt.Sprintf("%s-learner-%d", jobID, i),
			JobID:  jobID,
			Demand: Resources{MilliCPU: 4000, MemoryMB: 24000, GPUs: gpusPerLearner},
		})
	}
	return g
}

// TestSpreadFragmentationPaperExample reproduces §3.4's example: 4
// single-GPU jobs on a 4-machine × 4-GPU cluster. Spread strands one
// job on each machine so a subsequent 4-GPU job cannot fit; Pack leaves
// three machines empty.
func TestSpreadFragmentationPaperExample(t *testing.T) {
	for _, tc := range []struct {
		policy   PodPolicy
		bigFits  bool
		distinct int
	}{
		{Spread{}, false, 4},
		{Pack{}, true, 1},
	} {
		cs := cluster(4, 4)
		used := map[string]bool{}
		for j := 0; j < 4; j++ {
			p := &PodSpec{Name: fmt.Sprintf("job%d-l0", j), JobID: fmt.Sprintf("job%d", j),
				Demand: Resources{MilliCPU: 4000, MemoryMB: 24000, GPUs: 1}}
			node, fail := tc.policy.PlacePod(p, cs)
			if fail != nil {
				t.Fatalf("%s: placing job%d: %v", tc.policy.Name(), j, fail)
			}
			cs.Assign(node, p.Demand)
			used[node] = true
		}
		if len(used) != tc.distinct {
			t.Fatalf("%s used %d machines, want %d", tc.policy.Name(), len(used), tc.distinct)
		}
		big := &PodSpec{Name: "big-l0", JobID: "big", Demand: Resources{MilliCPU: 4000, MemoryMB: 24000, GPUs: 4}}
		_, fail := tc.policy.PlacePod(big, cs)
		fits := fail == nil
		if fits != tc.bigFits {
			t.Fatalf("%s: 4-GPU job fits=%v, want %v (fail=%v)", tc.policy.Name(), fits, tc.bigFits, fail)
		}
	}
}

func TestFeasibilityReasons(t *testing.T) {
	// GPU-type mismatch dominates when all nodes are the wrong type.
	cs := NewClusterState([]*Node{gpuNode("a", "K80", 2), gpuNode("b", "K80", 2)})
	p := &PodSpec{Name: "p", Demand: Resources{GPUs: 1}, GPUType: "P100"}
	_, reason := cs.FeasibleNodes(p)
	if reason != ReasonNodeSelector {
		t.Fatalf("reason = %v, want MatchNodeSelector", reason)
	}
	// GPU exhaustion.
	cs.Assign("a", Resources{GPUs: 2})
	cs.Assign("b", Resources{GPUs: 2})
	p2 := &PodSpec{Name: "p2", Demand: Resources{GPUs: 1}, GPUType: "K80"}
	_, reason = cs.FeasibleNodes(p2)
	if reason != ReasonInsufficientGPU {
		t.Fatalf("reason = %v, want Insufficient GPU", reason)
	}
	// Unschedulable dominates when every matching node is cordoned.
	v1, v2 := gpuNode("v1", "V100", 2), gpuNode("v2", "V100", 2)
	v1.Unschedulable, v2.Unschedulable = true, true
	cs2 := NewClusterState([]*Node{gpuNode("k", "K80", 2), v1, v2})
	p3 := &PodSpec{Name: "p3", Demand: Resources{GPUs: 1}, GPUType: "V100"}
	_, reason = cs2.FeasibleNodes(p3)
	if reason != ReasonUnschedulable {
		t.Fatalf("reason = %v, want NodeUnschedulable", reason)
	}
}

func TestGreedyGangAllOrNothing(t *testing.T) {
	cs := cluster(2, 2) // 4 GPUs total
	pol := GreedyGang{Pod: Pack{}}
	// 2 learners x 2 GPUs fits.
	as, fail := pol.PlaceGang(gang("j1", 2, 2), cs)
	if fail != nil {
		t.Fatalf("gang placement failed: %v", fail)
	}
	if len(as) != 2 {
		t.Fatalf("assignments = %v", as)
	}
	for _, a := range as {
		cs.Assign(a.Node, Resources{MilliCPU: 4000, MemoryMB: 24000, GPUs: 2})
	}
	// Next gang cannot fit at all; cluster must be untouched after the
	// failed attempt.
	free, _ := cs.TotalGPUs()
	_, fail = pol.PlaceGang(gang("j2", 2, 1), cs)
	if fail == nil {
		t.Fatal("oversubscribed gang placed")
	}
	free2, _ := cs.TotalGPUs()
	if free != free2 {
		t.Fatalf("failed gang placement leaked resources: %d -> %d", free, free2)
	}
}

func TestBSAPlacesAndPacks(t *testing.T) {
	rng := sim.NewRNG(7)
	bsa := NewBSA(rng)
	cs := cluster(4, 4)
	// A 2x2 gang should land on ONE machine (packing objective).
	as, fail := bsa.PlaceGang(gang("j1", 2, 2), cs)
	if fail != nil {
		t.Fatalf("BSA failed: %v", fail)
	}
	if as[0].Node != as[1].Node {
		t.Fatalf("BSA split a packable gang: %v", as)
	}
}

func TestBSARespectsGPUType(t *testing.T) {
	rng := sim.NewRNG(7)
	bsa := NewBSA(rng)
	nodes := []*Node{gpuNode("k", "K80", 4), gpuNode("v", "V100", 4)}
	cs := NewClusterState(nodes)
	g := gang("j1", 2, 2)
	for i := range g.Pods {
		g.Pods[i].GPUType = "V100"
	}
	as, fail := bsa.PlaceGang(g, cs)
	if fail != nil {
		t.Fatalf("BSA failed: %v", fail)
	}
	for _, a := range as {
		if a.Node != "v" {
			t.Fatalf("pod on wrong GPU type: %v", as)
		}
	}
}

func TestBSAFailsCleanlyWhenImpossible(t *testing.T) {
	bsa := NewBSA(sim.NewRNG(7))
	cs := cluster(2, 2)
	_, fail := bsa.PlaceGang(gang("big", 2, 3), cs)
	if fail == nil {
		t.Fatal("impossible gang placed")
	}
	if fail.Reason != ReasonInsufficientGPU {
		t.Fatalf("reason = %v", fail.Reason)
	}
}

func TestQueueFCFSLargestGangTieBreak(t *testing.T) {
	var q Queue
	t0 := time.Unix(1000, 0)
	q.Push(gang("small", 1, 1), t0)
	q.Push(gang("large", 4, 2), t0) // same instant, more GPUs
	q.Push(gang("later", 8, 4), t0.Add(time.Second))
	want := []string{"large", "small", "later"}
	for _, w := range want {
		got := q.pop()
		if got.Gang.JobID != w {
			t.Fatalf("pop = %s, want %s", got.Gang.JobID, w)
		}
	}
}

func TestQueueRemove(t *testing.T) {
	var q Queue
	t0 := time.Unix(0, 0)
	q.Push(gang("a", 1, 1), t0)
	q.Push(gang("b", 1, 1), t0.Add(time.Second))
	if !q.Remove("a") {
		t.Fatal("remove existing failed")
	}
	if q.Remove("a") {
		t.Fatal("double remove succeeded")
	}
	if q.Len() != 1 || q.Peek().Gang.JobID != "b" {
		t.Fatalf("queue = %v", q.Items())
	}
}

func TestDispatcherStrictFCFSBlocksBehindHead(t *testing.T) {
	cs := cluster(1, 4)
	var q Queue
	t0 := time.Unix(0, 0)
	q.Push(gang("huge", 2, 4), t0)          // needs 8 GPUs: blocked
	q.Push(gang("tiny", 1, 1), t0.Add(1e9)) // would fit
	d := &Dispatcher{Policy: GreedyGang{Pod: Pack{}}}
	placed, fail := d.Dispatch(&q, cs, t0.Add(2e9))
	if len(placed) != 0 {
		t.Fatalf("strict FCFS dispatched %v behind blocked head", placed)
	}
	if fail == nil {
		t.Fatal("no failure reported for blocked head")
	}
	if q.Len() != 2 {
		t.Fatalf("queue len = %d", q.Len())
	}
}

func TestDispatcherBackfill(t *testing.T) {
	cs := cluster(1, 4)
	var q Queue
	t0 := time.Unix(0, 0)
	q.Push(gang("huge", 2, 4), t0)
	q.Push(gang("tiny", 1, 1), t0.Add(1e9))
	d := &Dispatcher{Policy: GreedyGang{Pod: Pack{}}, Backfill: true}
	placed, _ := d.Dispatch(&q, cs, t0.Add(2e9))
	if len(placed) != 1 || placed[0].Gang.JobID != "tiny" {
		t.Fatalf("backfill placed %v", placed)
	}
	if q.Len() != 1 {
		t.Fatalf("queue len = %d", q.Len())
	}
}

func TestDispatcherDrainsInOrder(t *testing.T) {
	cs := cluster(4, 4)
	var q Queue
	t0 := time.Unix(0, 0)
	for i := 0; i < 4; i++ {
		q.Push(gang(fmt.Sprintf("j%d", i), 2, 2), t0.Add(time.Duration(i)*time.Second))
	}
	d := &Dispatcher{Policy: GreedyGang{Pod: Pack{}}}
	placed, fail := d.Dispatch(&q, cs, t0.Add(time.Minute))
	if fail != nil {
		t.Fatalf("unexpected failure: %v", fail)
	}
	if len(placed) != 4 {
		t.Fatalf("placed %d, want 4", len(placed))
	}
	free, _ := cs.TotalGPUs()
	if free != 0 {
		t.Fatalf("free GPUs = %d, want 0", free)
	}
	if placed[0].QueuedFor <= placed[3].QueuedFor {
		t.Fatal("queue delays not FCFS-consistent")
	}
}

func TestAdmissionQuotaFlow(t *testing.T) {
	a := NewAdmission(16)
	a.SetQuota(UserQuota{User: "alice", Tier: TierPaid, GPUs: 8})
	a.SetQuota(UserQuota{User: "bob", Tier: TierPaid, GPUs: 8})

	g1 := gang("a1", 2, 2) // 4 GPUs
	g1.User = "alice"
	dec, err := a.Admit(g1)
	if err != nil || dec != AdmitInQuota {
		t.Fatalf("admit = %v %v", dec, err)
	}
	g2 := gang("a2", 4, 2) // 8 GPUs -> alice at 12 > 8 quota
	g2.User = "alice"
	dec, err = a.Admit(g2)
	if err != nil || dec != AdmitOverQuota {
		t.Fatalf("over-quota admit = %v %v", dec, err)
	}
	if a.Usage("alice") != 12 {
		t.Fatalf("usage = %d", a.Usage("alice"))
	}
	// Unknown user rejected.
	g3 := gang("x1", 1, 1)
	g3.User = "mallory"
	if dec, _ := a.Admit(g3); dec != Reject {
		t.Fatalf("unknown user admitted: %v", dec)
	}
	// Cluster limit rejected: bob asking 8 would exceed 16 total (12+8).
	g4 := gang("b1", 4, 2)
	g4.User = "bob"
	if dec, _ := a.Admit(g4); dec != Reject {
		t.Fatalf("cluster-limit violation admitted: %v", dec)
	}
	a.Release("a2")
	if a.Usage("alice") != 4 {
		t.Fatalf("usage after release = %d", a.Usage("alice"))
	}
}

// TestPreemptionScenarios covers the two §3.6 preemption cases: free
// users under load, and user A's over-quota job when user B reclaims.
func TestPreemptionScenarios(t *testing.T) {
	a := NewAdmission(0)
	a.SetQuota(UserQuota{User: "free1", Tier: TierFree, GPUs: 2})
	a.SetQuota(UserQuota{User: "payA", Tier: TierPaid, GPUs: 8})
	a.SetQuota(UserQuota{User: "payB", Tier: TierPaid, GPUs: 8})

	gf := gang("freejob", 1, 2)
	gf.User = "free1"
	if _, err := a.Admit(gf); err != nil {
		t.Fatal(err)
	}
	gA1 := gang("a-in", 2, 2) // in quota (4)
	gA1.User = "payA"
	if _, err := a.Admit(gA1); err != nil {
		t.Fatal(err)
	}
	gA2 := gang("a-over", 4, 2) // over quota (4+8 > 8)
	gA2.User = "payA"
	if dec, _ := a.Admit(gA2); dec != AdmitOverQuota {
		t.Fatalf("dec = %v", dec)
	}

	// B reclaims 8 GPUs: free job (2) + A's over-quota job (8) free 10.
	victims := a.PreemptFor("payB", 8)
	for _, v := range victims {
		a.Evict(v)
	}
	if len(victims) != 2 {
		t.Fatalf("victims = %v", victims)
	}
	if victims[0] != "freejob" {
		t.Fatalf("free-tier job not preempted first: %v", victims)
	}
	if victims[1] != "a-over" {
		t.Fatalf("over-quota job not second: %v", victims)
	}
	// A's in-quota job must survive.
	if a.Usage("payA") != 4 {
		t.Fatalf("payA usage = %d, want 4", a.Usage("payA"))
	}
	// Demand that cannot be met returns nil and preempts nothing.
	if v := a.PreemptFor("payB", 100); v != nil {
		t.Fatalf("impossible preemption returned %v", v)
	}
}

// Property: gang placement never overcommits any node, for arbitrary
// gang shapes.
func TestNoOvercommitProperty(t *testing.T) {
	rng := sim.NewRNG(11)
	policies := []GangPolicy{GreedyGang{Pod: Pack{}}, GreedyGang{Pod: Spread{}}, NewBSA(rng)}
	f := func(sizes []uint8) bool {
		for _, pol := range policies {
			cs := cluster(4, 4)
			for j, s := range sizes {
				learners := int(s%4) + 1
				gpus := int(s/4%4) + 1
				g := gang(fmt.Sprintf("g%d", j), learners, gpus)
				as, fail := pol.PlaceGang(g, cs)
				if fail != nil {
					continue
				}
				for i, a := range as {
					cs.Assign(a.Node, g.Pods[i].Demand)
				}
				for _, n := range cs.Nodes {
					if n.Free.GPUs < 0 || n.Free.MilliCPU < 0 || n.Free.MemoryMB < 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BSA and greedy agree on feasibility for single-pod gangs.
func TestBSAFeasibilityAgreesWithGreedyProperty(t *testing.T) {
	rng := sim.NewRNG(13)
	f := func(gpus uint8, machines uint8) bool {
		m := int(machines%4) + 1
		cs := cluster(m, 4)
		g := gang("j", 1, int(gpus%6)+1)
		_, bsaFail := NewBSA(rng).PlaceGang(g, cs)
		_, greedyFail := (GreedyGang{Pod: Pack{}}).PlaceGang(g, cs)
		return (bsaFail == nil) == (greedyFail == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitIdempotentPerJob: re-admitting a job that already holds a
// footprint returns the original decision without double-counting —
// the guard against API replica retries and dispatcher resyncs.
func TestAdmitIdempotentPerJob(t *testing.T) {
	a := NewAdmission(8)
	a.SetQuota(UserQuota{User: "u", Tier: TierPaid, GPUs: 4})
	g := gang("j1", 2, 2) // 4 GPUs, exactly in quota
	for i := 0; i < 3; i++ {
		dec, err := a.Admit(g)
		if err != nil || dec != AdmitInQuota {
			t.Fatalf("admit #%d = %v %v", i, dec, err)
		}
	}
	if got := a.Usage("u"); got != 4 {
		t.Fatalf("usage after repeated admits = %d, want 4", got)
	}
	if got := a.AdmittedGPUs(); got != 4 {
		t.Fatalf("admitted after repeated admits = %d, want 4", got)
	}
	// The replayed decision is the recorded one, even once the user is
	// over quota through another job.
	g2 := gang("j2", 2, 2)
	if dec, _ := a.Admit(g2); dec != AdmitOverQuota {
		t.Fatalf("j2 = %v, want over-quota", dec)
	}
	if dec, _ := a.Admit(g2); dec != AdmitOverQuota {
		t.Fatalf("replayed j2 decision changed")
	}
	if dec, _ := a.Admit(g); dec != AdmitInQuota {
		t.Fatalf("replayed j1 decision changed")
	}
}

// TestReleaseIdempotent: double release (and release of an unknown job)
// is a no-op — usage cannot go negative.
func TestReleaseIdempotent(t *testing.T) {
	a := NewAdmission(0)
	a.SetQuota(UserQuota{User: "u", Tier: TierPaid, GPUs: 8})
	g := gang("j1", 1, 2)
	if _, err := a.Admit(g); err != nil {
		t.Fatal(err)
	}
	a.Release("j1")
	a.Release("j1")
	a.Release("never-admitted")
	if got := a.Usage("u"); got != 0 {
		t.Fatalf("usage after double release = %d, want 0", got)
	}
	if got := a.AdmittedGPUs(); got != 0 {
		t.Fatalf("admitted after double release = %d, want 0", got)
	}
	if a.Holds("j1") {
		t.Fatal("released job still held")
	}
}

// TestClusterGPUSentinels: 0 keeps the legacy "unlimited" meaning,
// negative means known-zero capacity and admits nothing.
func TestClusterGPUSentinels(t *testing.T) {
	a := NewAdmission(0)
	a.SetQuota(UserQuota{User: "u", Tier: TierPaid, GPUs: 4})
	if dec, err := a.Admit(gang("unltd", 1, 2)); dec == Reject {
		t.Fatalf("unlimited budget rejected: %v", err)
	}
	a.SetClusterGPUs(-1)
	if dec, _ := a.Admit(gang("none", 1, 1)); dec != Reject {
		t.Fatalf("known-zero capacity admitted: %v", dec)
	}
	a.SetClusterGPUs(4)
	if dec, _ := a.Admit(gang("fits", 1, 2)); dec == Reject {
		t.Fatal("positive budget rejected a fitting job")
	}
}

// TestAdmitUnknownUserLeavesNoFootprint: a rejected unknown-user Admit
// must not register anything — a later Release of that job is a no-op
// and the cluster budget is untouched.
func TestAdmitUnknownUserLeavesNoFootprint(t *testing.T) {
	a := NewAdmission(4)
	g := gang("ghost", 1, 2)
	g.User = "nobody"
	dec, err := a.Admit(g)
	if dec != Reject || err == nil {
		t.Fatalf("unknown user: dec=%v err=%v", dec, err)
	}
	if a.Holds("ghost") || a.AdmittedGPUs() != 0 {
		t.Fatal("rejected admit left a footprint")
	}
	a.Release("ghost") // must be harmless
	if a.Usage("nobody") != 0 {
		t.Fatalf("usage for unknown user = %d", a.Usage("nobody"))
	}
}

// TestPreemptForVictimOrderingAndSufficiency: victims are free-tier
// jobs first, then over-quota jobs newest-first, and the selected set
// always frees at least the requested GPUs.
func TestPreemptForVictimOrderingAndSufficiency(t *testing.T) {
	a := NewAdmission(0)
	a.SetQuota(UserQuota{User: "free1", Tier: TierFree, GPUs: 2})
	a.SetQuota(UserQuota{User: "free2", Tier: TierFree, GPUs: 2})
	a.SetQuota(UserQuota{User: "payA", Tier: TierPaid, GPUs: 4})
	a.SetQuota(UserQuota{User: "payB", Tier: TierPaid, GPUs: 16})

	admit := func(id, user string, learners, gpus int) {
		t.Helper()
		g := gang(id, learners, gpus)
		g.User = user
		if _, err := a.Admit(g); err != nil {
			t.Fatalf("admit %s: %v", id, err)
		}
	}
	admit("f1", "free1", 1, 2)     // free tier
	admit("f2", "free2", 1, 2)     // free tier
	admit("a-in", "payA", 2, 2)    // in quota, must survive
	admit("a-over1", "payA", 1, 2) // over quota, older
	admit("a-over2", "payA", 1, 2) // over quota, newer

	need := 9 // forces free tier (4) + both over-quota jobs (4) = 8 < 9? no: 4+2+2=8 <9 -> nil
	if v := a.PreemptFor("payB", need); v != nil {
		t.Fatalf("unsatisfiable demand returned victims %v", v)
	}
	// All footprints must be intact after the failed attempt.
	if a.Usage("free1") != 2 || a.Usage("payA") != 8 {
		t.Fatalf("failed preemption mutated usage: free1=%d payA=%d",
			a.Usage("free1"), a.Usage("payA"))
	}

	victims := a.PreemptFor("payB", 7)
	if victims == nil {
		t.Fatal("satisfiable preemption returned nil")
	}
	if a.AdmittedGPUs() != 12 {
		t.Fatalf("selection released footprints: admitted = %d, want 12", a.AdmittedGPUs())
	}
	for _, v := range victims {
		a.Evict(v)
	}
	// Ordering: both free-tier jobs before any over-quota job, then the
	// newest over-quota job first.
	if len(victims) != 4 {
		t.Fatalf("victims = %v, want 4 entries", victims)
	}
	freeFirst := map[string]bool{"f1": true, "f2": true}
	if !freeFirst[victims[0]] || !freeFirst[victims[1]] {
		t.Fatalf("free-tier jobs not preempted first: %v", victims)
	}
	if victims[2] != "a-over2" || victims[3] != "a-over1" {
		t.Fatalf("over-quota jobs not newest-first: %v", victims)
	}
	// Sufficiency invariant, from the controller's own accounting:
	// after preemption only a-in (4 GPUs) remains, so 8 ≥ 7 were freed.
	if a.AdmittedGPUs() != 4 {
		t.Fatalf("admitted after preemption = %d, want 4 (a-in only)", a.AdmittedGPUs())
	}
	if a.Usage("payA") != 4 {
		t.Fatalf("in-quota job did not survive: payA usage = %d", a.Usage("payA"))
	}
	if got := a.Preemptions(); got != 4 {
		t.Fatalf("preemption counter = %d, want 4", got)
	}
}

// TestPreemptForPassesOverResumingJob: a job admitted for a resume that
// has not landed is no victim until Restore records it running.
func TestPreemptForPassesOverResumingJob(t *testing.T) {
	a := NewAdmission(0)
	a.SetQuota(UserQuota{User: "free1", Tier: TierFree, GPUs: 2})
	a.SetQuota(UserQuota{User: "payB", Tier: TierPaid, GPUs: 8})
	g := gang("victim", 1, 2)
	g.User = "free1"
	if _, err := a.Admit(g); err != nil {
		t.Fatal(err)
	}
	a.Resuming("victim")
	if v := a.PreemptFor("payB", 2); v != nil {
		t.Fatalf("a resuming job was selected: %v", v)
	}
	a.Restore(g)
	if v := a.PreemptFor("payB", 2); len(v) != 1 || v[0] != "victim" {
		t.Fatalf("victims = %v after the resume landed, want [victim]", v)
	}
	if a.AdmittedGPUs() != 2 {
		t.Fatalf("Restore of a held job changed its footprint: admitted = %d", a.AdmittedGPUs())
	}
}

// TestPreemptForFreesEnoughProperty: for arbitrary mixes of free-tier,
// in-quota and over-quota jobs, a non-nil PreemptFor result always
// frees at least the requested demand and never touches the
// requester's own jobs.
func TestPreemptForFreesEnoughProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := NewAdmission(0)
		users := []string{"freeA", "freeB", "paidA", "paidB"}
		a.SetQuota(UserQuota{User: "freeA", Tier: TierFree, GPUs: 2})
		a.SetQuota(UserQuota{User: "freeB", Tier: TierFree, GPUs: 2})
		a.SetQuota(UserQuota{User: "paidA", Tier: TierPaid, GPUs: 6})
		a.SetQuota(UserQuota{User: "paidB", Tier: TierPaid, GPUs: 6})
		a.SetQuota(UserQuota{User: "claimant", Tier: TierPaid, GPUs: 64})
		mine := map[string]int{}
		jobs := 1 + rng.Intn(10)
		for j := 0; j < jobs; j++ {
			u := users[rng.Intn(len(users))]
			id := fmt.Sprintf("t%d-j%d", trial, j)
			g := gang(id, 1, 1+rng.Intn(4))
			g.User = u
			if _, err := a.Admit(g); err != nil {
				t.Fatal(err)
			}
			mine[id] = g.GPUDemand()
		}
		before := a.AdmittedGPUs()
		need := 1 + rng.Intn(12)
		victims := a.PreemptFor("claimant", need)
		if victims == nil {
			continue // demand not satisfiable from preemptible jobs
		}
		for _, v := range victims {
			a.Evict(v)
		}
		freed := before - a.AdmittedGPUs()
		if freed < need {
			t.Fatalf("trial %d: freed %d < need %d (victims %v)", trial, freed, need, victims)
		}
		for _, id := range victims {
			if _, ok := mine[id]; !ok {
				t.Fatalf("trial %d: unknown victim %s", trial, id)
			}
		}
	}
}
