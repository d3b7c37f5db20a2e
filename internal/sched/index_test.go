package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/ffdl/ffdl/internal/sim"
)

// bruteFeasible is the pre-index reference implementation: scan every
// node, first-failing-predicate reason accounting.
func bruteFeasible(p *PodSpec, cs *ClusterState) (map[string]bool, FailureReason) {
	out := map[string]bool{}
	counts := map[FailureReason]int{}
	for _, n := range cs.Nodes {
		switch {
		case n.Unschedulable:
			counts[ReasonUnschedulable]++
		case p.GPUType != "" && n.GPUType != p.GPUType:
			counts[ReasonNodeSelector]++
		case p.Demand.GPUs > n.Free.GPUs:
			counts[ReasonInsufficientGPU]++
		case !n.Free.Fits(p.Demand):
			counts[ReasonNoNodesAvailable]++
		default:
			out[n.Name] = true
		}
	}
	if len(out) > 0 {
		return out, ""
	}
	best := ReasonNoNodesAvailable
	bestN := -1
	for r, c := range counts {
		if c > bestN || (c == bestN && r < best) {
			best, bestN = r, c
		}
	}
	return nil, best
}

// churnState builds a cluster and applies a deterministic churn of
// assigns, releases and cordons derived from ops.
func churnState(ops []uint8) *ClusterState {
	types := []string{"K80", "P100", "V100"}
	nodes := make([]*Node, 12)
	for i := range nodes {
		cap := Resources{MilliCPU: 16000, MemoryMB: 96000, GPUs: 4}
		nodes[i] = &Node{Name: fmt.Sprintf("n%02d", i), GPUType: types[i%3], Capacity: cap, Free: cap}
	}
	cs := NewClusterState(nodes)
	for k, op := range ops {
		name := fmt.Sprintf("n%02d", int(op)%12)
		demand := Resources{MilliCPU: 1000, MemoryMB: 4000, GPUs: int(op) / 12 % 3}
		switch k % 4 {
		case 0, 1:
			if n := cs.Node(name); n != nil && n.Free.Fits(demand) {
				cs.Assign(name, demand)
			}
		case 2:
			if n := cs.Node(name); n != nil && n.Pods > 0 && n.Capacity.Sub(n.Free).Fits(demand) {
				cs.Release(name, demand)
			}
		case 3:
			cs.SetSchedulable(name, op%2 == 0)
		}
	}
	return cs
}

// TestIndexMatchesBruteForceProperty: after arbitrary churn, the
// indexed FeasibleNodes must return exactly the brute-force feasible
// set, and the same dominant failure reason when empty.
func TestIndexMatchesBruteForceProperty(t *testing.T) {
	f := func(ops []uint8, gpus, typePick uint8) bool {
		cs := churnState(ops)
		gpuType := ""
		if typePick%4 != 0 {
			gpuType = []string{"K80", "P100", "V100"}[typePick%3]
		}
		p := &PodSpec{Name: "p", GPUType: gpuType,
			Demand: Resources{MilliCPU: 2000, MemoryMB: 8000, GPUs: int(gpus % 6)}}
		wantSet, wantReason := bruteFeasible(p, cs)
		got, gotReason := cs.FeasibleNodes(p)
		if len(got) != len(wantSet) {
			return false
		}
		for _, n := range got {
			if !wantSet[n.Name] {
				return false
			}
		}
		return len(got) > 0 || gotReason == wantReason
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBestPackedIsOptimalProperty: BestPacked must return a feasible
// node that no other feasible node beats under Pack's total
// preference (packOrderLess), despite examining only index prefixes.
func TestBestPackedIsOptimalProperty(t *testing.T) {
	f := func(ops []uint8, gpus uint8) bool {
		cs := churnState(ops)
		p := &PodSpec{Name: "p", Demand: Resources{MilliCPU: 2000, MemoryMB: 8000, GPUs: int(gpus % 5)}}
		wantSet, _ := bruteFeasible(p, cs)
		got, _ := cs.BestPacked(p)
		if got == nil {
			return len(wantSet) == 0
		}
		if !wantSet[got.Name] {
			return false
		}
		for name := range wantSet {
			if n := cs.Node(name); n != got && packOrderLess(n, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRollbackRestoresState: speculation under a checkpoint
// must leave free capacity, pod counts and index order untouched.
func TestCheckpointRollbackRestoresState(t *testing.T) {
	cs := churnState([]uint8{3, 17, 40, 99, 128, 7, 54})
	snapshot := func() map[string]Node {
		out := map[string]Node{}
		for _, n := range cs.Nodes {
			out[n.Name] = *n
		}
		return out
	}
	before := snapshot()
	mark := cs.Checkpoint()
	cs.Assign("n00", Resources{MilliCPU: 1000, GPUs: 2})
	cs.Assign("n04", Resources{MilliCPU: 500, MemoryMB: 100, GPUs: 1})
	nested := cs.Checkpoint()
	cs.Release("n04", Resources{GPUs: 1})
	cs.Rollback(nested)
	cs.Assign("n07", Resources{GPUs: 3})
	cs.Rollback(mark)
	after := snapshot()
	for name, want := range before {
		if after[name] != want {
			t.Fatalf("node %s not restored: %+v != %+v", name, after[name], want)
		}
	}
	// Index order intact: a Pack query still sees the right fullest
	// node and the examined counter keeps counting.
	cs.TakeExamined()
	if _, reason := cs.BestPacked(&PodSpec{Name: "p", Demand: Resources{GPUs: 1}}); reason != "" {
		t.Fatalf("post-rollback query failed: %v", reason)
	}
	if cs.examinedNodes() == 0 {
		t.Fatal("examined counter not counting after rollback")
	}
}

// TestCandidatesLimitIsFullestFirst: the candidate cap must keep the
// fullest feasible machines, not an arbitrary subset.
func TestCandidatesLimitIsFullestFirst(t *testing.T) {
	nodes := make([]*Node, 8)
	for i := range nodes {
		cap := Resources{MilliCPU: 16000, MemoryMB: 96000, GPUs: 8}
		nodes[i] = &Node{Name: fmt.Sprintf("n%d", i), GPUType: "K80", Capacity: cap, Free: cap}
	}
	cs := NewClusterState(nodes)
	for i := 0; i < 8; i++ { // n0 fullest ... n7 empty
		for g := 0; g < 7-i; g++ {
			cs.Assign(fmt.Sprintf("n%d", i), Resources{GPUs: 1})
		}
	}
	got, _ := cs.Candidates(nil, &PodSpec{Name: "p", Demand: Resources{GPUs: 1}}, 3)
	if len(got) != 3 {
		t.Fatalf("candidates = %d, want 3", len(got))
	}
	for i, n := range got {
		want := fmt.Sprintf("n%d", i)
		if n.Name != want {
			t.Fatalf("candidate %d = %s (free %d), want %s", i, n.Name, n.Free.GPUs, want)
		}
	}
}

// TestPackExaminesFewNodesOnLargeCluster pins the scalability property
// directly: placing on a 2000-node homogeneous cluster must examine a
// handful of nodes, not thousands.
func TestPackExaminesFewNodesOnLargeCluster(t *testing.T) {
	nodes := make([]*Node, 2000)
	for i := range nodes {
		cap := Resources{MilliCPU: 16000, MemoryMB: 96000, GPUs: 4}
		nodes[i] = &Node{Name: fmt.Sprintf("n%04d", i), GPUType: "K80", Capacity: cap, Free: cap}
	}
	cs := NewClusterState(nodes)
	cs.TakeExamined()
	for i := 0; i < 100; i++ {
		p := &PodSpec{Name: fmt.Sprintf("p%d", i), Demand: Resources{MilliCPU: 1000, MemoryMB: 4000, GPUs: 1}}
		node, fail := (Pack{}).PlacePod(p, cs)
		if fail != nil {
			t.Fatal(fail)
		}
		cs.Assign(node, p.Demand)
	}
	examined := cs.examinedNodes()
	if examined > 1000 {
		t.Fatalf("100 pack placements on 2000 nodes examined %d nodes; index not pruning", examined)
	}
	t.Logf("100 placements examined %d nodes (%.1f per placement)", examined, float64(examined)/100)
}

// TestReleaseUnknownNodeIsSafe: the live scheduler view may release
// against a node that was just removed.
func TestReleaseUnknownNodeIsSafe(t *testing.T) {
	cs := NewClusterState([]*Node{gpuNode("a", "K80", 4)})
	cs.RemoveNode("a")
	cs.Release("a", Resources{GPUs: 1}) // must not panic
	cs.Assign("ghost", Resources{GPUs: 1})
	if len(cs.Nodes) != 0 {
		t.Fatalf("nodes = %d", len(cs.Nodes))
	}
}

// TestBSACandidateCapStillPlaces: a capped BSA must keep placing and
// packing correctly.
func TestBSACandidateCapStillPlaces(t *testing.T) {
	rng := sim.NewRNG(7)
	bsa := &BSA{Samples: 16, Theta: 4, CandidateCap: 4, RNG: rng}
	cs := cluster(64, 4)
	as, fail := bsa.PlaceGang(gang("j1", 2, 2), cs)
	if fail != nil {
		t.Fatalf("capped BSA failed: %v", fail)
	}
	if as[0].Node != as[1].Node {
		t.Fatalf("capped BSA split a packable gang: %v", as)
	}
}
