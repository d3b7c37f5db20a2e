package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/ffdl/ffdl/internal/sim"
)

// refBSA is the straightforward BSA the buffered one must agree with:
// every sample rescans every pod under its own checkpoint, allocates
// its own candidate, weight and assignment slices, speculatively
// assigns every pod, scores through a map, and the winner is sorted
// back into declared pod order.
type refBSA struct {
	Samples      int
	Theta        float64
	CandidateCap int
	RNG          *sim.RNG
}

func (b *refBSA) PlaceGang(g *Gang, cs *ClusterState) ([]Assignment, *Failure) {
	samples := b.Samples
	if samples <= 0 {
		samples = 32
	}
	var (
		best      []Assignment
		bestScore = math.Inf(-1)
		lastFail  *Failure
	)
	order := podOrder(g)
	for s := 0; s < samples; s++ {
		as, fail := b.sampleOnce(g, order, cs)
		if fail != nil {
			lastFail = fail
			continue
		}
		if score := b.objective(as, cs); score > bestScore {
			best, bestScore = as, score
		}
	}
	if best == nil {
		if lastFail == nil {
			lastFail = &Failure{Reason: ReasonNoNodesAvailable, Message: fmt.Sprintf("gang %s: no feasible sample", g.JobID)}
		}
		return nil, lastFail
	}
	pos := make(map[string]int, len(g.Pods))
	for i, p := range g.Pods {
		pos[p.Name] = i
	}
	sort.SliceStable(best, func(i, j int) bool { return pos[best[i].Pod] < pos[best[j].Pod] })
	return best, nil
}

func (b *refBSA) sampleOnce(g *Gang, order []int, cs *ClusterState) ([]Assignment, *Failure) {
	mark := cs.Checkpoint()
	defer cs.Rollback(mark)
	out := make([]Assignment, 0, len(g.Pods))
	for _, i := range order {
		p := &g.Pods[i]
		nodes, reason := cs.Candidates(nil, p, b.CandidateCap)
		if len(nodes) == 0 {
			return nil, &Failure{
				Reason:  reason,
				Message: fmt.Sprintf("gang %s pod %s: no feasible node", g.JobID, p.Name),
			}
		}
		weights := make([]float64, len(nodes))
		for j, n := range nodes {
			weights[j] = math.Exp(b.Theta * packScore(n))
		}
		chosen := nodes[b.RNG.WeightedChoice(weights)]
		cs.Assign(chosen.Name, p.Demand)
		out = append(out, Assignment{Pod: p.Name, Node: chosen.Name})
	}
	return out, nil
}

// objective visits the map's nodes in name order: Go leaves map
// iteration order unspecified, and name order is the one BSA sums in.
func (b *refBSA) objective(as []Assignment, cs *ClusterState) float64 {
	used := make(map[string]int)
	for _, a := range as {
		used[a.Node]++
	}
	names := make([]string, 0, len(used))
	for name := range used {
		names = append(names, name)
	}
	sort.Strings(names)
	score := -float64(len(used))
	for _, name := range names {
		n := cs.Node(name)
		if n != nil && n.Capacity.GPUs > 0 {
			score += 0.1 * (1 - float64(n.Free.GPUs)/float64(n.Capacity.GPUs))
		}
	}
	return score
}

// randomPlacement builds a partly filled cluster of nNodes mixed
// K80/P100 nodes with 1–16 GPUs each (some CPU-starved, some cordoned)
// and a gang of nPods pods asking 1–4 GPUs of any type or of K80. Odd
// GPU counts give fill fractions whose float sums depend on summation
// order.
func randomPlacement(r *rand.Rand, nNodes, nPods int) ([]*Node, *Gang) {
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		typ := "K80"
		if r.Intn(2) == 0 {
			typ = "P100"
		}
		capacity := Resources{MilliCPU: 32000, MemoryMB: 128000, GPUs: 1 + r.Intn(16)}
		free := capacity
		free.GPUs = r.Intn(capacity.GPUs + 1)
		if r.Intn(3) == 0 {
			free.MilliCPU = int64(r.Intn(4000)) // below every pod's CPU request
		}
		nodes[i] = &Node{
			Name: fmt.Sprintf("n%02d", i), GPUType: typ,
			Capacity: capacity, Free: free, Pods: capacity.GPUs - free.GPUs,
			Unschedulable: r.Intn(10) == 0,
		}
	}
	g := &Gang{JobID: "job", User: "u"}
	for i := 0; i < nPods; i++ {
		p := PodSpec{
			Name: fmt.Sprintf("job-learner-%d", i), JobID: "job",
			Demand: Resources{MilliCPU: 4000, MemoryMB: 16000, GPUs: 1 + r.Intn(4)},
		}
		if r.Intn(2) == 0 {
			p.GPUType = "K80"
		}
		g.Pods = append(g.Pods, p)
	}
	return nodes, g
}

// checkMatchesReference places g on two copies of nodes, once with b
// and once with the reference, both on RNG streams seeded with seed,
// and fails on any difference in assignments, failure, RNG draws
// consumed, or the state left behind. It reports whether g was placed.
func checkMatchesReference(t *testing.T, b *BSA, nodes []*Node, g *Gang, capacity, samples int, seed int64) bool {
	t.Helper()
	b.Samples, b.Theta, b.CandidateCap, b.RNG = samples, 4, capacity, sim.NewRNG(seed)
	ref := &refBSA{Samples: samples, Theta: 4, CandidateCap: capacity, RNG: sim.NewRNG(seed)}
	cs, refCS := NewClusterState(nodes), NewClusterState(nodes)
	got, gotFail := b.PlaceGang(g, cs)
	want, wantFail := ref.PlaceGang(g, refCS)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotFail, wantFail) {
		t.Fatalf("seed %d, %d nodes, %d pods, cap %d, %d samples:\n got %v %v\nwant %v %v",
			seed, len(nodes), len(g.Pods), capacity, samples, got, gotFail, want, wantFail)
	}
	if x, y := b.RNG.Float64(), ref.RNG.Float64(); x != y {
		t.Fatalf("seed %d: RNG streams diverged after placement", seed)
	}
	for _, n := range nodes {
		if c := cs.Node(n.Name); c.Free != n.Free || c.Pods != n.Pods {
			t.Fatalf("seed %d: node %s left at %+v, want %+v", seed, n.Name, c, n)
		}
	}
	return got != nil
}

// TestBSAMatchesReference: for the same RNG stream, BSA places every
// seeded gang exactly as the reference does, failures included. One
// BSA serves every case, so its reused buffers are exercised across
// gangs of every size.
func TestBSAMatchesReference(t *testing.T) {
	b := &BSA{}
	placed := 0
	const cases = 20000
	for seed := int64(0); seed < cases; seed++ {
		r := rand.New(rand.NewSource(seed))
		nodes, g := randomPlacement(r, 3+r.Intn(40), 1+r.Intn(6))
		capacity := []int{0, 2, 5}[r.Intn(3)]
		samples := []int{1, 8, 32}[r.Intn(3)]
		if checkMatchesReference(t, b, nodes, g, capacity, samples, seed) {
			placed++
		}
	}
	// Both outcomes must be well represented for the identity to mean
	// anything.
	if placed < cases/10 || placed > cases*9/10 {
		t.Fatalf("%d of %d cases placed; generator is lopsided", placed, cases)
	}
	t.Logf("%d of %d cases placed, the rest failed identically", placed, cases)
}

// FuzzBSAMatchesReference explores the same identity over arbitrary
// seeds, cluster sizes, gang shapes and candidate caps.
func FuzzBSAMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), uint8(0))
	f.Add(int64(7), uint8(42), uint8(6), uint8(5))
	f.Add(int64(3), uint8(3), uint8(1), uint8(2))
	b := &BSA{}
	f.Fuzz(func(t *testing.T, seed int64, nNodes, nPods, capacity uint8) {
		r := rand.New(rand.NewSource(seed))
		nodes, g := randomPlacement(r, 1+int(nNodes%64), 1+int(nPods%8))
		samples := []int{1, 8, 32}[r.Intn(3)]
		checkMatchesReference(t, b, nodes, g, int(capacity%8), samples, seed)
	})
}

// TestBSAPlaceGangCost pins the per-gang cost: after a warm-up call
// the sample loop allocates nothing, so a gang costs a constant number
// of allocations whatever its size, and a single-pod gang scans its
// candidates once per gang rather than once per sample.
func TestBSAPlaceGangCost(t *testing.T) {
	for _, learners := range []int{1, 4} {
		cs := cluster(8, 4)
		b := NewBSA(sim.NewRNG(1))
		g := gang("j", learners, 1)
		b.PlaceGang(g, cs)
		allocs := testing.AllocsPerRun(100, func() {
			if _, fail := b.PlaceGang(g, cs); fail != nil {
				t.Fatal(fail)
			}
		})
		if allocs > 8 {
			t.Errorf("%d-pod gang: %.0f allocations per PlaceGang, want <= 8", learners, allocs)
		}
		t.Logf("%d-pod gang: %.0f allocations per PlaceGang", learners, allocs)
	}

	cs := cluster(8, 4)
	b := NewBSA(sim.NewRNG(1))
	g := gang("j", 1, 1)
	cs.TakeExamined()
	for i := 0; i < 3; i++ {
		if _, fail := b.PlaceGang(g, cs); fail != nil {
			t.Fatal(fail)
		}
		if got := cs.TakeExamined(); got != 8 {
			t.Fatalf("1-pod gang examined %d nodes, want the 8 feasible ones", got)
		}
	}
}

// TestBSAObjectiveIgnoresPodOrder: two assignment vectors over the same
// three nodes, met in different pod orders, score bit-identically —
// even though summing the bonus in each vector's own order does not.
func TestBSAObjectiveIgnoresPodOrder(t *testing.T) {
	node := func(name string, free, capacity int) *Node {
		return &Node{Name: name, GPUType: "K80",
			Capacity: Resources{GPUs: capacity}, Free: Resources{GPUs: free}}
	}
	a, bb, c := node("a", 0, 1), node("b", 1, 2), node("c", 5, 13)
	bonus := func(ns ...*Node) float64 {
		s := -float64(len(ns))
		for _, n := range ns {
			s += 0.1 * (1 - float64(n.Free.GPUs)/float64(n.Capacity.GPUs))
		}
		return s
	}
	if bonus(a, bb, c) == bonus(c, bb, a) {
		t.Fatal("fixture no longer order-sensitive; pick other fill levels")
	}
	b := &BSA{}
	b.cur = []*Node{a, bb, c, bb}
	x := b.objective()
	b.cur = []*Node{c, bb, a, a}
	y := b.objective()
	if math.Float64bits(x) != math.Float64bits(y) {
		t.Fatalf("same nodes scored %v and %v", x, y)
	}
	if want := bonus(a, bb, c); x != want {
		t.Fatalf("objective = %v, want %v", x, want)
	}
}
