package sched

import (
	"fmt"
	"math"
	"slices"

	"github.com/ffdl/ffdl/internal/sim"
)

// BSA is the Biased Sampling Algorithm gang scheduler (§3.5, citing
// Tantawi [43,44]). The placement of a gang of logical entities (pods)
// onto physical entities (nodes) is an NP-hard assignment problem; at
// cluster scale the solution space is combinatorially explosive, so BSA
// draws whole assignment vectors by importance sampling: each pod samples
// a node from a distribution biased toward nodes that (a) satisfy its
// constraints and (b) improve the objective — here GPU packing, since
// GPUs are the scarce resource. The best-scoring feasible sample wins.
//
// Cost per gang: every sample starts from the same state, so the first
// pod's candidate scan and bias weights are computed once per gang;
// only pods 2..k rescan per sample, against the assignments the sample
// has made so far. Samples write into buffers the BSA keeps across
// calls, so a gang costs a constant number of allocations however many
// samples it draws. For the same RNG stream the placements are the
// same as drawing every sample from scratch.
//
// A BSA is not safe for concurrent use: its buffers are shared across
// calls, and so is its RNG.
type BSA struct {
	// Samples is the number of assignment vectors drawn per gang.
	// Larger values approach the optimum at higher scheduling latency
	// (ablated in BenchmarkAblationBSASamples).
	Samples int
	// Theta sharpens the bias distribution: weight ∝ exp(Theta·score).
	// Theta = 0 degenerates to uniform sampling over feasible nodes.
	Theta float64
	// CandidateCap, when > 0, bounds the nodes each sampling step
	// draws from to the CandidateCap fullest feasible nodes per GPU
	// type (the capacity index walks fullest-first). Since the bias
	// already concentrates weight on near-full machines, capping the
	// long empty tail barely changes the sampled distribution but
	// keeps per-placement work constant as the cluster grows. 0 means
	// consider every feasible node.
	CandidateCap int
	// RNG drives sampling; required.
	RNG *sim.RNG

	// Buffers reused across PlaceGang calls.
	first, cand []*Node   // first pod's candidates; a later pod's
	firstW, w   []float64 // their bias weights
	cur, best   []*Node   // a sample's and the best sample's nodes, by pod index
	distinct    []*Node   // objective's distinct nodes, in name order
}

var _ GangPolicy = (*BSA)(nil)

// NewBSA returns a BSA scheduler with the defaults used in production:
// 32 samples, bias sharpness 4.
func NewBSA(rng *sim.RNG) *BSA {
	return &BSA{Samples: 32, Theta: 4, RNG: rng}
}

// Name implements GangPolicy.
func (b *BSA) Name() string { return "gang-bsa" }

// PlaceGang implements GangPolicy.
func (b *BSA) PlaceGang(g *Gang, cs *ClusterState) ([]Assignment, *Failure) {
	samples := b.Samples
	if samples <= 0 {
		samples = 32
	}
	if len(g.Pods) == 0 {
		return []Assignment{}, nil
	}
	order := podOrder(g)
	// Samples run under Checkpoint/Rollback, so each one's first pod
	// sees this same state: scan and weigh its candidates once.
	p0 := &g.Pods[order[0]]
	var reason FailureReason
	b.first, reason = cs.Candidates(b.first[:0], p0, b.CandidateCap)
	if len(b.first) == 0 {
		return nil, noFeasibleNode(g, p0, reason)
	}
	b.firstW = b.weigh(b.firstW[:0], b.first)
	b.cur = slices.Grow(b.cur[:0], len(g.Pods))[:len(g.Pods)]
	b.best = slices.Grow(b.best[:0], len(g.Pods))[:len(g.Pods)]
	var (
		bestScore = math.Inf(-1)
		found     bool
		failPod   *PodSpec
	)
	for s := 0; s < samples; s++ {
		if p, r := b.sampleOnce(g, order, cs); p != nil {
			failPod, reason = p, r
			continue
		}
		if score := b.objective(); score > bestScore {
			copy(b.best, b.cur)
			bestScore, found = score, true
		}
	}
	if !found {
		return nil, noFeasibleNode(g, failPod, reason)
	}
	out := make([]Assignment, len(g.Pods))
	for i, n := range b.best {
		out[i] = Assignment{Pod: g.Pods[i].Name, Node: n.Name}
	}
	return out, nil
}

// sampleOnce draws one assignment vector into b.cur: pods (largest
// first) sample nodes proportionally to exp(Theta * packScore) over
// currently feasible nodes. The speculative assignments run under a
// checkpoint that is rolled back before returning, so the caller scores
// the vector against the untouched pre-sample state — and a 5000-node
// cluster is never cloned 32 times per gang. The last pod's node is
// never assigned: nothing reads it before the rollback. It returns the
// pod that found no feasible node, and why, or nil.
func (b *BSA) sampleOnce(g *Gang, order []int, cs *ClusterState) (*PodSpec, FailureReason) {
	first := order[0]
	b.cur[first] = b.first[b.RNG.WeightedChoice(b.firstW)]
	if len(order) == 1 {
		return nil, ""
	}
	mark := cs.Checkpoint()
	defer cs.Rollback(mark)
	cs.Assign(b.cur[first].Name, g.Pods[first].Demand)
	last := len(order) - 1
	for k := 1; k <= last; k++ {
		i := order[k]
		p := &g.Pods[i]
		var reason FailureReason
		b.cand, reason = cs.Candidates(b.cand[:0], p, b.CandidateCap)
		if len(b.cand) == 0 {
			return p, reason
		}
		b.w = b.weigh(b.w[:0], b.cand)
		b.cur[i] = b.cand[b.RNG.WeightedChoice(b.w)]
		if k < last {
			cs.Assign(b.cur[i].Name, p.Demand)
		}
	}
	return nil, ""
}

// weigh appends each node's bias weight, exp(Theta * packScore), to dst.
func (b *BSA) weigh(dst []float64, nodes []*Node) []float64 {
	for _, n := range nodes {
		dst = append(dst, math.Exp(b.Theta*packScore(n)))
	}
	return dst
}

// objective scores the assignment in b.cur: fewer distinct nodes is
// better (packing), with a small bonus for landing on already-loaded
// nodes so empty machines stay free for future large gangs. The bonus
// is summed over the distinct nodes in name order, so two samples that
// use the same nodes score bit-identically whatever their pod order.
func (b *BSA) objective() float64 {
	d := b.distinct[:0]
	for _, n := range b.cur {
		j := len(d)
		for j > 0 && d[j-1].Name > n.Name {
			j--
		}
		if j > 0 && d[j-1] == n {
			continue
		}
		d = slices.Insert(d, j, n)
	}
	b.distinct = d
	score := -float64(len(d))
	for _, n := range d {
		if n.Capacity.GPUs > 0 {
			score += 0.1 * (1 - float64(n.Free.GPUs)/float64(n.Capacity.GPUs))
		}
	}
	return score
}

// noFeasibleNode is the failure of a gang whose pod p found no node.
func noFeasibleNode(g *Gang, p *PodSpec, reason FailureReason) *Failure {
	return &Failure{
		Reason:  reason,
		Message: fmt.Sprintf("gang %s pod %s: no feasible node", g.JobID, p.Name),
	}
}
