package sched

import (
	"fmt"
	"sort"
)

// PodPolicy places a single pod, Kubernetes-style: each pod of a job is
// considered independently, which is exactly what allows the partial
// placements and scheduling deadlocks of §3.5.
type PodPolicy interface {
	// Name identifies the policy.
	Name() string
	// PlacePod picks a node for the pod against the given state, or
	// explains why none fits. Implementations must not mutate cs.
	PlacePod(p *PodSpec, cs *ClusterState) (string, *Failure)
}

// GangPolicy places a whole job atomically.
type GangPolicy interface {
	// Name identifies the policy.
	Name() string
	// PlaceGang assigns every pod of the gang or fails without side
	// effects. Implementations may speculate on cs via
	// Checkpoint/Rollback but must leave it unchanged on return; the
	// caller applies the returned assignments.
	PlaceGang(g *Gang, cs *ClusterState) ([]Assignment, *Failure)
}

// Spread is the Kubernetes default placement: filter feasible nodes,
// prefer the least-allocated one (which spreads replicas across the
// cluster). The paper shows it fragments GPU clusters (§3.4, Fig. 3).
//
// Known scale limitation: Spread examines every feasible candidate on
// each placement. Its score mixes CPU and GPU fractions equally, so the
// capacity index's pack-preference order cannot prune the scan the way
// it does for Pack. That is fine for the baseline policy at paper scale;
// at thousands of nodes its per-placement cost is O(feasible nodes),
// made visible by kube's SchedStats.SpreadFullScans counter so a future
// change can justify (or skip) a spread-ordered index.
type Spread struct{}

var _ PodPolicy = Spread{}

// Name implements PodPolicy.
func (Spread) Name() string { return "spread" }

// PlacePod implements PodPolicy.
func (Spread) PlacePod(p *PodSpec, cs *ClusterState) (string, *Failure) {
	nodes, reason := cs.FeasibleNodes(p)
	if len(nodes) == 0 {
		return "", &Failure{Reason: reason, Message: fmt.Sprintf("pod %s: 0/%d nodes feasible", p.Name, len(cs.Nodes))}
	}
	best := nodes[0]
	bestScore := spreadScore(best)
	for _, n := range nodes[1:] {
		if s := spreadScore(n); s > bestScore || (s == bestScore && n.Name < best.Name) {
			best, bestScore = n, s
		}
	}
	return best.Name, nil
}

// spreadScore is higher for emptier nodes (LeastAllocated).
func spreadScore(n *Node) float64 {
	score := 0.0
	if n.Capacity.GPUs > 0 {
		score += float64(n.Free.GPUs) / float64(n.Capacity.GPUs)
	}
	if n.Capacity.MilliCPU > 0 {
		score += float64(n.Free.MilliCPU) / float64(n.Capacity.MilliCPU)
	}
	return score - 0.01*float64(n.Pods)
}

// Pack is FfDL's placement policy: prefer the most-allocated feasible
// node, cramming pods onto as few machines as possible and leaving whole
// nodes free for large jobs (§3.4).
type Pack struct{}

var _ PodPolicy = Pack{}

// Name implements PodPolicy.
func (Pack) Name() string { return "pack" }

// PlacePod implements PodPolicy. It queries the capacity index, whose
// per-type ordering is exactly Pack's preference (packOrderLess), so
// on a large cluster it examines only the handful of fullest
// candidates rather than every machine.
func (Pack) PlacePod(p *PodSpec, cs *ClusterState) (string, *Failure) {
	best, reason := cs.BestPacked(p)
	if best == nil {
		return "", &Failure{Reason: reason, Message: fmt.Sprintf("pod %s: 0/%d nodes feasible", p.Name, len(cs.Nodes))}
	}
	return best.Name, nil
}

// packScore is higher for fuller nodes (MostAllocated). It survives as
// BSA's scalar bias weight; the Pack policy itself selects via the
// packOrderLess preference the capacity index is sorted by.
func packScore(n *Node) float64 {
	score := 0.0
	if n.Capacity.GPUs > 0 {
		score += 1 - float64(n.Free.GPUs)/float64(n.Capacity.GPUs)
	}
	if n.Capacity.MilliCPU > 0 {
		score += 0.1 * (1 - float64(n.Free.MilliCPU)/float64(n.Capacity.MilliCPU))
	}
	return score
}

// GreedyGang adapts any PodPolicy into an all-or-nothing gang placement:
// it speculatively places each pod in turn and returns the full
// assignment only if every pod fits. This is the baseline gang scheduler
// the BSA variant is compared against.
type GreedyGang struct {
	// Pod is the per-pod policy used for each member.
	Pod PodPolicy
}

var _ GangPolicy = GreedyGang{}

// Name implements GangPolicy.
func (g GreedyGang) Name() string { return "gang-greedy-" + g.Pod.Name() }

// PlaceGang implements GangPolicy. The speculative placement runs
// under a ClusterState checkpoint (rolled back before returning) rather
// than on a full clone, so a failed attempt on a large cluster costs
// only the assignments it tried.
func (g GreedyGang) PlaceGang(gang *Gang, cs *ClusterState) ([]Assignment, *Failure) {
	mark := cs.Checkpoint()
	defer cs.Rollback(mark)
	// Place large pods first: best-fit-decreasing reduces failure on
	// tight clusters.
	// Each assignment lands in its pod's slot, so the output keeps the
	// gang's declared pod order.
	out := make([]Assignment, len(gang.Pods))
	for _, i := range podOrder(gang) {
		p := &gang.Pods[i]
		nodeName, fail := g.Pod.PlacePod(p, cs)
		if fail != nil {
			fail.Message = fmt.Sprintf("gang %s: %s", gang.JobID, fail.Message)
			return nil, fail
		}
		cs.Assign(nodeName, p.Demand)
		out[i] = Assignment{Pod: p.Name, Node: nodeName}
	}
	return out, nil
}

// podOrder returns pod indices sorted by descending GPU demand (stable).
func podOrder(g *Gang) []int {
	order := make([]int, len(g.Pods))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Pods[order[a]].Demand.GPUs > g.Pods[order[b]].Demand.GPUs
	})
	return order
}
