// Package sched implements FfDL's scheduling policies over an abstract
// cluster model so the same code drives both the live kube-like
// orchestrator (internal/kube) and the discrete-event experiments
// (internal/expt):
//
//   - Spread — the Kubernetes default placement the paper's first
//     prototype used (§3.4): prefer the least-allocated node.
//   - Pack — FfDL's replacement: cram a job's pods onto as few machines
//     as possible, minimizing GPU fragmentation.
//   - Gang scheduling with the Biased Sampling Algorithm (BSA, §3.5):
//     place all pods of a job atomically or queue the whole job.
//   - FCFS dispatch with largest-gang-first tie-break and no GPU
//     overcommitment (§3.6), plus quota-based admission control with
//     preemption of free-tier and over-quota jobs.
package sched

import (
	"fmt"
	"sort"
)

// Resources is a multi-dimensional resource vector.
type Resources struct {
	// MilliCPU is CPU in thousandths of a core.
	MilliCPU int64
	// MemoryMB is RAM in mebibytes.
	MemoryMB int64
	// GPUs is the number of whole GPUs (no space-sharing; §3.6).
	GPUs int
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		MilliCPU: r.MilliCPU + o.MilliCPU,
		MemoryMB: r.MemoryMB + o.MemoryMB,
		GPUs:     r.GPUs + o.GPUs,
	}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{
		MilliCPU: r.MilliCPU - o.MilliCPU,
		MemoryMB: r.MemoryMB - o.MemoryMB,
		GPUs:     r.GPUs - o.GPUs,
	}
}

// Fits reports whether a demand of o fits within r.
func (r Resources) Fits(o Resources) bool {
	return o.MilliCPU <= r.MilliCPU && o.MemoryMB <= r.MemoryMB && o.GPUs <= r.GPUs
}

// IsZero reports an all-zero vector.
func (r Resources) IsZero() bool {
	return r.MilliCPU == 0 && r.MemoryMB == 0 && r.GPUs == 0
}

// String implements fmt.Stringer.
func (r Resources) String() string {
	return fmt.Sprintf("cpu=%dm mem=%dMB gpu=%d", r.MilliCPU, r.MemoryMB, r.GPUs)
}

// Node is the scheduler's view of one machine.
type Node struct {
	// Name identifies the node.
	Name string
	// GPUType is the accelerator model ("K80", "P100", "V100"); pods may
	// constrain placement to a type, as FfDL jobs request specific GPUs.
	GPUType string
	// Capacity is the node's total allocatable resources.
	Capacity Resources
	// Free is what remains after current assignments.
	Free Resources
	// Unschedulable marks cordoned or NotReady nodes.
	Unschedulable bool
	// Pods counts pods currently assigned, for spread scoring.
	Pods int
}

// Clone copies the node.
func (n *Node) Clone() *Node {
	c := *n
	return &c
}

// PodSpec is one schedulable unit (a learner, parameter server or helper
// pod).
type PodSpec struct {
	// Name identifies the pod.
	Name string
	// JobID ties the pod to its DL job (its gang).
	JobID string
	// Demand is the pod's resource request.
	Demand Resources
	// GPUType constrains placement to nodes with this accelerator; empty
	// means any.
	GPUType string
}

// Gang is the unit of atomic placement: all pods of one DL job.
type Gang struct {
	// JobID names the job.
	JobID string
	// Pods lists every pod that must be co-scheduled.
	Pods []PodSpec
	// User owns the job, for quota accounting.
	User string
}

// TotalDemand sums the gang's resource requests.
func (g *Gang) TotalDemand() Resources {
	var total Resources
	for _, p := range g.Pods {
		total = total.Add(p.Demand)
	}
	return total
}

// GPUDemand returns the gang's total GPU request.
func (g *Gang) GPUDemand() int { return g.TotalDemand().GPUs }

// Assignment binds one pod to one node.
type Assignment struct {
	Pod  string
	Node string
}

// FailureReason mirrors the Kubernetes scheduler failure messages the
// paper catalogs in Table 8.
type FailureReason string

// Scheduling failure reasons (Table 8 vocabulary).
const (
	ReasonNoNodesAvailable FailureReason = "No nodes available that match all of the predicates"
	ReasonInsufficientGPU  FailureReason = "Insufficient alpha.kubernetes.io/nvidia-gpu"
	ReasonNodeSelector     FailureReason = "MatchNodeSelector"
	ReasonUnschedulable    FailureReason = "NodeUnschedulable"
)

// Failure explains why placement did not happen.
type Failure struct {
	Reason  FailureReason
	Message string
}

// Error implements error.
func (f *Failure) Error() string {
	return fmt.Sprintf("sched: %s: %s", f.Reason, f.Message)
}

// ClusterState is a mutable view of the cluster the policies place
// against. Policies mutate Free/Pods on assignment (via Assign/Release)
// so multi-pod placements account for earlier pods of the same gang.
//
// The state carries a capacity index — per-GPU-type slices of the
// schedulable nodes sorted by free GPU count — kept incrementally up to
// date by every mutation. All placement queries (FeasibleNodes,
// Candidates, BestPacked) run against the index, so their cost scales
// with the number of GPU-feasible candidates rather than cluster size.
// TakeExamined counts the nodes those queries actually inspected,
// which is the scheduler's primary scalability metric.
//
// For speculative placement (gang all-or-nothing attempts, BSA
// samples), Checkpoint/Rollback undo-log a sequence of Assign/Release
// calls in place; this replaces whole-state cloning, which at thousands
// of nodes costs more than the placement itself.
type ClusterState struct {
	Nodes []*Node

	index     map[string]*Node
	types     map[string]*typeIndex
	typeNames []string // sorted keys of types, for deterministic iteration

	unschedulable int // nodes currently excluded from the index

	examined  uint64
	undo      []undoEntry
	specDepth int
}

// undoEntry records one Assign (or Release) made under a checkpoint.
type undoEntry struct {
	node     *Node
	demand   Resources
	assigned bool
}

// NewClusterState builds a state over cloned nodes.
func NewClusterState(nodes []*Node) *ClusterState {
	cs := &ClusterState{
		index: make(map[string]*Node, len(nodes)),
		types: make(map[string]*typeIndex),
	}
	for _, n := range nodes {
		cs.AddNode(n)
	}
	return cs
}

// Node returns a node by name, or nil.
func (cs *ClusterState) Node(name string) *Node { return cs.index[name] }

// AddNode clones the node into the state and indexes it. Adding a name
// that already exists is a no-op.
func (cs *ClusterState) AddNode(n *Node) {
	if _, ok := cs.index[n.Name]; ok {
		return
	}
	c := n.Clone()
	cs.Nodes = append(cs.Nodes, c)
	cs.index[c.Name] = c
	if c.Unschedulable {
		cs.unschedulable++
		// Still record the type so maxCapGPUs bounds stay valid if the
		// node is later uncordoned.
		cs.typeFor(c.GPUType)
		return
	}
	cs.typeFor(c.GPUType).insert(c)
}

// RemoveNode drops a node from the state entirely (machine
// decommissioned). Unknown names are ignored.
func (cs *ClusterState) RemoveNode(name string) {
	n, ok := cs.index[name]
	if !ok {
		return
	}
	delete(cs.index, name)
	if n.Unschedulable {
		cs.unschedulable--
	} else {
		cs.types[n.GPUType].remove(n)
	}
	for i, x := range cs.Nodes {
		if x == n {
			cs.Nodes = append(cs.Nodes[:i], cs.Nodes[i+1:]...)
			break
		}
	}
}

// SetSchedulable moves a node in or out of the placement index
// (cordon/uncordon, Ready/NotReady transitions).
func (cs *ClusterState) SetSchedulable(name string, schedulable bool) {
	n, ok := cs.index[name]
	if !ok || n.Unschedulable == !schedulable {
		return
	}
	if schedulable {
		n.Unschedulable = false
		cs.unschedulable--
		cs.typeFor(n.GPUType).insert(n)
	} else {
		cs.types[n.GPUType].remove(n)
		n.Unschedulable = true
		cs.unschedulable++
	}
}

// SetCapacity reconfigures a node's total resources, adjusting its free
// capacity by the same delta (allocations are preserved).
func (cs *ClusterState) SetCapacity(name string, capacity Resources) {
	n, ok := cs.index[name]
	if !ok || n.Capacity == capacity {
		return
	}
	delta := capacity.Sub(n.Capacity)
	if n.Unschedulable {
		n.Capacity = capacity
		n.Free = n.Free.Add(delta)
		return
	}
	ti := cs.typeFor(n.GPUType)
	ti.remove(n)
	n.Capacity = capacity
	n.Free = n.Free.Add(delta)
	ti.insert(n)
}

// typeFor returns (creating if needed) the index slice for a GPU type.
func (cs *ClusterState) typeFor(gpuType string) *typeIndex {
	ti, ok := cs.types[gpuType]
	if !ok {
		ti = &typeIndex{}
		cs.types[gpuType] = ti
		cs.typeNames = append(cs.typeNames, gpuType)
		sort.Strings(cs.typeNames)
	}
	return ti
}

// Assign consumes resources for a pod on a node. Unknown nodes are
// ignored (the live scheduler view may briefly lag node removal).
func (cs *ClusterState) Assign(nodeName string, demand Resources) {
	n, ok := cs.index[nodeName]
	if !ok {
		return
	}
	if cs.specDepth > 0 {
		cs.undo = append(cs.undo, undoEntry{node: n, demand: demand, assigned: true})
	}
	cs.applyAssign(n, demand)
}

// Release returns a pod's resources to a node.
func (cs *ClusterState) Release(nodeName string, demand Resources) {
	n, ok := cs.index[nodeName]
	if !ok {
		return
	}
	if cs.specDepth > 0 {
		cs.undo = append(cs.undo, undoEntry{node: n, demand: demand, assigned: false})
	}
	cs.applyRelease(n, demand)
}

func (cs *ClusterState) applyAssign(n *Node, demand Resources) {
	if !n.Unschedulable && !demand.IsZero() {
		ti := cs.types[n.GPUType]
		ti.remove(n)
		n.Free = n.Free.Sub(demand)
		n.Pods++
		ti.insert(n)
		return
	}
	n.Free = n.Free.Sub(demand)
	n.Pods++
}

func (cs *ClusterState) applyRelease(n *Node, demand Resources) {
	if !n.Unschedulable && !demand.IsZero() {
		ti := cs.types[n.GPUType]
		ti.remove(n)
		n.Free = n.Free.Add(demand)
		ti.insert(n)
	} else {
		n.Free = n.Free.Add(demand)
	}
	if n.Pods > 0 {
		n.Pods--
	}
}

// Checkpoint begins a speculative placement: subsequent Assign/Release
// calls are undo-logged until the matching Rollback. Checkpoints nest.
func (cs *ClusterState) Checkpoint() int {
	cs.specDepth++
	return len(cs.undo)
}

// Rollback reverts every Assign/Release made since the matching
// Checkpoint, restoring free capacity and index order exactly.
func (cs *ClusterState) Rollback(mark int) {
	for i := len(cs.undo) - 1; i >= mark; i-- {
		e := cs.undo[i]
		if e.assigned {
			cs.applyRelease(e.node, e.demand)
		} else {
			cs.applyAssign(e.node, e.demand)
		}
	}
	cs.undo = cs.undo[:mark]
	cs.specDepth--
}

// TotalGPUs returns (free, capacity) GPU counts over schedulable nodes.
func (cs *ClusterState) TotalGPUs() (free, capacity int) {
	for _, n := range cs.Nodes {
		if n.Unschedulable {
			continue
		}
		free += n.Free.GPUs
		capacity += n.Capacity.GPUs
	}
	return free, capacity
}

// examinedNodes returns the cumulative count of nodes inspected by
// placement queries since construction (or the last TakeExamined).
func (cs *ClusterState) examinedNodes() uint64 { return cs.examined }

// TakeExamined returns the examined-node count and resets it, for
// per-pass accounting.
func (cs *ClusterState) TakeExamined() uint64 {
	e := cs.examined
	cs.examined = 0
	return e
}

// eachRelevantType visits the type indexes a pod may place onto, in
// deterministic (sorted) order.
func (cs *ClusterState) eachRelevantType(p *PodSpec, fn func(*typeIndex) bool) {
	if p.GPUType != "" {
		if ti, ok := cs.types[p.GPUType]; ok {
			fn(ti)
		}
		return
	}
	for _, t := range cs.typeNames {
		if !fn(cs.types[t]) {
			return
		}
	}
}

// FeasibleNodes returns the nodes a pod could land on — fullest (fewest
// free GPUs) first within each GPU type — and, when empty, the dominant
// failure reason across nodes (the predicate breakdown the paper
// extracts from FailedScheduling logs).
func (cs *ClusterState) FeasibleNodes(p *PodSpec) ([]*Node, FailureReason) {
	return cs.Candidates(nil, p, 0)
}

// Candidates is FeasibleNodes with an optional per-GPU-type limit:
// limit > 0 stops collecting after that many feasible nodes per type,
// without touching the (emptier) remainder of the index. Sampling
// schedulers use it to bound work per placement step on huge clusters.
// The candidates are appended to dst, so a caller that passes its own
// buffer back in (dst[:0]) scans without allocating.
func (cs *ClusterState) Candidates(dst []*Node, p *PodSpec, limit int) ([]*Node, FailureReason) {
	out := dst
	matching, gpuOK := 0, 0
	cs.eachRelevantType(p, func(ti *typeIndex) bool {
		matching += len(ti.ordered)
		i := ti.lowerBound(p.Demand.GPUs)
		gpuOK += len(ti.ordered) - i
		taken := 0
		for ; i < len(ti.ordered); i++ {
			n := ti.ordered[i]
			cs.examined++
			if n.Free.Fits(p.Demand) {
				out = append(out, n)
				taken++
				if limit > 0 && taken >= limit {
					break
				}
			}
		}
		return true
	})
	if len(out) > len(dst) {
		return out, ""
	}
	return out, cs.dominantReason(p, matching, gpuOK)
}

// BestPacked returns the pack-preferred feasible node. Each type index
// is ordered by packOrderLess — Pack's total preference — so the first
// feasible node in a type's GPU-feasible suffix is that type's
// optimum, and only the (usually tiny) prefix of CPU/memory-infeasible
// fuller nodes before it is ever examined. Type-agnostic pods compare
// the per-type winners under the same preference.
func (cs *ClusterState) BestPacked(p *PodSpec) (*Node, FailureReason) {
	var best *Node
	matching, gpuOK := 0, 0
	cs.eachRelevantType(p, func(ti *typeIndex) bool {
		matching += len(ti.ordered)
		i := ti.lowerBound(p.Demand.GPUs)
		gpuOK += len(ti.ordered) - i
		for ; i < len(ti.ordered); i++ {
			n := ti.ordered[i]
			cs.examined++
			if !n.Free.Fits(p.Demand) {
				continue
			}
			if best == nil || packOrderLess(n, best) {
				best = n
			}
			break // first feasible node is this type's optimum
		}
		return true
	})
	if best != nil {
		return best, ""
	}
	return nil, cs.dominantReason(p, matching, gpuOK)
}

// dominantReason reconstructs the most common first-failing predicate
// across all nodes from index aggregates, without scanning the cluster:
// per node the predicate order is unschedulable, then GPU-type
// mismatch, then insufficient free GPUs, then CPU/memory (the order the
// Kubernetes scheduler reports them in, Table 8). matching counts
// schedulable nodes of an acceptable GPU type, gpuOK those among them
// with enough free GPUs.
func (cs *ClusterState) dominantReason(p *PodSpec, matching, gpuOK int) FailureReason {
	counts := map[FailureReason]int{}
	if cs.unschedulable > 0 {
		counts[ReasonUnschedulable] = cs.unschedulable
	}
	schedulable := len(cs.Nodes) - cs.unschedulable
	if p.GPUType != "" && schedulable > matching {
		counts[ReasonNodeSelector] = schedulable - matching
	}
	if matching > gpuOK {
		counts[ReasonInsufficientGPU] = matching - gpuOK
	}
	if gpuOK > 0 {
		// Every GPU-feasible candidate was examined and failed Fits.
		counts[ReasonNoNodesAvailable] = gpuOK
	}
	best := ReasonNoNodesAvailable
	bestN := -1
	for r, c := range counts {
		if c > bestN || (c == bestN && r < best) {
			best, bestN = r, c
		}
	}
	return best
}
