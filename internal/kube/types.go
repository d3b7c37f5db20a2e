// Package kube implements the container-orchestration substrate FfDL
// runs on: a Kubernetes-like system with a watchable object store, pod
// scheduling, ReplicaSet/StatefulSet/Job/Deployment controllers, per-node
// kubelets that execute pod processes, node heartbeating with
// NotReady-eviction, and a FailedScheduling event stream.
//
// It reproduces the Kubernetes behaviours the paper depends on:
//
//   - pod-at-a-time default scheduling (the cause of §3.5's gang
//     deadlocks) with pluggable placement policies and a gang-scheduler
//     extension point,
//   - automatic restart of crashed pods (stateful sets restart learners,
//     K8s Jobs restart Guardians, §3.3/§3.8),
//   - NodeControllerEviction deleting pods on NotReady workers (§5.6),
//   - events with the exact failure-reason vocabulary of Table 8.
package kube

import (
	"time"

	"github.com/ffdl/ffdl/internal/sched"
)

// PodPhase is the pod lifecycle phase.
type PodPhase string

// Pod phases (Kubernetes vocabulary).
const (
	PodPending   PodPhase = "Pending"
	PodRunning   PodPhase = "Running"
	PodSucceeded PodPhase = "Succeeded"
	PodFailed    PodPhase = "Failed"
)

// OwnerRef links a pod to its managing controller object.
type OwnerRef struct {
	Kind string // "StatefulSet", "Deployment", "Job", "ReplicaSet"
	Name string
}

// PodSpec describes what to run and what it needs.
type PodSpec struct {
	// Demand is the resource request.
	Demand sched.Resources
	// GPUType constrains node selection.
	GPUType string
	// JobID is the gang name (the paper: "gang information, namely gang
	// name and gang size ... readily available from the pod owner").
	JobID string
	// GangSize is the number of pods in the gang; 0 disables gang
	// handling for this pod.
	GangSize int
	// Runtime selects the registered process to execute; empty runs a
	// no-op that blocks until killed.
	Runtime string
	// RuntimeArgs is passed to the runtime entrypoint.
	RuntimeArgs map[string]string
	// Type labels the pod for failure analytics (Table 8 / Fig. 6):
	// "learner", "lhelper", "jobmonitor", ...
	Type string
}

// PodStatus is the observed state.
type PodStatus struct {
	Phase PodPhase
	// Node is the bound node; empty while unscheduled.
	Node string
	// ExitCode is the process exit code once terminated.
	ExitCode int
	// Reason carries a machine-readable cause ("NodeFailure", "Killed",
	// "Evicted").
	Reason string
	// Restarts counts kubelet-local container restarts.
	Restarts int
	// ScheduledAt/StartedAt/FinishedAt timestamp the lifecycle.
	ScheduledAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

// Pod is the schedulable unit.
type Pod struct {
	Name   string
	Labels map[string]string
	Owner  OwnerRef
	Spec   PodSpec
	Status PodStatus
	// UID distinguishes incarnations of recreated pods that share a
	// name (StatefulSet/Deployment restarts). Assigned by the store.
	UID uint64
}

// Clone deep-copies the pod.
func (p *Pod) Clone() *Pod {
	c := *p
	c.Labels = cloneMap(p.Labels)
	c.Spec.RuntimeArgs = cloneMap(p.Spec.RuntimeArgs)
	return &c
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Terminated reports whether the pod reached a terminal phase.
func (p *Pod) Terminated() bool {
	return p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed
}

// Node is a cluster machine.
type Node struct {
	Name     string
	GPUType  string
	Capacity sched.Resources
	// Ready mirrors the kubelet heartbeat; NotReady nodes get their pods
	// evicted after a grace period.
	Ready bool
	// Cordoned marks administratively unschedulable nodes (§5.5: nodes
	// with hardware failures "were later cordoned").
	Cordoned bool
	// LastHeartbeat is the most recent kubelet health report.
	LastHeartbeat time.Time
}

// Clone copies the node.
func (n *Node) Clone() *Node {
	c := *n
	return &c
}

// Schedulable reports whether new pods may bind to the node.
func (n *Node) Schedulable() bool { return n.Ready && !n.Cordoned }

// StatefulSet manages a fixed set of ordinally-named pods that are
// recreated on failure — how the Guardian deploys learners (§3.8).
type StatefulSet struct {
	Name     string
	Replicas int
	Template PodSpec
}

// Clone copies the set.
func (s *StatefulSet) Clone() *StatefulSet {
	c := *s
	c.Template.RuntimeArgs = cloneMap(s.Template.RuntimeArgs)
	return &c
}

// Deployment manages stateless replicas — how FfDL core microservices
// and the per-job helper pod are deployed.
type Deployment struct {
	Name     string
	Replicas int
	Template PodSpec
}

// Clone copies the deployment.
func (d *Deployment) Clone() *Deployment {
	c := *d
	c.Template.RuntimeArgs = cloneMap(d.Template.RuntimeArgs)
	return &c
}

// Job runs a pod to completion, restarting on failure up to
// BackoffLimit — how the LCM launches Guardians ("If the Guardian
// crashes ... K8S is guaranteed to restart it", §3.3).
type Job struct {
	Name         string
	Template     PodSpec
	BackoffLimit int

	// Status fields maintained by the controller.
	Attempts  int
	Succeeded bool
	Failed    bool
}

// Clone copies the job.
func (j *Job) Clone() *Job {
	c := *j
	c.Template.RuntimeArgs = cloneMap(j.Template.RuntimeArgs)
	return &c
}

// NetworkPolicy models the per-job isolation policies the Guardian
// applies (§3.3): pods of a job may talk only within the job.
type NetworkPolicy struct {
	Name string
	// JobID scopes the policy.
	JobID string
	// AllowWithinJob permits intra-job traffic (always true in FfDL).
	AllowWithinJob bool
}

// EventType classifies events.
type EventType string

// Event types.
const (
	EventNormal  EventType = "Normal"
	EventWarning EventType = "Warning"
)

// Event mirrors a Kubernetes event; FailedScheduling events carry the
// Table 8 reason messages.
type Event struct {
	Time    time.Time
	Type    EventType
	Reason  string
	Kind    string
	Object  string
	PodType string
	Message string
}

// WatchEventType classifies store watch notifications.
type WatchEventType int

// Watch event types.
const (
	WatchAdded WatchEventType = iota + 1
	WatchModified
	WatchDeleted
)

// WatchEvent notifies a watcher of an object change. Delivery is
// best-effort per watcher: a full buffer drops the event and increments
// the watcher's dropped counter (StoreWatch.Dropped), so consumers are
// level-triggered — any event may be missing, and every consumer must
// be able to converge from a resync listing alone. The normative
// statement of this contract is docs/watch-protocol.md.
type WatchEvent struct {
	Type WatchEventType
	Kind string
	Name string
	// Rev is the store revision of the mutation this event reports
	// (monotonically increasing, one per mutation). Consumers folding
	// events into incremental views use it to audit currency against
	// Store.Revision().
	Rev uint64
	// Object is a deep copy of the object after the change (nil for
	// deletes).
	Object any
	// Prev is a deep copy of the object before the change (nil for
	// adds). Consumers that maintain incremental views — the
	// scheduler's dirty-set above all — diff Prev against Object to
	// apply exactly the delta an event represents, instead of
	// re-listing the store.
	Prev any
}
