package kube

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// controllerLoop reconciles StatefulSets, Deployments and Jobs
// level-triggered: watch events mark exactly the owner objects they
// touch dirty and only those are reconciled (an owner-change event
// dirties the owner itself; a pod termination/deletion dirties the
// pod's owner), so reconcile work scales with churn, not with the
// number of objects in the cluster. The resync tick — and any wake
// whose watcher dropped events, which may have dirtied owners never
// seen — falls back to a full reconcileAll pass (which also
// garbage-collects orphans), the same conditional-rebuild treatment
// the scheduler got in PR 3. This is what restarts crashed learners
// (stateful sets), helper pods (deployments) and Guardians (jobs)
// automatically — the recovery machinery Table 3 measures.
func (c *Cluster) controllerLoop(watch *StoreWatch) {
	events := watch.Events()
	ticker := c.cfg.Clock.NewTicker(c.cfg.ResyncInterval)
	defer ticker.Stop()
	for {
		dirty := make(map[ownerKey]struct{})
		full := false
		select {
		case <-c.stopCh:
			return
		case ev := <-events:
			controllerMark(ev, dirty)
			sim.Coalesce(events, func(ev WatchEvent) { // coalesce event bursts
				controllerMark(ev, dirty)
			})
		case <-ticker.C:
			full = true // resync safety net (also garbage-collects)
		}
		if watch.TakeDropped() > 0 {
			full = true
		}
		var recStart time.Time
		if c.obsReconcile != nil && (full || len(dirty) > 0) {
			recStart = c.cfg.Clock.Now()
		}
		if full {
			c.reconcileAll()
		} else if len(dirty) > 0 {
			c.reconcileDirty(dirty)
		}
		if !recStart.IsZero() {
			c.obsReconcile.ObserveDuration(c.cfg.Clock.Now().Sub(recStart))
		}
	}
}

// ownerKey identifies one controller-owned object to reconcile.
type ownerKey struct {
	kind string
	name string
}

// controllerMark folds one watch event into the dirty-owner set:
// owner-object changes dirty that owner, pod terminations/deletions
// dirty the pod's owner. Node heartbeats and pod phase progress mark
// nothing — they would otherwise make the loop reconcile at the
// heartbeat rate.
func controllerMark(ev WatchEvent, dirty map[ownerKey]struct{}) {
	switch ev.Kind {
	case KindStatefulSet, KindDeployment, KindJob:
		dirty[ownerKey{ev.Kind, ev.Name}] = struct{}{}
	case KindPod:
		obj := ev.Object
		if obj == nil {
			obj = ev.Prev // deletes carry only the pre-image
		}
		p, ok := obj.(*Pod)
		if !ok {
			return
		}
		if ev.Type != WatchDeleted && !p.Terminated() {
			return
		}
		switch p.Owner.Kind {
		case KindStatefulSet, KindDeployment, KindJob:
			dirty[ownerKey{p.Owner.Kind, p.Owner.Name}] = struct{}{}
		}
	}
}

// reconcileDirty reconciles exactly the dirtied owners. A dirty owner
// that no longer exists gets the event-path form of orphan collection:
// cascade-delete its pods (pod names are owner-prefixed, so the
// listing is per-owner, not cluster-wide).
func (c *Cluster) reconcileDirty(dirty map[ownerKey]struct{}) {
	for k := range dirty {
		obj, ok := c.store.Get(k.kind, k.name)
		if !ok {
			for _, p := range c.store.ListPods(k.name + "-") {
				if p.Owner.Kind == k.kind && p.Owner.Name == k.name {
					c.DeletePod(p.Name, "OwnerDeleted")
				}
			}
			continue
		}
		switch o := obj.(type) {
		case *StatefulSet:
			c.reconcileStatefulSet(o)
		case *Deployment:
			c.reconcileDeployment(o)
		case *Job:
			c.reconcileJob(o)
		}
	}
}

func (c *Cluster) reconcileAll() {
	for _, obj := range c.store.List(KindStatefulSet, "") {
		c.reconcileStatefulSet(obj.(*StatefulSet))
	}
	for _, obj := range c.store.List(KindDeployment, "") {
		c.reconcileDeployment(obj.(*Deployment))
	}
	for _, obj := range c.store.List(KindJob, "") {
		c.reconcileJob(obj.(*Job))
	}
	c.garbageCollectOrphans()
}

// reconcileStatefulSet ensures pods <name>-0 … <name>-(replicas-1) exist
// and replaces terminated ones ("Crashed learners will be restarted
// automatically by K8S, because learners are deployed as stateful sets",
// §3.8).
func (c *Cluster) reconcileStatefulSet(s *StatefulSet) {
	for i := 0; i < s.Replicas; i++ {
		name := fmtPodName(s.Name, i)
		existing, ok := c.store.GetPod(name)
		if ok && !existing.Terminated() {
			continue
		}
		restarts := 0
		if ok {
			restarts = existing.Status.Restarts + 1
			c.DeletePod(name, "Restart")
			c.recordEvent(EventNormal, "Recreating", KindPod, name, s.Template.Type,
				fmt.Sprintf("stateful set %s replacing terminated pod (restart #%d)", s.Name, restarts))
		}
		pod := &Pod{
			Name:   name,
			Owner:  OwnerRef{Kind: KindStatefulSet, Name: s.Name},
			Spec:   s.Template,
			Status: PodStatus{Phase: PodPending, Restarts: restarts},
		}
		pod.Spec.RuntimeArgs = cloneMap(s.Template.RuntimeArgs)
		if pod.Spec.RuntimeArgs == nil {
			pod.Spec.RuntimeArgs = map[string]string{}
		}
		pod.Spec.RuntimeArgs["ordinal"] = strconv.Itoa(i)
		c.store.PutPod(pod)
	}
	// Scale down: remove excess ordinals.
	for _, p := range c.store.ListPods(s.Name + "-") {
		if p.Owner.Kind != KindStatefulSet || p.Owner.Name != s.Name {
			continue
		}
		if ord, ok := ordinalOf(p.Name, s.Name); ok && ord >= s.Replicas {
			c.DeletePod(p.Name, "ScaleDown")
		}
	}
}

// reconcileDeployment keeps Replicas non-terminated pods alive.
func (c *Cluster) reconcileDeployment(d *Deployment) {
	// Deployments use ordinal names too; recreation gives a fresh pod.
	for i := 0; i < d.Replicas; i++ {
		name := fmtPodName(d.Name, i)
		existing, ok := c.store.GetPod(name)
		if ok && !existing.Terminated() {
			continue
		}
		restarts := 0
		if ok {
			restarts = existing.Status.Restarts + 1
			c.DeletePod(name, "Restart")
		}
		pod := &Pod{
			Name:   name,
			Owner:  OwnerRef{Kind: KindDeployment, Name: d.Name},
			Spec:   d.Template,
			Status: PodStatus{Phase: PodPending, Restarts: restarts},
		}
		c.store.PutPod(pod)
	}
	for _, p := range c.store.ListPods(d.Name + "-") {
		if p.Owner.Kind != KindDeployment || p.Owner.Name != d.Name {
			continue
		}
		if ord, ok := ordinalOf(p.Name, d.Name); ok && ord >= d.Replicas {
			c.DeletePod(p.Name, "ScaleDown")
		}
	}
}

// reconcileJob drives a run-to-completion pod with restart backoff.
func (c *Cluster) reconcileJob(j *Job) {
	if j.Succeeded || j.Failed {
		return
	}
	podName := fmt.Sprintf("%s-attempt-%d", j.Name, j.Attempts)
	p, ok := c.store.GetPod(podName)
	if !ok {
		pod := &Pod{
			Name:   podName,
			Owner:  OwnerRef{Kind: KindJob, Name: j.Name},
			Spec:   j.Template,
			Status: PodStatus{Phase: PodPending},
		}
		c.store.PutPod(pod)
		return
	}
	switch p.Status.Phase {
	case PodSucceeded:
		c.store.UpdateJob(j.Name, func(job *Job) { job.Succeeded = true })
	case PodFailed:
		if j.Attempts >= j.BackoffLimit {
			c.store.UpdateJob(j.Name, func(job *Job) { job.Failed = true })
			c.recordEvent(EventWarning, "BackoffLimitExceeded", KindJob, j.Name, j.Template.Type,
				fmt.Sprintf("job failed after %d attempts", j.Attempts+1))
			return
		}
		c.DeletePod(podName, "Restart")
		c.store.UpdateJob(j.Name, func(job *Job) { job.Attempts++ })
	}
}

// garbageCollectOrphans deletes pods whose owner object is gone
// (cascade deletion).
func (c *Cluster) garbageCollectOrphans() {
	for _, p := range c.store.ListPods("") {
		var exists bool
		switch p.Owner.Kind {
		case KindStatefulSet, KindDeployment, KindJob:
			_, exists = c.store.Get(p.Owner.Kind, p.Owner.Name)
		default:
			exists = true // unowned pods are managed by their creator
		}
		if !exists {
			c.DeletePod(p.Name, "OwnerDeleted")
		}
	}
}

// nodeControllerLoop watches node heartbeats: nodes silent past the
// grace period become NotReady and their pods are deleted by the
// eviction logic — the paper's NodeControllerEviction behaviour: "when
// worker nodes became NotReady, [Kubernetes] would delete all pods
// running on the worker" (§5.6).
func (c *Cluster) nodeControllerLoop() {
	ticker := c.cfg.Clock.NewTicker(c.cfg.NodeGracePeriod / 2)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.checkNodes()
		}
	}
}

func (c *Cluster) checkNodes() {
	now := c.cfg.Clock.Now()
	for _, n := range c.store.ListNodes() {
		stale := now.Sub(n.LastHeartbeat) > c.cfg.NodeGracePeriod
		if n.Ready && stale {
			c.store.UpdateNode(n.Name, func(node *Node) { node.Ready = false })
			c.recordEvent(EventWarning, "NodeNotReady", KindNode, n.Name, "",
				"node stopped heartbeating")
		}
		if !n.Ready || stale {
			c.evictNodePods(n.Name)
		}
	}
}

func (c *Cluster) evictNodePods(nodeName string) {
	for _, p := range c.store.ListPods("") {
		if p.Status.Node != nodeName || p.Terminated() {
			continue
		}
		c.recordEvent(EventWarning, "NodeControllerEviction", KindPod, p.Name, p.Spec.Type,
			fmt.Sprintf("deleting pod: node %s is NotReady", nodeName))
		c.DeletePod(p.Name, "NodeFailure")
	}
}

// ordinalOf extracts i from "<owner>-<i>".
func ordinalOf(podName, owner string) (int, bool) {
	suffix, ok := strings.CutPrefix(podName, owner+"-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(suffix)
	if err != nil {
		return 0, false
	}
	return n, true
}
