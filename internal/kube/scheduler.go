package kube

import (
	"fmt"
	"sort"
	"time"

	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// SchedStats counts scheduler work, for observability and for the
// scale experiments that pin "cost proportional to what changed, not
// cluster size".
type SchedStats struct {
	// Passes is the number of scheduling passes that evaluated pending
	// pods against the cluster view.
	Passes uint64
	// FullScans counts full-cluster view rebuilds: one at boot plus one
	// per close of the scheduler's watch (a buffer overflow). Event-driven
	// operation never re-lists the store otherwise.
	FullScans uint64
	// NodesExamined is the cumulative number of nodes placement queries
	// inspected across all passes. Dividing by Passes gives the
	// per-pass cost the capacity index keeps sublinear in cluster size.
	NodesExamined uint64
	// PodsBound counts successful bindings.
	PodsBound uint64
	// EventsSeen / EventsIgnored count store watch events observed and
	// the subset the dirty-set filter discarded without any work
	// (controller objects, node updates that change nothing it reads).
	EventsSeen    uint64
	EventsIgnored uint64
	// SpreadFullScans counts placement queries answered by the Spread
	// policy. Spread examines every feasible candidate: its score mixes
	// CPU and GPU equally, so the pack-ordered capacity index cannot
	// prune for it. The counter makes that cost visible at scale; see
	// the Spread godoc in internal/sched and docs/architecture.md.
	SpreadFullScans uint64
}

// schedulerLoop is the cluster scheduler. It is event-driven and
// incremental: a watch on the API-server store delivers every object
// change with its previous state (WatchEvent.Prev), and the loop folds
// each delta into a live sched.ClusterState plus a pending-pod set —
// the "dirty-set" view. A scheduling pass therefore never re-lists the
// store; it evaluates only the pending pods, against a capacity index
// whose per-placement cost scales with feasible candidates rather than
// cluster size.
//
// Wake filtering is capacity-aware: a pass runs only when a new pod
// appears, or when capacity that could help a waiting pod is freed
// (pod terminated/deleted, node added/uncordoned/grown — tracked per
// GPU type and matched against what the waiting pods actually demand).
// Pod phase progress, node updates that change neither schedulability
// nor capacity and other no-op churn are discarded at the event filter;
// node health sends no event at all, only a Ready flip is written.
//
// The loop keeps no ticker. Only a lost event can make the incremental
// view drift, and the store never loses one silently: it closes a watch
// whose buffer overflows. On that close the loop re-watches, then
// rebuilds the view from a full listing (SchedStats.FullScans).
//
// Without a GangPolicy the pass behaves like the stock Kubernetes
// scheduler — "it considers each of the learner pods individually"
// (§3.5) — binding whatever fits, which is what produces partial
// placements and temporarily deadlocked learners. With a GangPolicy,
// pods carrying gang information are bound all-or-nothing.
func (c *Cluster) schedulerLoop(watch *StoreWatch) {
	defer func() { watch.Cancel() }()
	s := &schedCore{c: c}
	s.resync()
	c.publishSchedStats(&s.stats)
	for {
		select {
		case <-c.stopCh:
			return
		case ev, ok := <-watch.Events():
			closed := !ok
			if ok {
				s.observe(ev)
				// Coalesce the burst: drain whatever is queued so one
				// pass covers it all.
				closed = sim.Coalesce(watch.Events(), s.observe)
			}
			if closed {
				watch = c.store.Watch("")
				s.resync()
			} else {
				s.maybePass()
			}
		}
		c.publishSchedStats(&s.stats)
	}
}

// assignInfo remembers what the scheduler view charged for one bound
// pod incarnation, so the matching release is exact even after the
// node or pod object is gone.
type assignInfo struct {
	node    string
	gpuType string // the node's GPU type, for freed-capacity matching
	demand  sched.Resources
	jobID   string
	gang    bool
}

// schedCore is the scheduler's incremental view of the cluster plus
// the dirty-set bookkeeping. It is confined to the scheduler goroutine.
type schedCore struct {
	c     *Cluster
	state *sched.ClusterState

	// pending holds unbound, non-terminated pods by name.
	pending map[string]*Pod
	// assigned maps bound pod UIDs to what their binding consumed. It
	// is the idempotence guard: an event (or our own bind echo) whose
	// effect is already reflected here is a no-op.
	assigned map[uint64]assignInfo
	// boundByGang counts bound, live members per gang job — the
	// incremental replacement for scanning all pods per pass.
	boundByGang map[string]int

	// Dirty-set wake state, reset after every maybePass.
	newPending bool
	freedTypes map[string]struct{}

	// What the still-pending pods are waiting for, recomputed after
	// each pass: GPU types (waitingAny covers type-agnostic pods).
	waitingAny   bool
	waitingTypes map[string]struct{}

	stats SchedStats
}

// observe folds one store event into the view.
func (s *schedCore) observe(ev WatchEvent) {
	s.stats.EventsSeen++
	switch ev.Kind {
	case KindPod:
		s.observePod(ev)
	case KindNode:
		s.observeNode(ev)
	default:
		s.stats.EventsIgnored++
	}
}

func (s *schedCore) observePod(ev WatchEvent) {
	if ev.Type == WatchDeleted {
		prev, _ := ev.Prev.(*Pod)
		if prev == nil {
			s.stats.EventsIgnored++
			return
		}
		if cur, ok := s.pending[prev.Name]; ok && cur.UID == prev.UID {
			delete(s.pending, prev.Name)
		}
		s.release(prev.UID)
		return
	}
	p, _ := ev.Object.(*Pod)
	if p == nil {
		s.stats.EventsIgnored++
		return
	}
	switch {
	case p.Terminated():
		if cur, ok := s.pending[p.Name]; ok && cur.UID == p.UID {
			delete(s.pending, p.Name)
		}
		s.release(p.UID)
	case p.Status.Node == "":
		if _, ok := s.pending[p.Name]; !ok {
			s.newPending = true
		}
		s.pending[p.Name] = p
	default: // bound and live
		if cur, ok := s.pending[p.Name]; ok && cur.UID == p.UID {
			delete(s.pending, p.Name)
		}
		s.mirrorAssign(p)
	}
}

func (s *schedCore) observeNode(ev WatchEvent) {
	if ev.Type == WatchDeleted {
		s.state.RemoveNode(ev.Name)
		return
	}
	n, _ := ev.Object.(*Node)
	if n == nil {
		s.stats.EventsIgnored++
		return
	}
	sn := s.state.Node(n.Name)
	if sn == nil {
		// New machine: all capacity free. Events arrive in store
		// order, so any binding to it arrives after this event.
		s.state.AddNode(&sched.Node{
			Name: n.Name, GPUType: n.GPUType, Capacity: n.Capacity,
			Free: n.Capacity, Unschedulable: !n.Schedulable(),
		})
		if n.Schedulable() {
			s.freed(n.GPUType)
		}
		return
	}
	schedulable := n.Schedulable()
	capChanged := sn.Capacity != n.Capacity
	if schedulable == !sn.Unschedulable && !capChanged {
		// Nothing placement-relevant changed: no pass.
		s.stats.EventsIgnored++
		return
	}
	if capChanged {
		delta := n.Capacity.Sub(sn.Capacity)
		s.state.SetCapacity(n.Name, n.Capacity)
		// Growth only frees usable capacity if the node is (or is in
		// this same event becoming) schedulable.
		if schedulable && (delta.GPUs > 0 || delta.MilliCPU > 0 || delta.MemoryMB > 0) {
			s.freed(n.GPUType)
		}
	}
	if schedulable == sn.Unschedulable {
		s.state.SetSchedulable(n.Name, schedulable)
		if schedulable {
			s.freed(n.GPUType)
		}
	}
}

// mirrorAssign charges a bound pod to the view (no-op when the view
// already reflects it — our own bind, or a binding a relist charged).
func (s *schedCore) mirrorAssign(p *Pod) {
	if _, ok := s.assigned[p.UID]; ok {
		return
	}
	s.charge(p, p.Status.Node)
}

// charge records one binding in the view: consume the node's capacity
// and remember exactly what to release when this incarnation ends.
func (s *schedCore) charge(p *Pod, nodeName string) {
	gpuType := p.Spec.GPUType
	if sn := s.state.Node(nodeName); sn != nil {
		gpuType = sn.GPUType
	}
	s.state.Assign(nodeName, p.Spec.Demand)
	gang := p.Spec.GangSize > 0 && p.Spec.JobID != ""
	s.assigned[p.UID] = assignInfo{
		node: nodeName, gpuType: gpuType, demand: p.Spec.Demand,
		jobID: p.Spec.JobID, gang: gang,
	}
	if gang {
		s.boundByGang[p.Spec.JobID]++
	}
}

// release returns a bound incarnation's resources to the view and
// marks its GPU type freed. Idempotent.
func (s *schedCore) release(uid uint64) {
	info, ok := s.assigned[uid]
	if !ok {
		return
	}
	delete(s.assigned, uid)
	s.state.Release(info.node, info.demand)
	s.freed(info.gpuType)
	if info.gang {
		if s.boundByGang[info.jobID]--; s.boundByGang[info.jobID] <= 0 {
			delete(s.boundByGang, info.jobID)
		}
	}
}

func (s *schedCore) freed(gpuType string) {
	if s.freedTypes == nil {
		s.freedTypes = make(map[string]struct{})
	}
	s.freedTypes[gpuType] = struct{}{}
}

// maybePass runs a scheduling pass if the coalesced event batch could
// make one productive: a new pod arrived, or capacity was freed on a
// GPU type some waiting pod can use.
func (s *schedCore) maybePass() {
	trigger := s.newPending || (len(s.pending) > 0 && s.freedHelps())
	s.newPending = false
	s.freedTypes = nil
	if len(s.pending) == 0 {
		s.waitingAny, s.waitingTypes = false, nil
		return
	}
	if trigger {
		s.runPass()
	}
}

// freedHelps reports whether any freed GPU type matches what the
// waiting pods demand (a type-agnostic waiter matches anything).
func (s *schedCore) freedHelps() bool {
	if len(s.freedTypes) == 0 {
		return false
	}
	if s.waitingAny {
		return true
	}
	for t := range s.freedTypes {
		if _, ok := s.waitingTypes[t]; ok {
			return true
		}
	}
	return false
}

// runPass evaluates every pending pod against the live view.
func (s *schedCore) runPass() {
	s.stats.Passes++
	var passStart time.Time
	if s.c.obsPass != nil {
		passStart = s.c.cfg.Clock.Now()
	}
	pending := make([]*Pod, 0, len(s.pending))
	for _, p := range s.pending {
		pending = append(pending, p)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].Name < pending[j].Name })
	if s.c.cfg.GangPolicy != nil {
		s.scheduleGangs(pending)
	} else {
		s.schedulePodAtATime(pending)
	}
	s.waitingAny, s.waitingTypes = false, nil
	for _, p := range s.pending {
		if p.Spec.GPUType == "" {
			s.waitingAny = true
			continue
		}
		if s.waitingTypes == nil {
			s.waitingTypes = make(map[string]struct{})
		}
		s.waitingTypes[p.Spec.GPUType] = struct{}{}
	}
	examined := s.state.TakeExamined()
	s.stats.NodesExamined += examined
	if s.c.obsPass != nil {
		s.c.obsPass.ObserveDuration(s.c.cfg.Clock.Now().Sub(passStart))
		s.c.obsPassNodes.Observe(float64(examined))
	}
}

// resync rebuilds the whole view from a store listing — at boot and
// after the watch closed — and runs a full pass if anything is
// pending. The caller has already re-watched, so no mutation after the
// listing goes unseen.
func (s *schedCore) resync() {
	s.stats.FullScans++
	c := s.c
	// Pods before nodes: a pod in the listing is bound to a node that
	// existed before the node listing, and a node added after it arrives
	// as an event ahead of any binding to it.
	pods := c.store.ListPods("")
	state := sched.NewClusterState(nil)
	for _, n := range c.store.ListNodes() {
		state.AddNode(&sched.Node{
			Name: n.Name, GPUType: n.GPUType, Capacity: n.Capacity,
			Free: n.Capacity, Unschedulable: !n.Schedulable(),
		})
	}
	s.state = state
	s.pending = make(map[string]*Pod)
	s.assigned = make(map[uint64]assignInfo)
	s.boundByGang = make(map[string]int)
	s.newPending = false
	s.freedTypes = nil
	for _, p := range pods {
		switch {
		case p.Terminated():
		case p.Status.Node == "":
			if p.Status.Phase == PodPending {
				s.pending[p.Name] = p
			}
		default:
			s.mirrorAssign(p)
		}
	}
	state.TakeExamined() // rebuild accounting is FullScans, not examined
	if len(s.pending) > 0 {
		s.runPass()
	} else {
		s.waitingAny, s.waitingTypes = false, nil
	}
}

// schedulePodAtATime is the stock behaviour: bind each pod greedily, in
// the nondeterministic order the paper blames for partial gang
// placements ("the order in which learner pods are queued by K8S for
// scheduling is non deterministic", §5.3).
func (s *schedCore) schedulePodAtATime(pending []*Pod) {
	c := s.c
	_, isSpread := c.cfg.PodPolicy.(sched.Spread)
	c.cfg.RNG.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	for _, p := range pending {
		if isSpread {
			// Spread cannot use the capacity index's pruning (see its
			// godoc); account its full-candidate scans explicitly.
			s.stats.SpreadFullScans++
		}
		spec := toSchedPod(p)
		nodeName, fail := c.cfg.PodPolicy.PlacePod(spec, s.state)
		if fail != nil {
			c.recordEvent(EventWarning, "FailedScheduling", KindPod, p.Name, p.Spec.Type,
				fmt.Sprintf("%s: %s", fail.Reason, fail.Message))
			continue
		}
		s.bind(p, nodeName)
	}
}

// scheduleGangs groups gang pods by JobID and binds complete gangs
// atomically; non-gang pods still bind one at a time.
func (s *schedCore) scheduleGangs(pending []*Pod) {
	c := s.c
	gangs := make(map[string][]*Pod)
	var loose []*Pod
	for _, p := range pending {
		if p.Spec.GangSize > 0 && p.Spec.JobID != "" {
			gangs[p.Spec.JobID] = append(gangs[p.Spec.JobID], p)
		} else {
			loose = append(loose, p)
		}
	}
	// Deterministic order: by job id. (FCFS arrival ordering is enforced
	// by the FfDL dispatcher above this layer; within one pass order
	// only affects which gang grabs contended space first.)
	jobIDs := make([]string, 0, len(gangs))
	for id := range gangs {
		jobIDs = append(jobIDs, id)
	}
	sort.Strings(jobIDs)
	for _, id := range jobIDs {
		members := gangs[id]
		gangSize := members[0].Spec.GangSize
		if len(members)+s.boundByGang[id] < gangSize {
			// Gang incomplete: pods still being instantiated; hold the
			// assignment (the paper's "reservation" corner case) by not
			// binding anyone yet.
			continue
		}
		g := &sched.Gang{JobID: id}
		for _, p := range members {
			g.Pods = append(g.Pods, *toSchedPod(p))
		}
		as, fail := c.cfg.GangPolicy.PlaceGang(g, s.state)
		if fail != nil {
			c.recordEvent(EventWarning, "FailedScheduling", KindPod, members[0].Name,
				members[0].Spec.Type, fmt.Sprintf("%s: %s", fail.Reason, fail.Message))
			continue
		}
		for i, a := range as {
			s.bind(members[i], a.Node)
		}
	}
	s.schedulePodAtATime(loose)
}

// bind commits one placement: store first (guarded by UID so a pod
// killed mid-pass is never charged), then the live view.
func (s *schedCore) bind(p *Pod, nodeName string) {
	if !s.c.bindPod(p.Name, p.UID, nodeName) {
		// Pod vanished or terminated mid-pass; the event stream (or
		// resync) reconciles whatever replaced it.
		delete(s.pending, p.Name)
		return
	}
	delete(s.pending, p.Name)
	s.charge(p, nodeName)
	s.stats.PodsBound++
	if s.c.cfg.Tracer != nil && p.Spec.JobID != "" {
		s.c.cfg.Tracer.Event(p.Spec.JobID, "sched.bind "+p.Name, s.c.cfg.Clock.Now())
	}
}

func toSchedPod(p *Pod) *sched.PodSpec {
	return &sched.PodSpec{
		Name:    p.Name,
		JobID:   p.Spec.JobID,
		Demand:  p.Spec.Demand,
		GPUType: p.Spec.GPUType,
	}
}
