package kube

import (
	"strconv"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// Runtime is a pod's containerized process: it runs until completion or
// until stop is closed (kill/eviction), returning an exit code.
// 0 means success; anything else marks the pod Failed.
type Runtime func(ctx *PodContext) int

// PodContext is handed to a pod's Runtime.
type PodContext struct {
	// Pod is the stored pod incarnation being started. It is shared
	// with the store and read-only.
	Pod *Pod
	// Node is the machine the pod runs on.
	Node string
	// Stop is closed when the pod is killed or its node dies.
	Stop <-chan struct{}
	// Cluster allows the process to observe cluster state (used by
	// learner processes to wait for their peers, mirroring distributed
	// frameworks blocking on worker rendezvous).
	Cluster *Cluster
	// Clock is the cluster clock.
	Clock sim.Clock
}

// Config parameterizes a Cluster.
type Config struct {
	// Clock drives all timing; defaults to the wall clock.
	Clock sim.Clock
	// RNG seeds scheduling randomness (BSA); defaults to seed 1.
	RNG *sim.RNG
	// PodPolicy places pods one at a time when gang scheduling is off or
	// for non-gang pods. Defaults to Spread (the Kubernetes default the
	// paper started from).
	PodPolicy sched.PodPolicy
	// GangPolicy, when non-nil, places gang pods atomically.
	GangPolicy sched.GangPolicy
	// SchedulerInterval is ignored; ROADMAP 1a deletes it.
	SchedulerInterval time.Duration
	// ResyncInterval is ignored; ROADMAP 1a deletes it.
	ResyncInterval time.Duration
	// HeartbeatInterval is the period at which the cluster renews the
	// lease of every kubelet that has not crashed. Default 20ms.
	HeartbeatInterval time.Duration
	// NodeGracePeriod is how stale a node's lease may be before the node
	// is marked NotReady and its pods evicted. Default 100ms.
	NodeGracePeriod time.Duration
	// StartDelay returns the container start latency for a pod type
	// (image pull + volume bind + container create). The Table 3
	// experiment configures the paper's observed values. Default: 1ms.
	StartDelay func(podType string) time.Duration
	// Obs, when non-nil, wires the control loops into the platform's
	// metrics registry: scheduling pass duration ("sched.pass"), nodes
	// examined per pass ("sched.pass_nodes") and controller reconcile
	// latency ("kube.reconcile"). Nil leaves the loops uninstrumented
	// at zero cost.
	Obs *obs.Registry
	// Tracer, when non-nil, records a "sched.bind" event on the owning
	// job's trace as each pod binds.
	Tracer *obs.Tracer
}

func (c *Config) defaults() {
	if c.Clock == nil {
		c.Clock = sim.NewRealClock()
	}
	if c.RNG == nil {
		c.RNG = sim.NewRNG(1)
	}
	if c.PodPolicy == nil {
		c.PodPolicy = sched.Spread{}
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.NodeGracePeriod <= 0 {
		c.NodeGracePeriod = 100 * time.Millisecond
	}
	if c.StartDelay == nil {
		c.StartDelay = func(string) time.Duration { return time.Millisecond }
	}
}

// Cluster is a running orchestrator instance.
type Cluster struct {
	cfg   Config
	store *Store

	mu       sync.Mutex
	runtimes map[string]Runtime
	kubelets map[string]*kubelet
	// podStops is keyed by pod UID, not name: a recreated pod (same
	// name, fresh UID) must never be able to overwrite — or be killed
	// through — a dying predecessor's stop channel.
	podStops map[uint64]*podStop
	// started maps pod name -> UID of the incarnation kubeletStartLoop
	// handed to a kubelet. Only that loop touches it while it runs.
	started map[string]uint64
	// relist asks kubeletStartLoop to relist pods (RestoreNode).
	relist chan struct{}

	stopCh chan struct{}
	// loopWG tracks the control loops (scheduler, controllers, node
	// controller, lease renewal, kubelet host). Stop waits for them
	// before stopping kubelets: only the kubelet host loop dispatches
	// pod processes, so after it exits no kubelet WaitGroup can grow and
	// the Add-after-Wait hazard is structurally impossible.
	loopWG sync.WaitGroup

	// deletionsByNodeFailure counts pods deleted by eviction, for the
	// Fig. 7/8 analytics.
	deletionsByNodeFailure int64
	totalDeletions         int64

	// schedStats is the scheduler loop's published work counters.
	schedMu    sync.Mutex
	schedStats SchedStats

	// Registry instrument handles, derived once at NewCluster; all nil
	// when Config.Obs is nil (nil instruments no-op for free).
	obsPass      *obs.Histogram // scheduling pass duration
	obsPassNodes *obs.Histogram // nodes examined per pass
	obsReconcile *obs.Histogram // controller reconcile latency
}

// NewCluster boots an orchestrator with no nodes.
func NewCluster(cfg Config) *Cluster {
	c := newCluster(cfg)
	// Subscribe every control loop's watch before any loop goroutine
	// starts: a store write made right after NewCluster returns is then
	// guaranteed to reach all loops. (Without this, the scheduler's
	// initial resync could bind a pod before the kubelet host loop had
	// subscribed, and nothing would ever deliver the bind event.) Each
	// loop owns its watch from here: it re-watches on a close and
	// cancels the current one on exit.
	schedWatch := c.store.Watch("")
	ctrlWatch := c.store.Watch("")
	kubeletWatch := c.store.Watch(KindPod)
	c.loopWG.Add(5)
	go func() { defer c.loopWG.Done(); c.schedulerLoop(schedWatch) }()
	go func() { defer c.loopWG.Done(); c.controllerLoop(ctrlWatch) }()
	go func() { defer c.loopWG.Done(); c.nodeControllerLoop() }()
	go func() { defer c.loopWG.Done(); c.leaseRenewalLoop() }()
	go func() { defer c.loopWG.Done(); c.kubeletStartLoop(kubeletWatch) }()
	return c
}

// newCluster builds a cluster whose control loops are not running.
func newCluster(cfg Config) *Cluster {
	cfg.defaults()
	c := &Cluster{
		cfg:      cfg,
		store:    NewStore(),
		runtimes: make(map[string]Runtime),
		kubelets: make(map[string]*kubelet),
		podStops: make(map[uint64]*podStop),
		started:  make(map[string]uint64),
		relist:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	if cfg.Obs != nil {
		c.obsPass = cfg.Obs.Histogram("sched.pass")
		c.obsPassNodes = cfg.Obs.HistogramWith("sched.pass_nodes", obs.CountBuckets)
		c.obsReconcile = cfg.Obs.Histogram("kube.reconcile")
	}
	return c
}

// Store exposes the API-server state.
func (c *Cluster) Store() *Store { return c.store }

// Clock returns the cluster clock.
func (c *Cluster) Clock() sim.Clock { return c.cfg.Clock }

// RegisterRuntime installs a named pod process.
func (c *Cluster) RegisterRuntime(name string, r Runtime) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runtimes[name] = r
}

func (c *Cluster) runtime(name string) Runtime {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runtimes[name]
}

// AddNode registers a machine and its kubelet. The kubelet is
// registered before the node is published, so a pod bound to the node
// finds it when its bind event reaches the start loop.
func (c *Cluster) AddNode(name, gpuType string, capacity sched.Resources) {
	kl := newKubelet(c, name)
	c.mu.Lock()
	c.kubelets[name] = kl
	c.mu.Unlock()
	c.store.PutNode(&Node{Name: name, GPUType: gpuType, Capacity: capacity, Ready: true})
}

// CrashNode simulates a machine failure: the kubelet halts (renewals
// stop, processes die). The node controller will notice and evict.
func (c *Cluster) CrashNode(name string) {
	c.mu.Lock()
	kl := c.kubelets[name]
	c.mu.Unlock()
	if kl != nil {
		kl.crash()
	}
}

// RestoreNode brings a crashed machine back: its kubelet renews the
// lease, so the node controller's next tick makes it Ready, and the
// start loop relists, so pods bound to it while it was down start.
func (c *Cluster) RestoreNode(name string) {
	c.mu.Lock()
	kl := c.kubelets[name]
	c.mu.Unlock()
	if kl != nil {
		kl.restore()
		select {
		case c.relist <- struct{}{}:
		default: // a relist is already pending
		}
	}
}

// kubeletList returns the kubelets, read under the cluster lock.
func (c *Cluster) kubeletList() []*kubelet {
	c.mu.Lock()
	defer c.mu.Unlock()
	kls := make([]*kubelet, 0, len(c.kubelets))
	for _, kl := range c.kubelets {
		kls = append(kls, kl)
	}
	return kls
}

// cordonNode marks a node unschedulable (§5.5).
func (c *Cluster) cordonNode(name string) {
	c.store.UpdateNode(name, func(n *Node) { n.Cordoned = true })
}

// KillPod terminates a pod's process (kubectl delete-pod semantics); the
// owning controller will recreate it. It reports whether the pod existed.
func (c *Cluster) KillPod(name, reason string) bool {
	pod, exists := c.store.GetPod(name)
	if !exists {
		return false
	}
	c.mu.Lock()
	stop, ok := c.podStops[pod.UID]
	if ok {
		delete(c.podStops, pod.UID)
	}
	c.mu.Unlock()
	if ok {
		stop.close()
	}
	// Pods not yet running are failed directly (guarded by UID so the
	// kill can never land on a later incarnation of the name).
	c.store.UpdatePod(name, func(p *Pod) {
		if p.UID == pod.UID && !p.Terminated() && !ok {
			p.Status.Phase = PodFailed
			p.Status.Reason = reason
			p.Status.FinishedAt = c.cfg.Clock.Now()
		}
	})
	return true
}

// bindPod commits a scheduling decision to the store. The UID guard
// ensures the binding lands only on the intended incarnation and never
// on a pod that terminated (or was replaced) while the pass ran; it
// reports whether the pod was actually bound.
func (c *Cluster) bindPod(name string, uid uint64, nodeName string) bool {
	now := c.cfg.Clock.Now()
	bound := false
	c.store.UpdatePod(name, func(p *Pod) {
		if p.UID != uid || p.Terminated() || p.Status.Node != "" {
			return
		}
		p.Status.Node = nodeName
		p.Status.ScheduledAt = now
		bound = true
	})
	if bound {
		c.recordEvent(EventNormal, "Scheduled", KindPod, name, "", "bound to "+nodeName)
	}
	return bound
}

// DeletePod removes a pod object entirely, stopping its process first.
func (c *Cluster) DeletePod(name, reason string) {
	pod, exists := c.store.GetPod(name)
	c.mu.Lock()
	var stop *podStop
	var ok bool
	if exists {
		stop, ok = c.podStops[pod.UID]
		if ok {
			delete(c.podStops, pod.UID)
		}
	}
	c.totalDeletions++
	if reason == "NodeFailure" {
		c.deletionsByNodeFailure++
	}
	c.mu.Unlock()
	if ok {
		stop.close()
	}
	c.store.Delete(KindPod, name)
}

// DeletionStats reports (deletions due to node failure, total deletions).
func (c *Cluster) DeletionStats() (nodeFailure, total int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deletionsByNodeFailure, c.totalDeletions
}

// Snapshot builds the scheduler's cluster state: node free = capacity
// minus demands of bound, non-terminated pods.
func (c *Cluster) Snapshot() *sched.ClusterState {
	nodes := c.store.ListNodes()
	pods := c.store.ListPods("")
	used := make(map[string]sched.Resources, len(nodes))
	podCount := make(map[string]int, len(nodes))
	for _, p := range pods {
		if p.Status.Node == "" || p.Terminated() {
			continue
		}
		used[p.Status.Node] = used[p.Status.Node].Add(p.Spec.Demand)
		podCount[p.Status.Node]++
	}
	out := make([]*sched.Node, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, &sched.Node{
			Name:          n.Name,
			GPUType:       n.GPUType,
			Capacity:      n.Capacity,
			Free:          n.Capacity.Sub(used[n.Name]),
			Unschedulable: !n.Schedulable(),
			Pods:          podCount[n.Name],
		})
	}
	return sched.NewClusterState(out)
}

// SchedStats returns a snapshot of the scheduler's work counters —
// passes, full-cluster scans, nodes examined, events filtered. The
// scale experiments read it to verify that scheduling cost tracks what
// changed rather than cluster size.
func (c *Cluster) SchedStats() SchedStats {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	return c.schedStats
}

func (c *Cluster) publishSchedStats(s *SchedStats) {
	c.schedMu.Lock()
	c.schedStats = *s
	c.schedMu.Unlock()
}

// GPUUtilization returns (allocated, capacity) GPUs — the metric FfDL
// monitors for cluster sizing (§3.7).
func (c *Cluster) GPUUtilization() (allocated, capacity int) {
	cs := c.Snapshot()
	free, cap_ := cs.TotalGPUs()
	return cap_ - free, cap_
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	select {
	case <-c.stopCh:
		return
	default:
	}
	close(c.stopCh)
	// Control loops first: after they exit, no new pod process can be
	// dispatched onto a kubelet, so the kubelet WaitGroups below are
	// final.
	c.loopWG.Wait()
	// Kubelets own their pods' stop channels: stopping them closes every
	// running pod's channel exactly once and unregisters it.
	for _, kl := range c.kubeletList() {
		kl.stop()
	}
	// Anything left was registered but never picked up by a kubelet.
	c.mu.Lock()
	stops := make([]*podStop, 0, len(c.podStops))
	for uid, stop := range c.podStops {
		stops = append(stops, stop)
		delete(c.podStops, uid)
	}
	c.mu.Unlock()
	for _, stop := range stops {
		stop.close()
	}
	c.store.checkMutations()
}

// podStop is an idempotently-closable kill signal for one pod process.
type podStop struct {
	ch   chan struct{}
	once sync.Once
}

func newPodStop() *podStop { return &podStop{ch: make(chan struct{})} }

func (p *podStop) close() { p.once.Do(func() { close(p.ch) }) }

// registerPodStop installs the kill channel for a starting pod
// incarnation; it returns false if the cluster is stopping. UIDs are
// unique, so registration can never clobber another incarnation.
func (c *Cluster) registerPodStop(uid uint64, stop *podStop) bool {
	select {
	case <-c.stopCh:
		return false
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.podStops[uid] = stop
	return true
}

func (c *Cluster) unregisterPodStop(uid uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.podStops, uid)
}

func (c *Cluster) recordEvent(evType EventType, reason, kind, object, podType, msg string) {
	c.store.RecordEvent(Event{
		Time: c.cfg.Clock.Now(), Type: evType, Reason: reason,
		Kind: kind, Object: object, PodType: podType, Message: msg,
	})
}

// fmtPodName builds controller-owned pod names. It concatenates rather
// than calling fmt.Sprintf, whose pooled printer allocates on a pool
// miss, so a reconcile allocates the same on every run.
func fmtPodName(owner string, ordinal int) string {
	return owner + "-" + strconv.Itoa(ordinal)
}
