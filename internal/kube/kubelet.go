package kube

import (
	"sync"
	"sync/atomic"
)

// kubelet runs the pods bound to one node: it transitions them
// Pending→Running after the container start delay and executes their
// Runtime, while the cluster's renewal loop renews the node's lease on
// its behalf. Crashing the kubelet models a worker failure: renewals
// stop and every process on the node dies.
type kubelet struct {
	cluster *Cluster
	node    string

	// lease is the Unix-nanosecond clock time of the last renewal, a
	// Kubernetes node lease (KEP-589): only the node controller reads
	// it, and it is not a store object, so renewing costs no event.
	lease atomic.Int64
	// ready is Node.Ready as last written; only the node controller uses it.
	ready bool

	mu      sync.Mutex
	crashed bool
	// running tracks stop channels for node-crash kill, keyed by pod
	// UID so overlapping incarnations of one pod name cannot shadow
	// each other.
	running map[uint64]*podStop

	wg sync.WaitGroup
}

func newKubelet(c *Cluster, node string) *kubelet {
	k := &kubelet{
		cluster: c,
		node:    node,
		ready:   true,
		running: make(map[uint64]*podStop),
	}
	k.renew()
	return k
}

// leaseRenewalLoop renews, every HeartbeatInterval, the lease of each
// kubelet that has not crashed: one ticker per cluster, however many
// nodes it has.
func (c *Cluster) leaseRenewalLoop() {
	ticker := c.cfg.Clock.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			for _, kl := range c.kubeletList() {
				if !kl.isCrashed() {
					kl.renew()
				}
			}
		}
	}
}

// renew sets the lease to the clock's time.
func (k *kubelet) renew() { k.lease.Store(k.cluster.cfg.Clock.Now().UnixNano()) }

// crash kills everything on the node and silences its lease.
func (k *kubelet) crash() {
	k.mu.Lock()
	k.crashed = true
	stops := make([]*podStop, 0, len(k.running))
	for uid, stop := range k.running {
		stops = append(stops, stop)
		delete(k.running, uid)
		k.cluster.unregisterPodStop(uid)
	}
	k.mu.Unlock()
	for _, stop := range stops {
		stop.close()
	}
}

// restore revives the kubelet, which renews its lease at once, as a
// restarted kubelet does.
func (k *kubelet) restore() {
	k.mu.Lock()
	k.crashed = false
	k.mu.Unlock()
	k.renew()
}

func (k *kubelet) isCrashed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.crashed
}

func (k *kubelet) stop() {
	k.crash()
	k.wg.Wait()
}

// kubeletStartLoop (on the cluster) watches for pods that are bound but
// not yet started and hands them to their node's kubelet. A single loop
// keeps goroutine count low at cluster sizes of hundreds of nodes.
//
// c.started remembers the UID of the incarnation handed to a kubelet,
// so a recreated pod (same name, fresh UID) starts again while
// duplicate watch events for one incarnation are ignored. A pod's
// WatchDeleted drops its entry only when the stored UID is the deleted
// pod's: a queued delete of a previous incarnation that arrives after
// its replacement started leaves the replacement's entry alone, so it
// cannot re-arm the name and double-start the replacement.
//
// The loop relists — starts every bound, unstarted pod and prunes
// entries with no pod — when its watch closes on overflow (after
// re-watching) and when RestoreNode brings a kubelet back, as a real
// kubelet syncs its pods on restart: a pod bound while its kubelet was
// crashed has no later event to start it.
func (c *Cluster) kubeletStartLoop(watch *StoreWatch) {
	defer func() { watch.Cancel() }()
	for {
		select {
		case <-c.stopCh:
			return
		case ev, ok := <-watch.Events():
			if !ok {
				watch = c.store.Watch(KindPod)
				c.relistPods()
			} else if ev.Type == WatchDeleted {
				if p, ok := ev.Prev.(*Pod); ok && c.started[p.Name] == p.UID {
					delete(c.started, p.Name)
				}
			} else if p, ok := ev.Object.(*Pod); ok {
				c.maybeStartPod(p)
			}
		case <-c.relist:
			c.relistPods()
		}
	}
}

// relistPods starts every bound, unstarted pod and prunes started
// entries whose pod is gone.
func (c *Cluster) relistPods() {
	pods := c.store.ListPods("")
	live := make(map[string]bool, len(pods))
	for _, p := range pods {
		live[p.Name] = true
		c.maybeStartPod(p)
	}
	// Prune names with no pod object. Safe against recreation races
	// because the start loop is the only writer of started: any entry
	// present here was recorded before the List above, so its pod (if
	// still wanted) is in the snapshot.
	for name := range c.started {
		if !live[name] {
			delete(c.started, name)
		}
	}
}

func (c *Cluster) maybeStartPod(p *Pod) {
	if p.Status.Node == "" || p.Status.Phase != PodPending || c.started[p.Name] == p.UID {
		return
	}
	c.mu.Lock()
	kl := c.kubelets[p.Status.Node]
	c.mu.Unlock()
	if kl == nil || kl.isCrashed() {
		return
	}
	c.started[p.Name] = p.UID
	kl.wg.Add(1)
	go func(p *Pod) {
		defer kl.wg.Done()
		kl.runPod(p)
	}(p)
}

// runPod executes one pod's lifecycle on the node.
func (k *kubelet) runPod(p *Pod) {
	c := k.cluster
	// Container start: image pull, volume binds, container create. This
	// is the component Table 3 measures (learners take 10-20s because
	// "binding to the Object Storage Service and persistent NFS volumes
	// takes longer").
	c.cfg.Clock.Sleep(c.cfg.StartDelay(p.Spec.Type))

	stop := newPodStop()
	k.mu.Lock()
	if k.crashed {
		k.mu.Unlock()
		return
	}
	if _, dup := k.running[p.UID]; dup {
		// Another goroutine already runs this incarnation (defense in
		// depth against double dispatch); a second registration would
		// shadow its stop channel and make it unkillable.
		k.mu.Unlock()
		return
	}
	k.running[p.UID] = stop
	k.mu.Unlock()
	if !c.registerPodStop(p.UID, stop) {
		return
	}

	now := c.cfg.Clock.Now()
	updated := false
	alive := c.store.UpdatePod(p.Name, func(sp *Pod) {
		if sp.UID != p.UID || sp.Terminated() {
			return // replaced by a newer incarnation, or killed mid-start
		}
		updated = true
		sp.Status.Phase = PodRunning
		sp.Status.StartedAt = now
	})
	if !alive || !updated {
		// Pod deleted, replaced or killed while starting.
		k.forget(p.UID, stop)
		c.unregisterPodStop(p.UID)
		return
	}
	c.recordEvent(EventNormal, "Started", KindPod, p.Name, p.Spec.Type, "container started on "+k.node)

	exit := 0
	rt := c.runtime(p.Spec.Runtime)
	if rt != nil {
		exit = rt(&PodContext{Pod: p, Node: k.node, Stop: stop.ch, Cluster: c, Clock: c.cfg.Clock})
	} else {
		// Default process: block until killed.
		<-stop.ch
		exit = 137
	}
	k.forget(p.UID, stop)

	select {
	case <-stop.ch:
		// Killed (node crash, eviction, or KillPod): pod is Failed
		// unless it already finished. Guarded by UID so a dying
		// incarnation never clobbers its same-named replacement.
		finished := c.cfg.Clock.Now()
		c.store.UpdatePod(p.Name, func(sp *Pod) {
			if sp.UID != p.UID || sp.Terminated() {
				return
			}
			sp.Status.Phase = PodFailed
			sp.Status.ExitCode = 137
			sp.Status.Reason = "Killed"
			sp.Status.FinishedAt = finished
		})
		return
	default:
	}
	phase := PodSucceeded
	if exit != 0 {
		phase = PodFailed
	}
	finished := c.cfg.Clock.Now()
	c.store.UpdatePod(p.Name, func(sp *Pod) {
		if sp.UID != p.UID {
			return
		}
		sp.Status.Phase = phase
		sp.Status.ExitCode = exit
		sp.Status.FinishedAt = finished
	})
	c.unregisterPodStop(p.UID)
}

// forget removes this incarnation's stop entry.
func (k *kubelet) forget(uid uint64, stop *podStop) {
	k.mu.Lock()
	if k.running[uid] == stop {
		delete(k.running, uid)
	}
	k.mu.Unlock()
}
