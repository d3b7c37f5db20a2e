package kube

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// watching reports whether w is still registered with its store.
func watching(w *StoreWatch) bool {
	w.s.mu.RLock()
	defer w.s.mu.RUnlock()
	return slices.Contains(w.s.watchers, w.w)
}

// overflow makes one more mutation than a watch buffer holds, none of
// them consumed by w, and checks that the store closed w.
func overflow(t *testing.T, w *StoreWatch, mutate func()) {
	t.Helper()
	for i := 0; i <= watchBuffer; i++ {
		mutate()
	}
	if watching(w) {
		t.Fatal("an overflowing watch stayed open")
	}
}

// nodeChurn returns a mutation that rewrites one node unchanged, an
// event no consumer acts on.
func nodeChurn(s *Store, node string) func() {
	return func() { s.UpdateNode(node, func(*Node) {}) }
}

// TestStoreWatchClosesOnOverflow pins layer 2's gap signal: a watcher
// receives every event that fits its buffer, in order, then a close; a
// watcher that keeps up is untouched, and Cancel after the close does
// nothing.
func TestStoreWatchClosesOnOverflow(t *testing.T) {
	s := NewStore()
	slow := s.Watch(KindNode)
	fast := s.Watch("")
	defer fast.Cancel()
	name := func(i int) string { return fmt.Sprintf("n%03d", i) }
	put := func(i int) {
		s.PutNode(&Node{Name: name(i)})
		if ev := <-fast.Events(); ev.Name != name(i) {
			t.Fatalf("fast watcher got %q, want %q", ev.Name, name(i))
		}
	}
	for i := 0; i < watchBuffer; i++ {
		put(i)
	}
	if !watching(slow) {
		t.Fatal("a watch closed with its buffer only just full")
	}
	put(watchBuffer)
	if watching(slow) {
		t.Fatal("the first event that did not fit left the watch open")
	}
	for i := 0; i < watchBuffer; i++ {
		if ev, ok := <-slow.Events(); !ok || ev.Name != name(i) {
			t.Fatalf("event %d: got %q (open %v), want %q", i, ev.Name, ok, name(i))
		}
	}
	if ev, ok := <-slow.Events(); ok {
		t.Fatalf("event %q after the buffered ones, want a close", ev.Name)
	}
	slow.Cancel() // after the close: must neither panic nor touch fast
	if !watching(fast) {
		t.Fatal("cancelling a closed watch removed another watcher")
	}
	s.PutPod(&Pod{Name: "x"})
	if ev := <-fast.Events(); ev.Name != "x" {
		t.Fatalf("fast watcher got %q after the overflow, want x", ev.Name)
	}
}

// gatedPolicy is Spread, except that placing the pod named "blocker"
// parks the scheduler goroutine until release is closed.
type gatedPolicy struct {
	sched.Spread
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedPolicy) PlacePod(p *sched.PodSpec, cs *sched.ClusterState) (string, *sched.Failure) {
	if p.Name == "blocker" {
		g.once.Do(func() { close(g.entered); <-g.release })
	}
	return g.Spread.PlacePod(p, cs)
}

// TestSchedulerRelistsOnWatchClose: no-op node updates overflow the
// scheduler's watch while it is parked mid-pass. The close makes it re-watch and
// rebuild once, and a pod created afterwards binds with no tick.
func TestSchedulerRelistsOnWatchClose(t *testing.T) {
	g := &gatedPolicy{entered: make(chan struct{}), release: make(chan struct{})}
	c := dirtySetCluster(t, Config{PodPolicy: g})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(4))
	c.Store().PutPod(&Pod{Name: "blocker", Spec: PodSpec{Demand: gpuRes(1), Runtime: "block"}})
	select {
	case <-g.entered:
	case <-time.After(3 * time.Second):
		t.Fatal("scheduler never placed the blocker")
	}
	churn := nodeChurn(c.Store(), "node0")
	for i := 0; i <= watchBuffer; i++ {
		churn()
	}
	close(g.release)
	waitFor(t, "rebuild after the close", 3*time.Second, func() bool {
		return c.SchedStats().FullScans == 2
	})
	c.Store().PutPod(&Pod{Name: "after", Spec: PodSpec{Demand: gpuRes(1), Runtime: "block"}})
	waitFor(t, "pod created after the close bound", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("after")
		return ok && p.Status.Node == "node0"
	})
	if st := c.SchedStats(); st.FullScans != 2 || st.PodsBound != 2 {
		t.Fatalf("FullScans = %d, PodsBound = %d; want 2 (boot + one close) and 2", st.FullScans, st.PodsBound)
	}
}

// TestControllersRelistOnWatchClose: the StatefulSet's add event is lost
// to an overflow, so only the reconcileAll the close triggers can
// create its pod.
func TestControllersRelistOnWatchClose(t *testing.T) {
	c := newCluster(Config{})
	t.Cleanup(c.Stop)
	w := c.store.Watch("")
	c.store.PutNode(&Node{Name: "churn"})
	overflow(t, w, nodeChurn(c.store, "churn"))
	c.store.Put(KindStatefulSet, "set", &StatefulSet{Name: "set", Replicas: 1, Template: PodSpec{Type: "learner"}})
	c.loopWG.Add(1)
	go func() { defer c.loopWG.Done(); c.controllerLoop(w) }()
	waitFor(t, "pod of a set whose event the overflow lost", 3*time.Second, func() bool {
		_, ok := c.store.GetPod("set-0")
		return ok
	})
}

// TestKubeletStartLoopRelistsOnWatchClose: the bind event of a pod and
// the delete event behind a start record are lost to an overflow; the
// relist on close starts the pod and prunes the record.
func TestKubeletStartLoopRelistsOnWatchClose(t *testing.T) {
	c := newCluster(Config{})
	t.Cleanup(c.Stop)
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(4))
	w := c.store.Watch(KindPod)
	c.store.PutPod(&Pod{Name: "churn"})
	overflow(t, w, func() { c.store.UpdatePod("churn", func(p *Pod) { p.Labels = nil }) })
	c.started["gone"] = 99
	c.store.PutPod(&Pod{Name: "p", Spec: PodSpec{Runtime: "block"}, Status: PodStatus{Node: "node0"}})
	c.loopWG.Add(1)
	go func() { defer c.loopWG.Done(); c.kubeletStartLoop(w) }()
	waitFor(t, "pod whose bind event the overflow lost running", 3*time.Second, func() bool {
		p, ok := c.store.GetPod("p")
		return ok && p.Status.Phase == PodRunning
	})
	c.Stop() // the start loop has exited: its map is safe to read
	if _, ok := c.started["gone"]; ok {
		t.Fatal("the relist kept a start record with no pod")
	}
}

// TestPodBoundToCrashedNodeStartsOnRestore: a pod bound while its
// kubelet is down has no later event to start it; restoring the node
// makes the start loop relist, as a real kubelet syncs its pods on
// restart.
func TestPodBoundToCrashedNodeStartsOnRestore(t *testing.T) {
	c := testCluster(t, Config{NodeGracePeriod: time.Hour})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(4))
	c.CrashNode("node0")
	c.Store().PutPod(&Pod{Name: "p", Spec: PodSpec{Demand: gpuRes(1), Runtime: "block"}})
	waitFor(t, "pod bound to the crashed node", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("p")
		return ok && p.Status.Node == "node0"
	})
	time.Sleep(20 * time.Millisecond)
	if p, _ := c.Store().GetPod("p"); p.Status.Phase != PodPending {
		t.Fatalf("crashed kubelet moved the pod to %s", p.Status.Phase)
	}
	c.RestoreNode("node0")
	waitFor(t, "pod started after restore", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("p")
		return ok && p.Status.Phase == PodRunning
	})
}

// TestClusterTimersAreHeartbeatsAndNodeController pins the cluster's
// clock waiters by count: the one lease-renewal loop and the node
// controller, at 8 nodes as at 64. The scheduler, the controllers and
// the kubelet start loop wake on their watches alone.
func TestClusterTimersAreHeartbeatsAndNodeController(t *testing.T) {
	for _, nodes := range []int{8, 64} {
		fc := sim.NewFakeClock(time.Unix(0, 0))
		c := NewCluster(Config{Clock: fc})
		t.Cleanup(c.Stop)
		for i := 0; i < nodes; i++ {
			c.AddNode(fmt.Sprintf("node%d", i), "K80", gpuRes(4))
		}
		const want = 2
		waitFor(t, "timers registered", 3*time.Second, func() bool { return fc.WaiterCount() >= want })
		time.Sleep(20 * time.Millisecond) // room for any further loop to register one
		if n := fc.WaiterCount(); n != want {
			t.Fatalf("%d nodes: %d clock waiters, want %d (the lease renewal loop + the node controller)", nodes, n, want)
		}
	}
}
