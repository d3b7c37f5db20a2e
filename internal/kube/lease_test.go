package kube

import (
	"fmt"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// leaseCluster boots a FakeClock cluster with the default lease timing
// and waits until the lease renewal loop and the node controller hold
// their tickers, so virtual time starts with both in phase.
func leaseCluster(t *testing.T, nodes int) (*Cluster, *sim.FakeClock) {
	t.Helper()
	fc := sim.NewFakeClock(time.Unix(0, 0))
	c := NewCluster(Config{Clock: fc})
	t.Cleanup(c.Stop)
	for i := 0; i < nodes; i++ {
		c.AddNode(fmt.Sprintf("node%d", i), "K80", gpuRes(4))
	}
	waitFor(t, "timers registered", 3*time.Second, func() bool { return fc.WaiterCount() == 2 })
	return c, fc
}

// step advances the clock by d and waits until every live kubelet has
// renewed its lease within the last renewal period.
func step(t *testing.T, c *Cluster, fc *sim.FakeClock, d time.Duration) time.Time {
	t.Helper()
	fc.Advance(d)
	now := fc.Now()
	for _, kl := range c.kubeletList() {
		if kl.isCrashed() {
			continue
		}
		waitFor(t, "lease renewal on "+kl.node, 3*time.Second, func() bool {
			return now.Sub(time.Unix(0, kl.lease.Load())) < c.cfg.HeartbeatInterval
		})
	}
	return now
}

// TestIdleClusterEmitsNoWatchEvents: node health lives in leases, so an
// idle 64-node cluster sends a kube watcher nothing over a virtual
// second of renewals and node-controller checks.
func TestIdleClusterEmitsNoWatchEvents(t *testing.T) {
	const nodes = 64
	c, fc := leaseCluster(t, nodes)
	w := c.Store().Watch("")
	defer w.Cancel()
	hb := c.cfg.HeartbeatInterval
	for elapsed := time.Duration(0); elapsed < time.Second; elapsed += hb {
		step(t, c, fc, hb)
	}
	if !watching(w) {
		t.Fatal("the watch overflowed and closed")
	}
	if n := len(w.Events()); n != 0 {
		ev := <-w.Events()
		t.Fatalf("an idle cluster delivered %d watch events in a virtual second; first: %s %s", n, ev.Kind, ev.Name)
	}
}

// TestNodeLeaseExpiryAndRenewal: a crashed node goes NotReady, and its
// pod is evicted, at the first node-controller tick past the grace
// period after its last renewal — so after NodeGracePeriod and within
// 1.5× of it, the controller ticking every half grace. Once restored,
// its kubelet renews and the node is Ready again at the next tick.
func TestNodeLeaseExpiryAndRenewal(t *testing.T) {
	c, fc := leaseCluster(t, 2)
	origin := fc.Now()
	grace, tick := c.cfg.NodeGracePeriod, c.cfg.NodeGracePeriod/2
	const res = 10 * time.Millisecond // divides both the renewal and the tick period
	for i := 0; i < 3; i++ {
		step(t, c, fc, res)
	}
	c.mu.Lock()
	kl := c.kubelets["node1"]
	c.mu.Unlock()
	c.CrashNode("node1")
	last := time.Unix(0, kl.lease.Load())
	// Bound after the crash, the pod never starts, so it is still live
	// for the eviction to delete (the crash itself fails running pods).
	c.Store().PutPod(&Pod{Name: "victim", Spec: PodSpec{Demand: gpuRes(1)}, Status: PodStatus{Phase: PodPending, Node: "node1"}})

	var now time.Time
	for {
		now = step(t, c, fc, res)
		if now.Sub(origin)%tick == 0 && now.Sub(last) > grace {
			break // this node-controller tick sees the lease expired
		}
		if now.Sub(last) > 2*grace {
			t.Fatal("no node-controller tick past the grace period")
		}
	}
	waitFor(t, "NodeNotReady", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("NodeNotReady")) == 1
	})
	waitFor(t, "eviction", 3*time.Second, func() bool {
		_, ok := c.Store().GetPod("victim")
		return !ok
	})
	for _, reason := range []string{"NodeNotReady", "NodeControllerEviction"} {
		ev := c.Store().recordedEvents(reason)[0]
		if age := ev.Time.Sub(last); age <= grace || age > grace*3/2 {
			t.Fatalf("%s %v after the last renewal; want (%v, %v]", reason, age, grace, grace*3/2)
		}
	}
	if n, _ := c.Store().getNode("node1"); n.Ready {
		t.Fatal("the crashed node reads Ready")
	}
	if n, _ := c.Store().getNode("node0"); !n.Ready {
		t.Fatal("the healthy node went NotReady")
	}

	c.RestoreNode("node1")
	for {
		now = step(t, c, fc, res)
		if now.Sub(origin)%tick == 0 {
			break
		}
	}
	waitFor(t, "node1 Ready at the first tick after the restore", 3*time.Second, func() bool {
		n, _ := c.Store().getNode("node1")
		return n.Ready
	})
	if got := len(c.Store().recordedEvents("NodeNotReady")); got != 1 {
		t.Fatalf("%d NodeNotReady events, want 1", got)
	}
}
