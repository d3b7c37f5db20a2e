package kube

import (
	"fmt"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// dirtySetCluster builds a cluster whose node controller never evicts,
// so any scheduler work observed is driven purely by the dirty-set
// event path.
func dirtySetCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.NodeGracePeriod = time.Hour
	c := NewCluster(cfg)
	t.Cleanup(c.Stop)
	return c
}

// noOpNodeUpdates rewrites node0 unchanged n times and waits until the
// scheduler has filtered all n events.
func noOpNodeUpdates(t *testing.T, c *Cluster, n uint64) {
	t.Helper()
	base := c.SchedStats().EventsIgnored
	for i := uint64(0); i < n; i++ {
		c.Store().UpdateNode("node0", func(*Node) {})
	}
	waitFor(t, fmt.Sprintf("%d filtered node updates", n), 5*time.Second, func() bool {
		return c.SchedStats().EventsIgnored >= base+n
	})
}

// TestNoOpNodeUpdatesCauseNoSchedulerWork pins the dirty-set contract:
// a node update that changes neither schedulability nor capacity is
// placement-irrelevant, so with no pending pods — and with pending pods
// that cannot fit — any number of them must trigger zero scheduling
// passes and zero full-cluster scans.
func TestNoOpNodeUpdatesCauseNoSchedulerWork(t *testing.T) {
	c := dirtySetCluster(t, Config{})
	for i := 0; i < 4; i++ {
		c.AddNode(fmt.Sprintf("node%d", i), "K80", gpuRes(4))
	}
	waitFor(t, "boot events drained", 3*time.Second, func() bool {
		return c.SchedStats().EventsSeen >= 4
	})

	// Phase 1: no pending pods.
	base := c.SchedStats()
	noOpNodeUpdates(t, c, 50)
	got := c.SchedStats()
	if got.Passes != base.Passes {
		t.Fatalf("node updates with no pending pods triggered %d passes", got.Passes-base.Passes)
	}
	if got.FullScans != base.FullScans {
		t.Fatalf("node updates triggered %d full-cluster scans", got.FullScans-base.FullScans)
	}
	if got.NodesExamined != base.NodesExamined {
		t.Fatalf("node updates examined %d nodes", got.NodesExamined-base.NodesExamined)
	}

	// Phase 2: a pending pod that cannot fit anywhere (demands more
	// GPUs than any machine has). Its arrival costs exactly one pass;
	// node updates after that must not retrigger it.
	c.Store().PutPod(&Pod{
		Name: "hungry",
		Spec: PodSpec{Demand: sched.Resources{GPUs: 64}, Type: "learner"},
	})
	waitFor(t, "FailedScheduling for hungry", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("FailedScheduling")) > 0
	})
	base = c.SchedStats()
	noOpNodeUpdates(t, c, 50)
	got = c.SchedStats()
	if got.Passes != base.Passes {
		t.Fatalf("node updates retried an unfittable pod %d times", got.Passes-base.Passes)
	}
	if got.FullScans != base.FullScans {
		t.Fatalf("node updates triggered %d full scans while a pod waited", got.FullScans-base.FullScans)
	}
	if got.NodesExamined != base.NodesExamined {
		t.Fatalf("node updates examined %d nodes while a pod waited", got.NodesExamined-base.NodesExamined)
	}
}

// TestFreedWrongGPUTypeDoesNotWake: capacity freed on a GPU type no
// waiting pod can use must not trigger a pass.
func TestFreedWrongGPUTypeDoesNotWake(t *testing.T) {
	c := dirtySetCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("k80-node", "K80", gpuRes(2))
	c.Store().PutPod(&Pod{Name: "hog", Spec: PodSpec{Demand: gpuRes(2), Runtime: "block"}})
	waitFor(t, "hog running", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("hog")
		return ok && p.Status.Phase == PodRunning
	})
	// A V100 pod can never land on this cluster; it waits typed.
	c.Store().PutPod(&Pod{
		Name: "v100-pod",
		Spec: PodSpec{Demand: gpuRes(1), GPUType: "V100", Type: "learner"},
	})
	waitFor(t, "FailedScheduling for v100-pod", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("FailedScheduling")) > 0
	})
	base := c.SchedStats()
	// Free K80 capacity: irrelevant to the V100 waiter.
	c.KillPod("hog", "test")
	waitFor(t, "hog terminated", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("hog")
		return ok && p.Terminated()
	})
	time.Sleep(20 * time.Millisecond) // allow any (wrong) pass to run
	got := c.SchedStats()
	if got.Passes != base.Passes {
		t.Fatalf("freed K80 capacity woke a V100-only waiter (%d extra passes)", got.Passes-base.Passes)
	}
	if p, _ := c.Store().GetPod("v100-pod"); p.Status.Node != "" {
		t.Fatal("v100 pod bound to a K80 node")
	}
}

// TestFreedCapacityWakesAndPlacesWaitingGang is the regression guard
// for the dirty-set: a whole gang waiting for space must still be woken
// and placed the moment matching capacity frees.
func TestFreedCapacityWakesAndPlacesWaitingGang(t *testing.T) {
	c := dirtySetCluster(t, Config{GangPolicy: sched.NewBSA(sim.NewRNG(5))})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(2))
	c.Store().PutPod(&Pod{Name: "hog", Spec: PodSpec{Demand: gpuRes(2), Runtime: "block"}})
	waitFor(t, "hog running", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("hog")
		return ok && p.Status.Phase == PodRunning
	})
	for l := 0; l < 2; l++ {
		c.Store().PutPod(&Pod{
			Name: fmt.Sprintf("gang-l%d", l),
			Spec: PodSpec{Demand: gpuRes(1), GPUType: "K80", JobID: "gang",
				GangSize: 2, Runtime: "block", Type: "learner"},
		})
	}
	waitFor(t, "gang FailedScheduling", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("FailedScheduling")) > 0
	})
	c.KillPod("hog", "test")
	waitFor(t, "gang placed after capacity freed", 3*time.Second, func() bool {
		a, _ := c.Store().GetPod("gang-l0")
		b, _ := c.Store().GetPod("gang-l1")
		return a != nil && b != nil && a.Status.Node != "" && b.Status.Node != ""
	})
}

// TestSchedStatsCountBindings sanity-checks the published counters.
func TestSchedStatsCountBindings(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("quick", completeAfter(time.Millisecond))
	c.AddNode("node0", "K80", gpuRes(4))
	for i := 0; i < 3; i++ {
		c.Store().PutPod(&Pod{Name: fmt.Sprintf("p%d", i), Spec: PodSpec{Demand: gpuRes(1), Runtime: "quick"}})
	}
	waitFor(t, "all pods bound", 3*time.Second, func() bool {
		return c.SchedStats().PodsBound >= 3
	})
	st := c.SchedStats()
	if st.Passes == 0 || st.NodesExamined == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}
