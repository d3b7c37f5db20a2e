package kube

import (
	"fmt"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// dirtySetCluster builds a cluster whose resync safety nets are
// effectively disabled, so any scheduler work observed is driven purely
// by the dirty-set event path.
func dirtySetCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.SchedulerInterval = time.Hour
	cfg.ResyncInterval = time.Hour
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Millisecond
	}
	cfg.NodeGracePeriod = time.Hour
	c := NewCluster(cfg)
	t.Cleanup(c.Stop)
	return c
}

// waitHeartbeats blocks until the scheduler has observed (and filtered)
// at least n more heartbeat events than at the baseline.
func waitHeartbeats(t *testing.T, c *Cluster, base SchedStats, n uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d filtered heartbeats", n), 5*time.Second, func() bool {
		return c.SchedStats().EventsIgnored >= base.EventsIgnored+n
	})
}

// TestHeartbeatsCauseNoSchedulerWork pins the dirty-set contract: node
// heartbeats are placement-irrelevant, so with no pending pods — and
// with pending pods that cannot fit — an arbitrary number of them must
// trigger zero scheduling passes and zero full-cluster scans.
func TestHeartbeatsCauseNoSchedulerWork(t *testing.T) {
	c := dirtySetCluster(t, Config{})
	for i := 0; i < 4; i++ {
		c.AddNode(fmt.Sprintf("node%d", i), "K80", gpuRes(4))
	}
	waitFor(t, "boot events drained", 3*time.Second, func() bool {
		return c.SchedStats().EventsSeen >= 4
	})

	// Phase 1: no pending pods.
	base := c.SchedStats()
	waitHeartbeats(t, c, base, 50)
	got := c.SchedStats()
	if got.Passes != base.Passes {
		t.Fatalf("heartbeats with no pending pods triggered %d passes", got.Passes-base.Passes)
	}
	if got.FullScans != base.FullScans {
		t.Fatalf("heartbeats triggered %d full-cluster scans", got.FullScans-base.FullScans)
	}
	if got.NodesExamined != base.NodesExamined {
		t.Fatalf("heartbeats examined %d nodes", got.NodesExamined-base.NodesExamined)
	}

	// Phase 2: a pending pod that cannot fit anywhere (demands more
	// GPUs than any machine has). Its arrival costs exactly one pass;
	// heartbeats after that must not retrigger it.
	c.Store().PutPod(&Pod{
		Name: "hungry",
		Spec: PodSpec{Demand: sched.Resources{GPUs: 64}, Type: "learner"},
	})
	waitFor(t, "FailedScheduling for hungry", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("FailedScheduling")) > 0
	})
	base = c.SchedStats()
	waitHeartbeats(t, c, base, 50)
	got = c.SchedStats()
	if got.Passes != base.Passes {
		t.Fatalf("heartbeats retried an unfittable pod %d times", got.Passes-base.Passes)
	}
	if got.FullScans != base.FullScans {
		t.Fatalf("heartbeats triggered %d full scans while a pod waited", got.FullScans-base.FullScans)
	}
	if got.NodesExamined != base.NodesExamined {
		t.Fatalf("heartbeats examined %d nodes while a pod waited", got.NodesExamined-base.NodesExamined)
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
// and placed the moment matching capacity frees, with resync disabled.
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

// TestStoreWatchDroppedCounter pins the backpressure accounting: an
// overflowing watcher buffer increments the per-watcher dropped counter,
// and the resync harvest (TakeDropped) clears it.
func TestStoreWatchDroppedCounter(t *testing.T) {
	s := NewStore()
	w := s.Watch(KindNode)
	defer w.Cancel()
	for i := 0; i < 600; i++ {
		s.PutNode(&Node{Name: fmt.Sprintf("n%d", i%4), Ready: true})
	}
	d := w.Dropped()
	if d == 0 {
		t.Fatal("overflowing the watch buffer did not increment the dropped counter")
	}
	if taken := w.TakeDropped(); taken != d {
		t.Fatalf("TakeDropped = %d, want %d", taken, d)
	}
	if w.Dropped() != 0 {
		t.Fatal("TakeDropped did not clear the dropped counter")
	}
}

// TestResyncTickSkipsRebuildWithoutDrops pins the conditional resync at
// the cluster level: with zero dropped events, resync ticks run only the
// revision audit — FullScans stays at the boot scan while ResyncsSkipped
// grows and the audit proves the view current.
func TestResyncTickSkipsRebuildWithoutDrops(t *testing.T) {
	cfg := Config{
		SchedulerInterval: 2 * time.Millisecond,
		ResyncInterval:    time.Hour,
		HeartbeatInterval: time.Hour,
		NodeGracePeriod:   time.Hour,
	}
	c := NewCluster(cfg)
	t.Cleanup(c.Stop)
	c.AddNode("node0", "K80", gpuRes(4))
	waitFor(t, "resync ticks audited", 3*time.Second, func() bool {
		st := c.SchedStats()
		return st.ResyncsSkipped >= 5 && st.AuditsClean >= 1
	})
	st := c.SchedStats()
	if st.FullScans != 1 {
		t.Fatalf("FullScans = %d, want 1 (boot only): ticks without drops must not rebuild", st.FullScans)
	}
	if st.EventsDropped != 0 {
		t.Fatalf("EventsDropped = %d with an idle watcher", st.EventsDropped)
	}
}

// TestDroppedEventsForceRebuildThenClear drives a schedCore directly:
// watcher overflow makes the next resync tick rebuild the view (and
// harvest the counter); the tick after, with no further drops, is
// audit-only.
func TestDroppedEventsForceRebuildThenClear(t *testing.T) {
	c := dirtySetCluster(t, Config{HeartbeatInterval: time.Hour})
	c.AddNode("node0", "K80", gpuRes(2))
	w := c.Store().Watch("")
	defer w.Cancel()
	s := &schedCore{c: c, watch: w}
	s.resync()
	if s.stats.FullScans != 1 {
		t.Fatalf("boot FullScans = %d", s.stats.FullScans)
	}
	// Overflow this watcher: more mutations than its buffer, unconsumed.
	for i := 0; i < 600; i++ {
		c.Store().UpdateNode("node0", func(n *Node) {
			n.LastHeartbeat = n.LastHeartbeat.Add(time.Millisecond)
		})
	}
	if w.Dropped() == 0 {
		t.Fatal("watch buffer never overflowed")
	}
	s.resyncTick()
	if s.stats.FullScans != 2 {
		t.Fatalf("dropped events did not force a rebuild (FullScans=%d)", s.stats.FullScans)
	}
	if s.stats.EventsDropped == 0 {
		t.Fatal("rebuild did not account the harvested drops")
	}
	if w.Dropped() != 0 {
		t.Fatal("rebuild did not clear the watcher's dropped counter")
	}
	s.resyncTick()
	if s.stats.FullScans != 2 {
		t.Fatal("drop-free tick rebuilt the view")
	}
	if s.stats.ResyncsSkipped != 1 || s.stats.AuditsClean != 1 {
		t.Fatalf("drop-free tick skipped=%d clean=%d, want 1/1",
			s.stats.ResyncsSkipped, s.stats.AuditsClean)
	}
}

// TestResyncTickRunsPassForDrainedEvents: a select race can route a
// wake-worthy event to the resync tick instead of the event case; the
// tick's drop-free skip path must still evaluate what it drained — a
// skipped rebuild must never mean a skipped scheduling pass.
func TestResyncTickRunsPassForDrainedEvents(t *testing.T) {
	c := dirtySetCluster(t, Config{HeartbeatInterval: time.Hour})
	c.AddNode("node0", "K80", gpuRes(2))
	w := c.Store().Watch("")
	defer w.Cancel()
	s := &schedCore{c: c, watch: w}
	s.resync()
	base := s.stats.Passes
	// The pod-add event lands in this watcher's queue synchronously.
	c.Store().PutPod(&Pod{
		Name: "hungry",
		Spec: PodSpec{Demand: sched.Resources{GPUs: 64}, Type: "learner"},
	})
	s.resyncTick()
	if s.stats.FullScans != 1 {
		t.Fatalf("drop-free tick rebuilt the view (FullScans=%d)", s.stats.FullScans)
	}
	if s.stats.Passes != base+1 {
		t.Fatalf("tick drained a new-pod event without scheduling a pass (Passes=%d, want %d)",
			s.stats.Passes, base+1)
	}
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
