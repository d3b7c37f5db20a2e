package kube

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 5 * time.Millisecond
	}
	if cfg.NodeGracePeriod == 0 {
		cfg.NodeGracePeriod = 30 * time.Millisecond
	}
	c := NewCluster(cfg)
	t.Cleanup(c.Stop)
	return c
}

func gpuRes(gpus int) sched.Resources {
	return sched.Resources{MilliCPU: int64(4000 * gpus), MemoryMB: int64(24000 * gpus), GPUs: gpus}
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// completeAfter returns a runtime that succeeds after d.
func completeAfter(d time.Duration) Runtime {
	return func(ctx *PodContext) int {
		select {
		case <-ctx.Clock.After(d):
			return 0
		case <-ctx.Stop:
			return 137
		}
	}
}

// blockUntilKilled models FfDL learner containers, which stay alive
// until the Guardian tears the job down.
func blockUntilKilled(ctx *PodContext) int {
	<-ctx.Stop
	return 137
}

func TestPodScheduledAndRuns(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("quick", completeAfter(5*time.Millisecond))
	c.AddNode("node0", "K80", gpuRes(4))
	c.Store().PutPod(&Pod{
		Name: "p1",
		Spec: PodSpec{Demand: sched.Resources{MilliCPU: 1000, MemoryMB: 1000, GPUs: 1}, Runtime: "quick"},
	})
	waitFor(t, "pod completion", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("p1")
		return ok && p.Status.Phase == PodSucceeded
	})
	p, _ := c.Store().GetPod("p1")
	if p.Status.Node != "node0" {
		t.Fatalf("node = %q", p.Status.Node)
	}
	if p.Status.ExitCode != 0 {
		t.Fatalf("exit = %d", p.Status.ExitCode)
	}
	if p.Status.StartedAt.Before(p.Status.ScheduledAt) {
		t.Fatal("timestamps out of order")
	}
}

func TestPodFailsWithNonZeroExit(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("crash", func(ctx *PodContext) int { return 3 })
	c.AddNode("node0", "K80", gpuRes(4))
	c.Store().PutPod(&Pod{Name: "p1", Spec: PodSpec{Demand: gpuRes(1), Runtime: "crash"}})
	waitFor(t, "pod failure", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("p1")
		return ok && p.Status.Phase == PodFailed && p.Status.ExitCode == 3
	})
}

func TestUnschedulablePodEmitsFailedScheduling(t *testing.T) {
	c := testCluster(t, Config{})
	c.AddNode("node0", "K80", gpuRes(2))
	c.Store().PutPod(&Pod{
		Name: "hungry",
		Spec: PodSpec{Demand: sched.Resources{GPUs: 4}, Type: "learner"},
	})
	waitFor(t, "FailedScheduling event", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("FailedScheduling")) > 0
	})
	evs := c.Store().recordedEvents("FailedScheduling")
	if evs[0].PodType != "learner" {
		t.Fatalf("event pod type = %q", evs[0].PodType)
	}
	p, _ := c.Store().GetPod("hungry")
	if p.Status.Node != "" {
		t.Fatal("infeasible pod was bound")
	}
}

func TestSchedulerHonorsGPUType(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("k80-node", "K80", gpuRes(4))
	c.AddNode("v100-node", "V100", gpuRes(4))
	c.Store().PutPod(&Pod{
		Name: "v100-pod",
		Spec: PodSpec{Demand: gpuRes(1), GPUType: "V100", Runtime: "block"},
	})
	waitFor(t, "binding", 3*time.Second, func() bool {
		p, _ := c.Store().GetPod("v100-pod")
		return p != nil && p.Status.Node != ""
	})
	p, _ := c.Store().GetPod("v100-pod")
	if p.Status.Node != "v100-node" {
		t.Fatalf("bound to %q", p.Status.Node)
	}
}

// TestSchedulerWakesOnPodAddWithoutTick proves the scheduler is
// event-driven: it keeps no ticker, so a freshly created pod must be
// bound and run promptly, woken by the store watch alone.
func TestSchedulerWakesOnPodAddWithoutTick(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("quick", completeAfter(time.Millisecond))
	c.AddNode("node0", "K80", gpuRes(4))
	start := time.Now()
	c.Store().PutPod(&Pod{Name: "p1", Spec: PodSpec{Demand: gpuRes(1), Runtime: "quick"}})
	waitFor(t, "event-driven bind+run", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("p1")
		return ok && p.Status.Phase == PodSucceeded
	})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pod took %v; scheduler waited for a tick", elapsed)
	}
}

// TestSchedulerWakesOnFreedCapacity: a pod waiting for space must be
// bound as soon as the blocking pod terminates — driven by the
// termination watch event, not a scheduler tick.
func TestSchedulerWakesOnFreedCapacity(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.RegisterRuntime("quick", completeAfter(time.Millisecond))
	c.AddNode("node0", "K80", gpuRes(1))
	c.Store().PutPod(&Pod{Name: "hog", Spec: PodSpec{Demand: gpuRes(1), Runtime: "block"}})
	waitFor(t, "hog running", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("hog")
		return ok && p.Status.Phase == PodRunning
	})
	c.Store().PutPod(&Pod{Name: "waiter", Spec: PodSpec{Demand: gpuRes(1), Runtime: "quick"}})
	waitFor(t, "FailedScheduling for waiter", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("FailedScheduling")) > 0
	})
	c.KillPod("hog", "test")
	waitFor(t, "waiter runs after capacity freed", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("waiter")
		return ok && p.Status.Phase == PodSucceeded
	})
}

func TestStatefulSetCreatesAndRestartsPods(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(8))
	c.Store().Put(KindStatefulSet, "learner-j1", &StatefulSet{
		Name: "learner-j1", Replicas: 3,
		Template: PodSpec{Demand: gpuRes(1), Runtime: "block", Type: "learner"},
	})
	running := func() int {
		n := 0
		for _, p := range c.Store().ListPods("learner-j1-") {
			if p.Status.Phase == PodRunning {
				n++
			}
		}
		return n
	}
	waitFor(t, "3 learners running", 3*time.Second, func() bool { return running() == 3 })

	// Kill one learner: the set must replace it.
	if !c.KillPod("learner-j1-1", "test") {
		t.Fatal("KillPod failed")
	}
	waitFor(t, "learner restart", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("learner-j1-1")
		return ok && p.Status.Phase == PodRunning && p.Status.Restarts >= 1
	})
	if got := running(); got != 3 {
		t.Fatalf("running = %d, want 3", got)
	}
}

func TestStatefulSetScaleDownAndCascade(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(8))
	c.Store().Put(KindStatefulSet, "ss", &StatefulSet{
		Name: "ss", Replicas: 3,
		Template: PodSpec{Demand: gpuRes(1), Runtime: "block"},
	})
	waitFor(t, "3 pods", 3*time.Second, func() bool { return len(c.Store().ListPods("ss-")) == 3 })
	// Scale to 1.
	c.Store().Put(KindStatefulSet, "ss", &StatefulSet{
		Name: "ss", Replicas: 1,
		Template: PodSpec{Demand: gpuRes(1), Runtime: "block"},
	})
	waitFor(t, "scale down", 3*time.Second, func() bool { return len(c.Store().ListPods("ss-")) == 1 })
	// Delete the set: cascade removes the pod.
	c.Store().Delete(KindStatefulSet, "ss")
	waitFor(t, "cascade delete", 3*time.Second, func() bool { return len(c.Store().ListPods("ss-")) == 0 })
}

func TestJobRestartsUntilBackoffLimit(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("alwaysfail", func(ctx *PodContext) int { return 1 })
	c.AddNode("node0", "K80", gpuRes(8))
	c.Store().Put(KindJob, "guardian-j1", &Job{
		Name: "guardian-j1", BackoffLimit: 2,
		Template: PodSpec{Demand: sched.Resources{MilliCPU: 100, MemoryMB: 100}, Runtime: "alwaysfail", Type: "guardian"},
	})
	waitFor(t, "job failure", 3*time.Second, func() bool {
		obj, ok := c.Store().Get(KindJob, "guardian-j1")
		return ok && obj.(*Job).Failed
	})
	obj, _ := c.Store().Get(KindJob, "guardian-j1")
	if got := obj.(*Job).Attempts; got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

// TestJobSucceeds pins a Job's run to completion: a failed attempt is
// retried, and once an attempt succeeds the Job and its pod are deleted
// (ttlSecondsAfterFinished: 0).
func TestJobSucceeds(t *testing.T) {
	c := testCluster(t, Config{})
	var runs atomic.Int32
	c.RegisterRuntime("flaky", func(ctx *PodContext) int {
		if runs.Add(1) == 1 {
			return 1
		}
		return 0
	})
	c.AddNode("node0", "K80", gpuRes(8))
	c.Store().Put(KindJob, "g", &Job{
		Name: "g", BackoffLimit: 3,
		Template: PodSpec{Demand: sched.Resources{MilliCPU: 100}, Runtime: "flaky"},
	})
	waitFor(t, "job and pod deleted after success", 3*time.Second, func() bool {
		_, ok := c.Store().Get(KindJob, "g")
		return !ok && len(c.Store().PodsOf(KindJob, "g")) == 0
	})
	if n := runs.Load(); n != 2 {
		t.Fatalf("job ran %d attempts, want 2 (one failure, one success)", n)
	}
}

func TestNodeCrashEvictsAndReschedules(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(4))
	c.AddNode("node1", "K80", gpuRes(4))
	c.Store().Put(KindDeployment, "helper", &Deployment{
		Name: "helper", Replicas: 1,
		Template: PodSpec{Demand: sched.Resources{MilliCPU: 1000, MemoryMB: 1000}, Runtime: "block", Type: "lhelper"},
	})
	waitFor(t, "helper running", 3*time.Second, func() bool {
		p, ok := c.Store().GetPod("helper-0")
		return ok && p.Status.Phase == PodRunning
	})
	p, _ := c.Store().GetPod("helper-0")
	victim := p.Status.Node

	c.CrashNode(victim)
	waitFor(t, "node NotReady", 3*time.Second, func() bool {
		n, _ := c.Store().getNode(victim)
		return n != nil && !n.Ready
	})
	// Eviction + deployment controller must produce a running replacement
	// on the surviving node.
	waitFor(t, "helper rescheduled", 5*time.Second, func() bool {
		p, ok := c.Store().GetPod("helper-0")
		return ok && p.Status.Phase == PodRunning && p.Status.Node != victim
	})
	nodeFail, total := c.DeletionStats()
	if nodeFail == 0 || total < nodeFail {
		t.Fatalf("deletion stats = %d/%d", nodeFail, total)
	}
	if len(c.Store().recordedEvents("NodeControllerEviction")) == 0 {
		t.Fatal("no eviction events recorded")
	}
}

func TestCordonedNodeRejectsPods(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(4))
	c.cordonNode("node0")
	c.Store().PutPod(&Pod{Name: "p", Spec: PodSpec{Demand: gpuRes(1), Runtime: "block", Type: "learner"}})
	waitFor(t, "FailedScheduling", 3*time.Second, func() bool {
		return len(c.Store().recordedEvents("FailedScheduling")) > 0
	})
	p, _ := c.Store().GetPod("p")
	if p.Status.Node != "" {
		t.Fatal("pod bound to cordoned node")
	}
}

// TestPodAtATimeDeadlock reproduces §3.5: two 2-learner × 2-GPU jobs on
// a 2-node × 2-GPU cluster. Pod-at-a-time spread scheduling binds pods
// in nondeterministic order, so across seeds it must sometimes bind one
// learner of each job — deadlocking both — and every outcome must bind
// exactly two pods (never overcommit).
func TestPodAtATimeDeadlock(t *testing.T) {
	deadlocks := 0
	for seed := int64(1); seed <= 8; seed++ {
		c := testCluster(t, Config{PodPolicy: sched.Spread{}, RNG: sim.NewRNG(seed)})
		c.RegisterRuntime("block", blockUntilKilled)
		c.AddNode("node0", "K80", gpuRes(2))
		c.AddNode("node1", "K80", gpuRes(2))
		for j := 0; j < 2; j++ {
			for l := 0; l < 2; l++ {
				c.Store().PutPod(&Pod{
					Name: fmt.Sprintf("job%d-l%d", j, l),
					Spec: PodSpec{Demand: sched.Resources{MilliCPU: 1000, MemoryMB: 1000, GPUs: 2},
						JobID: fmt.Sprintf("job%d", j), GangSize: 2, Runtime: "block", Type: "learner"},
				})
			}
		}
		time.Sleep(60 * time.Millisecond)
		bound := map[string]int{}
		total := 0
		for _, p := range c.Store().ListPods("") {
			if p.Status.Node != "" {
				bound[p.Spec.JobID]++
				total++
			}
		}
		if total != 2 {
			t.Fatalf("seed %d: %d pods bound, want 2 (cluster has 4 GPUs)", seed, total)
		}
		if bound["job0"] == 1 && bound["job1"] == 1 {
			deadlocks++
		}
		c.Stop()
	}
	// P(deadlock) = 2/3 per seed; all-8-misses has probability (1/3)^8.
	if deadlocks == 0 {
		t.Fatal("pod-at-a-time scheduling never produced a partial placement across 8 seeds")
	}
	t.Logf("deadlocked in %d/8 runs (paper observes deadlock ~60%% of runs)", deadlocks)
}

// TestGangSchedulingAvoidsDeadlock runs the same workload with the BSA
// gang scheduler: one job must be fully bound, the other fully queued.
func TestGangSchedulingAvoidsDeadlock(t *testing.T) {
	c := testCluster(t, Config{GangPolicy: sched.NewBSA(sim.NewRNG(3))})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(2))
	c.AddNode("node1", "K80", gpuRes(2))
	for j := 0; j < 2; j++ {
		for l := 0; l < 2; l++ {
			c.Store().PutPod(&Pod{
				Name: fmt.Sprintf("job%d-l%d", j, l),
				Spec: PodSpec{Demand: sched.Resources{MilliCPU: 1000, MemoryMB: 1000, GPUs: 2},
					JobID: fmt.Sprintf("job%d", j), GangSize: 2, Runtime: "block", Type: "learner"},
			})
		}
	}
	time.Sleep(100 * time.Millisecond)
	bound := map[string]int{}
	for _, p := range c.Store().ListPods("") {
		if p.Status.Node != "" {
			bound[p.Spec.JobID]++
		}
	}
	full, queued := 0, 0
	for j := 0; j < 2; j++ {
		switch bound[fmt.Sprintf("job%d", j)] {
		case 2:
			full++
		case 0:
			queued++
		default:
			t.Fatalf("gang scheduler produced partial placement: %v", bound)
		}
	}
	if full != 1 || queued != 1 {
		t.Fatalf("full=%d queued=%d, want 1/1", full, queued)
	}
}

func TestGangWaitsForAllMembers(t *testing.T) {
	c := testCluster(t, Config{GangPolicy: sched.NewBSA(sim.NewRNG(3))})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(4))
	// Create only 1 of 2 gang members: nothing must bind yet.
	c.Store().PutPod(&Pod{
		Name: "j-l0",
		Spec: PodSpec{Demand: gpuRes(1), JobID: "j", GangSize: 2, Runtime: "block"},
	})
	time.Sleep(50 * time.Millisecond)
	p, _ := c.Store().GetPod("j-l0")
	if p.Status.Node != "" {
		t.Fatal("incomplete gang member was bound")
	}
	c.Store().PutPod(&Pod{
		Name: "j-l1",
		Spec: PodSpec{Demand: gpuRes(1), JobID: "j", GangSize: 2, Runtime: "block"},
	})
	waitFor(t, "gang bound", 3*time.Second, func() bool {
		a, _ := c.Store().GetPod("j-l0")
		b, _ := c.Store().GetPod("j-l1")
		return a != nil && b != nil && a.Status.Node != "" && b.Status.Node != ""
	})
}

func TestGPUUtilizationAccounting(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("block", blockUntilKilled)
	c.AddNode("node0", "K80", gpuRes(4))
	alloc, cap_ := c.GPUUtilization()
	if alloc != 0 || cap_ != 4 {
		t.Fatalf("util = %d/%d", alloc, cap_)
	}
	c.Store().PutPod(&Pod{Name: "p", Spec: PodSpec{Demand: gpuRes(3), Runtime: "block"}})
	waitFor(t, "allocation", 3*time.Second, func() bool {
		alloc, _ := c.GPUUtilization()
		return alloc == 3
	})
}

func TestStoreWatchDeliversTypedEvents(t *testing.T) {
	s := NewStore()
	w := s.Watch(KindPod)
	defer w.Cancel()
	ch := w.Events()
	s.PutPod(&Pod{Name: "x"})
	ev := <-ch
	if ev.Type != WatchAdded || ev.Name != "x" {
		t.Fatalf("event = %+v", ev)
	}
	s.UpdatePod("x", func(p *Pod) { p.Status.Phase = PodRunning })
	ev = <-ch
	if ev.Type != WatchModified {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Object.(*Pod).Status.Phase != PodRunning {
		t.Fatal("watch object is stale")
	}
	s.Delete(KindPod, "x")
	ev = <-ch
	if ev.Type != WatchDeleted {
		t.Fatalf("event = %+v", ev)
	}
}

// TestStoreSharesImmutableObjects pins the store's sharing contract:
// reads and events return the stored pointer, and a write stores a new
// object, so a pointer read before it keeps showing the old state.
func TestStoreSharesImmutableObjects(t *testing.T) {
	s := NewStore()
	w := s.Watch(KindPod)
	defer w.Cancel()
	s.PutPod(&Pod{Name: "x", Labels: map[string]string{"a": "1"}})
	a, _ := s.GetPod("x")
	b, _ := s.GetPod("x")
	if added := <-w.Events(); a != b || added.Object != a {
		t.Fatal("two reads and the Added event do not share the stored pod")
	}
	s.UpdatePod("x", func(p *Pod) { p.Status.Phase = PodRunning })
	if a.Status.Phase != PodPending {
		t.Fatalf("a pod read before the update shows phase %s", a.Status.Phase)
	}
	mod := <-w.Events()
	if mod.Prev != a {
		t.Fatal("the Modified event's Prev is not the pod it replaced")
	}
	cur, _ := s.GetPod("x")
	if mod.Object != cur || cur.Status.Phase != PodRunning {
		t.Fatal("the Modified event's Object is not the stored pod")
	}
	s.Delete(KindPod, "x")
	if del := <-w.Events(); del.Prev != cur || del.Object != nil {
		t.Fatal("the Deleted event's Prev is not the last stored pod")
	}
}

// TestMutationDetectorFires: editing a stored pod in place, whether a
// map entry or a status field, makes the pod's next update panic and
// name it.
func TestMutationDetectorFires(t *testing.T) {
	for what, mutate := range map[string]func(*Pod){
		"Labels": func(p *Pod) { p.Labels["a"] = "edited" },
		"Status": func(p *Pod) { p.Status.Restarts++ },
	} {
		s := NewStore()
		s.PutPod(&Pod{Name: "x", Labels: map[string]string{"a": "1"}})
		p, _ := s.GetPod("x")
		mutate(p)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Pod/x") {
					t.Errorf("%s edit: UpdatePod panicked with %q, want it to name Pod/x", what, msg)
				}
			}()
			s.UpdatePod("x", func(p *Pod) { p.Status.Phase = PodRunning })
		}()
	}
}

// TestStoreEventsKeepNewest pins the event ring's bound: past 2N records
// (by a few, so the ring's head is mid-slice) Events returns the newest
// N, oldest first.
func TestStoreEventsKeepNewest(t *testing.T) {
	s := NewStore()
	const total = 2*maxEvents + 5
	const first = total - maxEvents // the oldest event still held
	for i := 0; i < total; i++ {
		reason := "Even"
		if i%2 == 1 {
			reason = "Odd"
		}
		s.RecordEvent(Event{Reason: reason, Object: fmt.Sprint(i)})
	}
	evs := s.recordedEvents("")
	if len(evs) != maxEvents {
		t.Fatalf("Events = %d, want the newest %d", len(evs), maxEvents)
	}
	for i, ev := range evs {
		if want := fmt.Sprint(first + i); ev.Object != want {
			t.Fatalf("event %d is #%s, want #%s", i, ev.Object, want)
		}
	}
	if odd := s.recordedEvents("Odd"); len(odd) != maxEvents/2 || odd[0].Object != fmt.Sprint(first) {
		t.Fatalf("filtered Events = %d starting at #%s, want %d from #%d", len(odd), odd[0].Object, maxEvents/2, first)
	}
}
