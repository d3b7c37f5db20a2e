package kube

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sched"
)

// TestFinishedJobsLeaveNoKubeObjects pins by counts that a finished Job
// costs kube nothing: after 200 Guardian-shaped Jobs run to success, the
// store holds no Job and no pod of theirs, and the kubelet start loop
// remembers only live pods. No watch overflows, so neither the orphan
// sweep nor the start loop's relist prune does the work: the success
// path and the delete events must.
func TestFinishedJobsLeaveNoKubeObjects(t *testing.T) {
	c := testCluster(t, Config{})
	c.RegisterRuntime("done", func(*PodContext) int { return 0 })
	c.AddNode("node0", "K80", gpuRes(8))
	const jobs, wave = 200, 20
	for w := 0; w < jobs; w += wave {
		for i := w; i < w+wave; i++ {
			name := fmt.Sprintf("guardian-training-%06d", i)
			c.Store().Put(KindJob, name, &Job{
				Name: name, BackoffLimit: 3,
				Template: PodSpec{Demand: sched.Resources{MilliCPU: 100, MemoryMB: 128}, Runtime: "done"},
			})
		}
		waitFor(t, "wave of jobs deleted after success", 5*time.Second, func() bool {
			return len(c.Store().List(KindJob, "")) == 0 && len(c.Store().ListPods("")) == 0
		})
	}
	// A pod started after the last delete is a barrier: the start loop
	// has handled every event queued before it.
	c.RegisterRuntime("block", blockUntilKilled)
	c.Store().PutPod(&Pod{Name: "barrier", Spec: PodSpec{Demand: sched.Resources{MilliCPU: 100}, Runtime: "block"}})
	waitFor(t, "barrier pod running", 5*time.Second, func() bool {
		p, ok := c.Store().GetPod("barrier")
		return ok && p.Status.Phase == PodRunning
	})
	barrier, _ := c.Store().GetPod("barrier")
	c.Stop() // the start loop has exited: its map is safe to read
	if len(c.started) != 1 || c.started["barrier"] != barrier.UID {
		t.Fatalf("kubelet start loop remembers %d pods, want only the live barrier pod: %v", len(c.started), c.started)
	}
}

// TestKubeletIgnoresLateDeleteOfOldIncarnation pins the start loop's
// UID guard: when the delete event of a pod's previous incarnation
// arrives after its replacement was started (a relist can start the
// replacement while that event is still queued), the replacement's
// start record stays, so a further event for the replacement does not
// hand it to a kubelet again. The replacement's own delete then drops
// the record.
func TestKubeletIgnoresLateDeleteOfOldIncarnation(t *testing.T) {
	var dispatches atomic.Int32 // runPod's first step reads the start delay
	c := newCluster(Config{
		StartDelay: func(string) time.Duration { dispatches.Add(1); return 0 },
	})
	c.RegisterRuntime("block", blockUntilKilled)
	kl := newKubelet(c, "node0")
	c.kubelets["node0"] = kl
	bound := func(uid uint64) *Pod {
		return &Pod{Name: "learner-0", UID: uid, Spec: PodSpec{Runtime: "block"},
			Status: PodStatus{Phase: PodPending, Node: "node0"}}
	}
	old, repl := bound(1), bound(2)

	events := make(chan WatchEvent) // unbuffered: each send waits for the previous event's handling
	done := make(chan struct{})
	watch := &StoreWatch{s: c.store, w: &storeWatcher{kind: KindPod, ch: events}}
	go func() { defer close(done); c.kubeletStartLoop(watch) }()
	for _, ev := range []WatchEvent{
		{Type: WatchModified, Kind: KindPod, Name: repl.Name, Object: repl}, // replacement started
		{Type: WatchDeleted, Kind: KindPod, Name: old.Name, Prev: old},      // the old incarnation's late delete
		{Type: WatchModified, Kind: KindPod, Name: repl.Name, Object: repl}, // must not start it again
		{Type: WatchDeleted, Kind: KindPod, Name: repl.Name, Prev: repl},
	} {
		events <- ev
	}
	close(c.stopCh)
	<-done
	kl.stop() // waits for every dispatched runPod
	if n := dispatches.Load(); n != 1 {
		t.Fatalf("replacement handed to its kubelet %d times, want 1", n)
	}
	if uid, ok := c.started[repl.Name]; ok {
		t.Fatalf("start record for UID %d survived the replacement's delete", uid)
	}
}
