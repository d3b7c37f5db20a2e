package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
)

// TestFinishedJobsLeaveNoKubeOrEtcdState pins by counts that a finished
// job leaves only its record: after 200 jobs reach COMPLETED on one
// platform, kube holds no Guardian Job and no pod of any of them, etcd
// no key of any of them, and the platform no status head.
func TestFinishedJobsLeaveNoKubeOrEtcdState(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	const jobs, clients = 200, 8
	ids := make(chan string, jobs)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for i := 0; i < jobs/clients; i++ {
				jobID, err := c.Submit(ctx, testManifest())
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if got, err := c.WaitForStatus(ctx, jobID, StatusCompleted, 2*time.Millisecond); err != nil || got != StatusCompleted {
					t.Errorf("job %s reached %s (err %v), want COMPLETED", jobID, got, err)
					return
				}
				ids <- jobID
			}
		}()
	}
	wg.Wait()
	close(ids)
	if t.Failed() {
		return
	}
	// COMPLETED is recorded before the Guardian tears down and exits,
	// and kube deletes its Job only after that.
	st := p.Kube.Store()
	waitUntil(t, "kube to hold no object of a finished job", 10*time.Second, func() bool {
		return len(st.List(kube.KindJob, "")) == 0 && len(st.ListPods("")) == 0
	})
	// The terminal write drops its head just after it publishes.
	waitUntil(t, "no status head of a finished job", 10*time.Second, func() bool {
		p.headsMu.Lock()
		defer p.headsMu.Unlock()
		return len(p.heads) == 0
	})
	for jobID := range ids {
		if kvs, err := p.Etcd.List(keyJobPrefix(jobID)); err != nil || len(kvs) != 0 {
			t.Fatalf("etcd holds %d keys of finished job %s (err %v): %v", len(kvs), jobID, err, kvs)
		}
	}
}

// TestGuardianForFinishedJobLeavesNothing pins the scan race: a Guardian
// created for a job that is already terminal — a recovery-scan hit that
// went stale as the job finished — exits 0 and leaves no kube object,
// etcd key or NFS volume, and the job's history is untouched.
func TestGuardianForFinishedJobLeavesNothing(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)
	st := p.Kube.Store()
	name := guardianJobName(jobID)
	guardianGone := func() bool {
		_, ok := st.Get(kube.KindJob, name)
		return !ok && len(st.PodsOf(kube.KindJob, name)) == 0
	}
	waitUntil(t, "the finished job's guardian to be deleted", 5*time.Second, guardianGone)
	before, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}

	pods := st.Watch(kube.KindPod)
	defer pods.Cancel()
	p.lcms[0].ensureGuardian(jobID)
	deadline := time.After(5 * time.Second)
	for succeeded := false; !succeeded; {
		select {
		case ev := <-pods.Events():
			pod, ok := ev.Object.(*kube.Pod)
			succeeded = ok && pod.Owner.Name == name && pod.Status.Phase == kube.PodSucceeded
		case <-deadline:
			t.Fatal("the late guardian never exited 0")
		}
	}
	waitUntil(t, "the late guardian to be deleted", 5*time.Second, guardianGone)

	for _, pod := range st.ListPods("") {
		if strings.Contains(pod.Name, jobID) {
			t.Fatalf("pod %s of the finished job is left", pod.Name)
		}
	}
	if p.hasDeployedObjects(jobID) {
		t.Fatal("the late guardian left deployed objects")
	}
	if kvs, err := p.Etcd.List(keyJobPrefix(jobID)); err != nil || len(kvs) != 0 {
		t.Fatalf("etcd holds %d keys of the finished job (err %v)", len(kvs), err)
	}
	if _, ok := p.getResources(jobID); ok {
		t.Fatal("the late guardian left an NFS volume")
	}
	after, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != StatusCompleted || len(after.History) != len(before.History) {
		t.Fatalf("late guardian changed the job: %s with %d history entries, want COMPLETED with %d",
			after.Status, len(after.History), len(before.History))
	}
}
