package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/etcd"
	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sim"
)

// newTestPlatform boots a small FfDL with 2 nodes x 4 K80 GPUs and a
// seeded dataset.
func newTestPlatform(t *testing.T, mutate func(*Config)) *Platform {
	t.Helper()
	cfg := Config{
		Seed:              42,
		PollInterval:      2 * time.Millisecond,
		RendezvousTimeout: 10 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	t.Cleanup(p.Stop)
	for _, n := range []string{"node0", "node1"} {
		p.AddNode(n, "K80", 4, 32, 256<<10)
	}
	p.Store.EnsureBucket("datasets")
	if err := p.Store.Put("datasets", "mnist/shard-0", bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	return p
}

func testManifest() Manifest {
	return Manifest{
		Name: "test-train", User: "alice",
		Framework: perf.Caffe, Model: perf.VGG16,
		Learners: 1, GPUsPerLearner: 1, GPUType: perf.K80,
		BatchSize: 64, Iterations: 30, CheckpointEvery: 10,
		DataBucket: "datasets", DataPrefix: "mnist/",
		Command: "caffe train -solver solver.prototxt",
	}
}

func waitStatus(t *testing.T, c *Client, jobID string, want JobStatus, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	got, err := c.WaitForStatus(ctx, jobID, want, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for %s: %v", want, err)
	}
	if got != want {
		reply, _ := c.Status(context.Background(), jobID)
		t.Fatalf("job %s reached %s, want %s (history: %+v)", jobID, got, want, reply.History)
	}
}

func TestSingleLearnerJobCompletes(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)

	// Status history must walk the DL-specific states in order.
	reply, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	var seen []JobStatus
	for _, h := range reply.History {
		seen = append(seen, h.Status)
	}
	wantOrder := []JobStatus{StatusPending, StatusDeploying, StatusCompleted}
	idx := 0
	progress := false
	for _, s := range seen {
		if idx < len(wantOrder) && s == wantOrder[idx] {
			idx++
		}
		if s == StatusDownloading || s == StatusProcessing || s == StatusStoring {
			progress = true
		}
	}
	if idx != len(wantOrder) {
		t.Fatalf("history %v missing expected order %v", seen, wantOrder)
	}
	if !progress {
		t.Fatalf("history %v shows no DL-specific progress status", seen)
	}
	// Timestamps are monotone.
	for i := 1; i < len(reply.History); i++ {
		if reply.History[i].Time.Before(reply.History[i-1].Time) {
			t.Fatal("history timestamps not monotone")
		}
	}
	// Model stored in the default results bucket.
	if _, err := p.Store.Head("ffdl-results", jobID+"/model/final.bin"); err != nil {
		t.Fatalf("trained model missing: %v", err)
	}
	// Training logs collected and stored.
	logs, err := c.Logs(context.Background(), jobID)
	if err != nil || len(logs) == 0 {
		t.Fatalf("logs = %d lines, err=%v", len(logs), err)
	}
	if _, err := p.Store.Head("ffdl-results", jobID+"/logs/training.log"); err != nil {
		t.Fatalf("stored logs missing: %v", err)
	}
	// The Guardian records the terminal status before it tears the job
	// down (§3.3), so both checks wait for teardown. Job's etcd subtree
	// erased after termination (§3.2).
	waitUntil(t, "etcd subtree erased", 10*time.Second, func() bool {
		kvs, _ := p.Etcd.List("jobs/" + jobID + "/")
		return len(kvs) == 0
	})
	// GPUs released.
	waitUntil(t, "GPUs released", 10*time.Second, func() bool {
		alloc, _ := p.Kube.GPUUtilization()
		return alloc == 0
	})
}

func TestDistributedJobCompletes(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	m := testManifest()
	m.Learners = 3
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 30*time.Second)
	// All three learners logged.
	logs, _ := c.Logs(context.Background(), jobID)
	learnersSeen := map[int]bool{}
	for _, l := range logs {
		learnersSeen[l.Learner] = true
	}
	for i := 0; i < 3; i++ {
		if !learnersSeen[i] {
			t.Fatalf("no logs from learner %d", i)
		}
	}
}

func TestJobQueuedWhenClusterFull(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 1e-4 // first job must actually hold the GPUs
	})
	c := p.Client()
	m := testManifest()
	m.Learners = 2
	m.GPUsPerLearner = 4 // consumes the whole cluster
	m.Iterations = 2000
	first, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, first, StatusProcessing, 20*time.Second)

	second, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	// Second job must sit in DEPLOYING with zero learners bound (fully
	// queued, not partially placed).
	time.Sleep(300 * time.Millisecond)
	reply, err := c.Status(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != StatusDeploying {
		t.Fatalf("second job status = %s, want DEPLOYING (queued)", reply.Status)
	}
	for _, pod := range p.Kube.Store().ListPods("learner-" + second + "-") {
		if pod.Status.Node != "" {
			t.Fatalf("queued job has bound learner %s", pod.Name)
		}
	}
	// Free the cluster; the queued job must start.
	if err := c.Terminate(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, second, StatusProcessing, 20*time.Second)
	if err := c.Terminate(context.Background(), second); err != nil {
		t.Fatal(err)
	}
}

func TestLearnerCrashRecoversFromCheckpoint(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 2e-5 // ~20µs per modeled second: job runs ~0.3s
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 400
	m.CheckpointEvery = 50
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusProcessing, 20*time.Second)
	// Wait for at least one checkpoint, then crash the learner pod.
	deadline := time.Now().Add(10 * time.Second)
	for {
		objs, _ := p.Store.List("ffdl-results", jobID+"/checkpoints/")
		if len(objs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	podName := "learner-" + jobID + "-0"
	if !p.Kube.KillPod(podName, "chaos") {
		t.Fatalf("learner pod %s not found", podName)
	}
	// The stateful set restarts the learner; it must resume and finish.
	waitStatus(t, c, jobID, StatusCompleted, 30*time.Second)
	logs, _ := c.SearchLogs(context.Background(), jobID, "resuming from checkpoint")
	if len(logs) == 0 {
		t.Fatal("restarted learner did not resume from checkpoint")
	}
}

func TestGuardianCrashRollsBackAndRedeploys(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 5e-5
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 2000
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusProcessing, 20*time.Second)

	// Kill the Guardian pod mid-monitoring.
	pods := p.Kube.Store().ListPods("guardian-" + jobID + "-attempt-")
	if len(pods) == 0 {
		t.Fatal("no guardian pod")
	}
	if !p.Kube.KillPod(pods[0].Name, "chaos") {
		t.Fatal("KillPod failed")
	}
	p.Metrics.Inc("test.marker")
	// The kube Job restarts the Guardian, which rolls back and
	// redeploys; the job must still complete.
	waitStatus(t, c, jobID, StatusCompleted, 40*time.Second)
	if p.Obs.CounterValue("guardian.rollbacks") == 0 {
		t.Fatal("restarted guardian did not roll back")
	}
}

// TestGuardianRewatchesAcrossEtcdLeaderFailover isolates the etcd leader
// while a job is PROCESSING. That closes the Guardian's watch, which was
// registered on the old leader; the Guardian must re-watch on the new
// one. The safety tick is 50s here, so a job that completes within the
// test's deadline was driven by the re-watch.
func TestGuardianRewatchesAcrossEtcdLeaderFailover(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.PollInterval = 5 * time.Second
		c.TimeCompression = 5e-5
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 2000
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusProcessing, 20*time.Second)

	old := p.Etcd.Leader()
	p.Etcd.Isolate(old, true)
	defer p.Etcd.Isolate(old, false)
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)

	reply, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	want := []JobStatus{StatusPending, StatusDeploying, StatusDownloading, StatusProcessing, StatusStoring, StatusCompleted}
	var got []JobStatus
	for _, h := range reply.History {
		got = append(got, h.Status)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("history = %v, want %v", got, want)
	}
}

func TestAPIReplicaCrashDoesNotInterruptService(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if !p.CrashAPI(0) {
		t.Fatal("CrashAPI failed")
	}
	// Queries keep working through the surviving replica.
	for i := 0; i < 5; i++ {
		if _, err := c.Status(context.Background(), jobID); err != nil {
			t.Fatalf("status during API crash: %v", err)
		}
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)
	// The crashed replica restarts.
	deadline := time.Now().Add(5 * time.Second)
	for p.Obs.CounterValue("api.restarts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("API replica never restarted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRepeatedReplicaCrashesKeepOneServerEach crashes an API and an LCM
// replica 20 times, 5 ms apart — about one restart delay — so crashes
// land both on a serving replica and on one whose restart is pending
// or in flight. Every crash that took a replica down must be matched by
// one restart, and each replica must end with exactly one registered
// server. Under -race it also pins that a crash and a restart never
// touch a replica's server and address unguarded.
func TestRepeatedReplicaCrashesKeepOneServerEach(t *testing.T) {
	p := newTestPlatform(t, nil)
	for i := 0; i < 20; i++ {
		p.CrashAPI(0)
		p.CrashLCM(0)
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	settled := func() bool {
		return len(p.Registry.Lookup(ServiceAPI)) == apiReplicas &&
			len(p.Registry.Lookup(ServiceLCM)) == lcmReplicas &&
			p.Obs.CounterValue("api.restarts") == p.Obs.CounterValue("api.crashes") &&
			p.Obs.CounterValue("lcm.restarts") == p.Obs.CounterValue("lcm.crashes")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatalf("after crashes settled: api %v, lcm %v; api crashes/restarts %d/%d, lcm %d/%d",
				p.Registry.Lookup(ServiceAPI), p.Registry.Lookup(ServiceLCM),
				p.Obs.CounterValue("api.crashes"), p.Obs.CounterValue("api.restarts"),
				p.Obs.CounterValue("lcm.crashes"), p.Obs.CounterValue("lcm.restarts"))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Client().List(context.Background(), ""); err != nil {
		t.Fatalf("List after repeated crashes: %v", err)
	}
}

func TestSubmissionSurvivesLCMOutage(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	// Crash both LCM replicas, then submit: the job must persist as
	// PENDING and deploy once an LCM returns.
	p.CrashLCM(0)
	p.CrashLCM(1)
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatalf("submit during LCM outage: %v", err)
	}
	reply, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != StatusPending && !reply.Status.Terminal() {
		// It may already be past PENDING if an LCM restarted quickly;
		// either way it must eventually complete.
		t.Logf("status right after submit: %s", reply.Status)
	}
	waitStatus(t, c, jobID, StatusCompleted, 30*time.Second)
}

func TestHaltAndResume(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 2e-5
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 600
	m.CheckpointEvery = 50
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusProcessing, 20*time.Second)
	// Let it checkpoint, then halt.
	deadline := time.Now().Add(10 * time.Second)
	for {
		objs, _ := p.Store.List("ffdl-results", jobID+"/checkpoints/")
		if len(objs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint before halt")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Halt(context.Background(), jobID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusHalted, 20*time.Second)
	// GPUs released while halted.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if alloc, _ := p.Kube.GPUUtilization(); alloc == 0 {
			break
		}
		if time.Now().After(deadline) {
			alloc, _ := p.Kube.GPUUtilization()
			t.Fatalf("halted job still holds %d GPUs", alloc)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Resume(context.Background(), jobID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 30*time.Second)
	logs, _ := c.SearchLogs(context.Background(), jobID, "resuming from checkpoint")
	if len(logs) == 0 {
		t.Fatal("resumed job did not load its checkpoint")
	}
}

func TestTerminatePendingAndRunning(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 1e-4
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 5000
	running, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, running, StatusProcessing, 20*time.Second)
	// Subscribe before terminating, so every pod event of the teardown
	// reaches the utilization check below.
	pods := p.Kube.Store().Watch(kube.KindPod)
	defer pods.Cancel()
	if err := c.Terminate(context.Background(), running); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, running, StatusCanceled, 20*time.Second)
	// CANCELED is recorded before teardown releases the pods: re-read
	// utilization on each pod event until every GPU is free.
	timeout := time.After(20 * time.Second)
	for {
		alloc, _ := p.Kube.GPUUtilization()
		if alloc == 0 {
			break
		}
		select {
		case <-pods.Events():
		case <-timeout:
			t.Fatalf("terminated job still holds %d GPUs", alloc)
		}
	}
}

func TestFollowLogsStreamsLive(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 5e-5
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 800
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	lines := make(chan LogLine, 256)
	go func() {
		c.FollowLogs(ctx, jobID, func(l LogLine) { //nolint:errcheck
			select {
			case lines <- l:
			default:
			}
		})
	}()
	select {
	case l := <-lines:
		if !strings.Contains(l.Text, jobID) && !strings.Contains(l.Text, "iteration") && !strings.Contains(l.Text, "download") {
			t.Fatalf("unexpected log line: %q", l.Text)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no live log lines")
	}
	cancel()
	c.Terminate(context.Background(), jobID) //nolint:errcheck
}

func TestListJobsByUser(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	m1 := testManifest()
	m2 := testManifest()
	m2.User = "bob"
	id1, err := c.Submit(context.Background(), m1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), m2); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.List(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id1 {
		t.Fatalf("alice's jobs = %+v", jobs)
	}
	all, err := c.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("all jobs = %d", len(all))
	}
	waitStatus(t, c, id1, StatusCompleted, 20*time.Second)
}

func TestInvalidManifestRejected(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	m := testManifest()
	m.Iterations = 0
	if _, err := c.Submit(context.Background(), m); err == nil {
		t.Fatal("invalid manifest accepted")
	}
	m = testManifest()
	m.User = ""
	if _, err := c.Submit(context.Background(), m); err == nil {
		t.Fatal("manifest without user accepted")
	}
}

func TestJobWithMissingDatasetFails(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	m := testManifest()
	m.DataBucket = "no-such-bucket"
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusFailed, 20*time.Second)
}

func TestStatusTransitionGuards(t *testing.T) {
	p := newTestPlatform(t, nil)
	now := p.clock.Now()
	doc := manifestToDoc(testManifest())
	doc["_id"] = "j-guard"
	doc["status"] = string(StatusCompleted)
	doc["history"] = []any{map[string]any{"status": string(StatusCompleted), "time": now.Format(time.RFC3339Nano)}}
	if _, err := p.Jobs.Insert(doc); err != nil {
		t.Fatal(err)
	}
	if err := p.setJobStatus("j-guard", StatusProcessing, "illegal"); err == nil {
		t.Fatal("terminal status was overwritten")
	}
	if _, err := p.Jobs.FindOne(mongo.Filter{"_id": "j-guard", "status": string(StatusCompleted)}); err != nil {
		t.Fatal("status changed despite guard")
	}
}

func TestMongoDocRoundTrip(t *testing.T) {
	m := testManifest()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	back := docToManifest(manifestToDoc(m))
	if back != m {
		t.Fatalf("manifest round trip mismatch:\n got %+v\nwant %+v", back, m)
	}
}

// TestDocToRecordSizesHistoryOnce pins the cost of decoding a job
// document: one allocation, the History slice sized to the document's
// history, however many entries it holds.
func TestDocToRecordSizesHistoryOnce(t *testing.T) {
	doc := manifestToDoc(testManifest())
	doc["_id"], doc["status"] = "j1", string(StatusProcessing)
	now := time.Unix(1700000000, 5).UTC()
	hist := make([]any, 8)
	for i := range hist {
		hist[i] = mongo.Doc{"status": string(StatusPending), "time": now.Add(time.Duration(i)).Format(time.RFC3339Nano), "message": "m"}
	}
	doc["history"] = hist
	rec := docToRecord(doc)
	if len(rec.History) != 8 || cap(rec.History) != 8 || !rec.History[7].Time.Equal(now.Add(7)) {
		t.Fatalf("History = %d entries (cap %d), last %v", len(rec.History), cap(rec.History), rec.History[len(rec.History)-1])
	}
	if n := testing.AllocsPerRun(100, func() { rec = docToRecord(doc) }); n != 1 {
		t.Fatalf("docToRecord of an 8-entry history made %.0f allocations, want 1", n)
	}
}

func TestGuardianPodTypeUsedForStartDelay(t *testing.T) {
	// Verify the platform passes pod types through to kube's start-delay
	// hook (Table 3's measurement path).
	seen := make(chan string, 64)
	p := newTestPlatform(t, func(c *Config) {
		c.StartDelay = func(podType string) time.Duration {
			select {
			case seen <- podType:
			default:
			}
			return 0
		}
	})
	c := p.Client()
	jobID, err := c.Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)
	types := map[string]bool{}
	for {
		select {
		case ty := <-seen:
			types[ty] = true
			continue
		default:
		}
		break
	}
	for _, want := range []string{PodTypeGuardian, PodTypeHelper, PodTypeLearner} {
		if !types[want] {
			t.Fatalf("start delay never saw pod type %s (saw %v)", want, types)
		}
	}
}

func TestNodeCrashJobRecovers(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 2e-5
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 400
	m.CheckpointEvery = 50
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, jobID, StatusProcessing, 20*time.Second)
	// Find the learner's node and crash it.
	pod, ok := p.Kube.Store().GetPod("learner-" + jobID + "-0")
	if !ok || pod.Status.Node == "" {
		t.Fatal("learner pod not running")
	}
	p.Kube.CrashNode(pod.Status.Node)
	// Eviction + stateful set recreate on the surviving node; the job
	// must complete. (The whole job may also be redeployed by the
	// guardian if the helper died with the node.)
	waitStatus(t, c, jobID, StatusCompleted, 40*time.Second)
	nodeFail, _ := p.Kube.DeletionStats()
	if nodeFail == 0 {
		t.Fatal("no node-failure deletions recorded")
	}
}

// TestWatchStatusDeliversTransitionsInOrderUnderAPICrash verifies the
// streaming status watch: every transition the job records must reach
// the watcher exactly once and in history order, even while API
// replicas crash and restart under the stream (the client reconnects
// through the balancer and resumes by sequence number).
func TestWatchStatusDeliversTransitionsInOrderUnderAPICrash(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	m := testManifest()
	m.Learners = 2
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch, stop, err := c.WatchStatus(ctx, jobID)
	if err != nil {
		t.Fatalf("WatchStatus: %v", err)
	}
	defer stop()

	var got []StatusEntry
	crashAt := map[int]int{1: 0, 3: 1} // crash replica 0 after 1 entry, replica 1 after 3
	for e := range ch {
		got = append(got, e)
		if idx, ok := crashAt[len(got)]; ok {
			if !p.CrashAPI(idx) {
				t.Fatalf("CrashAPI(%d) failed", idx)
			}
		}
		if e.Status.Terminal() {
			break
		}
	}
	if len(got) == 0 || got[len(got)-1].Status != StatusCompleted {
		t.Fatalf("stream ended with %+v", got)
	}

	reply, err := c.Status(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reply.History) {
		t.Fatalf("streamed %d transitions, history has %d\nstream: %+v\nhistory: %+v",
			len(got), len(reply.History), got, reply.History)
	}
	for i := range got {
		if got[i].Status != reply.History[i].Status {
			t.Fatalf("transition %d = %s, history has %s", i, got[i].Status, reply.History[i].Status)
		}
	}
	if got[0].Status != StatusPending {
		t.Fatalf("first transition = %s, want PENDING", got[0].Status)
	}
}

// TestEventDrivenControlPlanePollIndependence is the acceptance test for
// the event-driven refactor: with every control-loop interval cranked to
// 100ms on a simulated clock, a 2-learner job must still complete with
// end-to-end virtual latency dominated by the modeled container start
// delays (~15ms), not by ticker periods. A poll-driven control plane at
// the same intervals cannot finish in under one PollInterval — the
// helper and guardian alone would each burn at least one 100ms tick —
// so completing in < 100ms virtual proves no control-plane hop waits
// for a ticker.
func TestEventDrivenControlPlanePollIndependence(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	// Generous settle: virtual time only advances after 15ms of wall
	// quiescence, so raft commits and goroutine handoffs (wall-time
	// work) never masquerade as virtual delay.
	fc.StartAutoAdvance(15 * time.Millisecond)
	t.Cleanup(fc.StopAutoAdvance)

	cfg := Config{
		Clock:             fc,
		Seed:              11,
		PollInterval:      100 * time.Millisecond,
		RendezvousTimeout: 10 * time.Second,
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	t.Cleanup(p.Stop)
	for _, n := range []string{"node0", "node1"} {
		p.AddNode(n, "K80", 4, 32, 256<<10)
	}
	p.Store.EnsureBucket("datasets")
	if err := p.Store.Put("datasets", "mnist/shard-0", bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		t.Fatal(err)
	}

	c := p.Client()
	m := testManifest()
	m.Learners = 2
	start := fc.Now()
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	status, err := c.WaitForStatus(ctx, jobID, StatusCompleted, cfg.PollInterval)
	if err != nil || status != StatusCompleted {
		t.Fatalf("status = %v, err = %v", status, err)
	}
	elapsed := fc.Since(start)
	t.Logf("end-to-end virtual latency: %v (intervals all %v)", elapsed, cfg.PollInterval)
	if elapsed >= cfg.PollInterval {
		t.Fatalf("job took %v virtual — at least one control-plane hop waited for a %v ticker",
			elapsed, cfg.PollInterval)
	}
}

// TestWatchRefillsWhenLogCold pins the watch backlog's source: a job
// whose transitions never passed through this process's bus (committed
// by "another replica" straight to MongoDB) is refilled from the durable
// history.
func TestWatchRefillsWhenLogCold(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	const jobID = "training-cold"
	now := p.clock.Now().Format(time.RFC3339Nano)
	if _, err := p.Jobs.Insert(mongo.Doc{
		"_id": jobID, "name": "cold", "user": "carol",
		"status": string(StatusCompleted),
		"history": []any{
			map[string]any{"status": string(StatusPending), "time": now, "message": "m"},
			map[string]any{"status": string(StatusCompleted), "time": now, "message": "m"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, stop, err := c.WatchStatus(ctx, jobID)
	if err != nil {
		t.Fatalf("WatchStatus: %v", err)
	}
	defer stop()
	var got []StatusEntry
	for e := range ch {
		got = append(got, e)
	}
	if len(got) != 2 {
		t.Fatalf("refilled %d transitions, want 2", len(got))
	}
	if n := p.Obs.CounterValue("watch.refills"); n < 1 {
		t.Fatalf("watch.refills = %d, want >= 1", n)
	}
}

// TestFollowLogsResumesAcrossAPICrash is the acceptance test for
// offset-addressed log streaming: FollowLogs must deliver every line
// exactly once, in order, while API replicas crash under it — the
// job's log lives in the platform's commit log, and the stream resumes
// by offset, not by re-counting.
func TestFollowLogsResumesAcrossAPICrash(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 5e-5
	})
	c := p.Client()
	m := testManifest()
	m.Iterations = 2000
	jobID, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	lines := make(chan LogLine, 4096)
	go func() {
		c.FollowLogs(ctx, jobID, func(l LogLine) { lines <- l }) //nolint:errcheck
		close(lines)
	}()

	var got []LogLine
	crashed := 0
	for l := range lines {
		got = append(got, l)
		// Crash each replica once, mid-stream.
		if (len(got) == 3 || len(got) == 8) && crashed < 2 {
			if !p.CrashAPI(crashed) {
				t.Fatalf("CrashAPI(%d) failed", crashed)
			}
			crashed++
		}
		if len(got) >= 40 {
			cancel()
			break
		}
	}
	if crashed < 2 {
		t.Fatalf("only crashed %d replicas (stream too short: %d lines)", crashed, len(got))
	}
	// Exactly-once, in-order: offsets are minted contiguously per job,
	// so the collected stream must be exactly 0,1,2,... with no gap or
	// duplicate across the crash/reconnect seams.
	for i, l := range got {
		if l.Offset != uint64(i) {
			t.Fatalf("line %d has offset %d (gap or duplicate across reconnect)", i, l.Offset)
		}
	}
	c.Terminate(context.Background(), jobID) //nolint:errcheck
}

// openMetrics opens a MetricsService over a learner log on store.
func openMetrics(t *testing.T, store commitlog.SegmentStore) *MetricsService {
	t.Helper()
	l, err := commitlog.Open(store, commitlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewMetricsService(l, nil)
}

// TestLogsFromOffset pins the resumable read path over the one learner
// log: LogsFrom returns only lines at or past the requested offset, a
// record's lines included when the offset falls inside it, and each
// job's offsets are assigned contiguously per line at ingest even while
// jobs interleave in the log. A service reopened over the same store
// serves the same lines, and each job's next append continues its own
// count.
func TestLogsFromOffset(t *testing.T) {
	store := commitlog.NewMemStore()
	m := openMetrics(t, store)
	// j's ten lines arrive as runs of 1, 2, 3 and 4 lines, k's five one
	// at a time between them.
	j, k := 0, 0
	appendK := func(m *MetricsService) {
		m.AppendLog("k", 0, time.Unix(0, int64(k)), fmt.Appendf(nil, "k-%d\n", k))
		k++
	}
	for _, n := range []int{1, 2, 3, 4} {
		var run []byte
		for i := 0; i < n; i++ {
			run = fmt.Appendf(run, "j-%d\n", j+i)
		}
		m.AppendLog("j", 1, time.Unix(0, int64(j)), run)
		j += n
		appendK(m)
	}
	appendK(m)
	checkJob := func(m *MetricsService, jobID string, learner, n int) []LogLine {
		t.Helper()
		all := m.LogsFrom(jobID, 0)
		if len(all) != n {
			t.Fatalf("LogsFrom(%s, 0) = %d lines, want %d", jobID, len(all), n)
		}
		for i, l := range all {
			if l.JobID != jobID || l.Learner != learner || l.Offset != uint64(i) || l.Text != fmt.Sprintf("%s-%d", jobID, i) {
				t.Fatalf("%s line %d = (%s, %d, %d, %q), want learner %d, offset %d", jobID, i, l.JobID, l.Learner, l.Offset, l.Text, learner, i)
			}
		}
		return all
	}
	allJ, allK := checkJob(m, "j", 1, 10), checkJob(m, "k", 0, 5)
	// j's runs start at offsets 0, 1, 3 and 6; lines of one run share
	// its time.
	if !allJ[3].Time.Equal(time.Unix(0, 3)) || !allJ[5].Time.Equal(time.Unix(0, 3)) || !allJ[6].Time.Equal(time.Unix(0, 6)) {
		t.Fatalf("run times = %v, %v, %v; want 3, 3 and 6 ns", allJ[3].Time, allJ[5].Time, allJ[6].Time)
	}
	for _, from := range []uint64{4, 7} {
		tail := m.LogsFrom("j", from)
		if !reflect.DeepEqual(tail, allJ[from:]) {
			t.Fatalf("LogsFrom(%d) = %v, want %v", from, tail, allJ[from:])
		}
	}
	if out := m.LogsFrom("j", 42); len(out) != 0 {
		t.Fatalf("LogsFrom past the tail = %d lines, want 0", len(out))
	}
	if out := m.LogsFrom("unknown", 0); len(out) != 0 {
		t.Fatalf("LogsFrom(unknown) = %d lines, want 0", len(out))
	}

	m2 := openMetrics(t, store)
	if got := checkJob(m2, "j", 1, 10); !reflect.DeepEqual(got, allJ) {
		t.Fatalf("reopened j lines = %v, want %v", got, allJ)
	}
	if got := checkJob(m2, "k", 0, 5); !reflect.DeepEqual(got, allK) {
		t.Fatalf("reopened k lines = %v, want %v", got, allK)
	}
	appendK(m2)
	m2.AppendLog("j", 1, time.Time{}, []byte("j-10\nj-11\n"))
	checkJob(m2, "j", 1, 12)
	checkJob(m2, "k", 0, 6)
}

// TestOneLineRecordsReadAsBefore pins the older learner-log layout — a
// record per line, no '\n' ending its text — against the run layout: a
// log written in it reopens with the same lines, offsets, learners and
// times, a blank line included, and a run appended after them continues
// the job's offsets and its transcript.
func TestOneLineRecordsReadAsBefore(t *testing.T) {
	l, err := commitlog.Open(commitlog.NewMemStore(), commitlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"a", "", "b c"}
	for i, text := range texts {
		if _, err := l.Append("", encodeLogRecord(nil, "j", 2, uint64(i), time.Unix(0, int64(i)), []byte(text))); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMetricsService(l, nil)
	m.AppendLog("j", 3, time.Unix(0, 9), []byte("d\n\n"))
	want := []LogLine{
		{JobID: "j", Learner: 2, Offset: 0, Time: time.Unix(0, 0), Text: "a"},
		{JobID: "j", Learner: 2, Offset: 1, Time: time.Unix(0, 1), Text: ""},
		{JobID: "j", Learner: 2, Offset: 2, Time: time.Unix(0, 2), Text: "b c"},
		{JobID: "j", Learner: 3, Offset: 3, Time: time.Unix(0, 9), Text: "d"},
		{JobID: "j", Learner: 3, Offset: 4, Time: time.Unix(0, 9), Text: ""},
	}
	if got := m.LogsFrom("j", 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("lines = %v, want %v", got, want)
	}
	if got := m.LogsFrom("j", 2); !reflect.DeepEqual(got, want[2:]) {
		t.Fatalf("LogsFrom(2) = %v, want %v", got, want[2:])
	}
	if got := string(m.transcript("j")); got != "a\n\nb c\nd\n\n" {
		t.Fatalf("transcript = %q", got)
	}
}

// TestJobTrafficOnce pins what a job's life writes and who hands it to
// whom: the helper mirrors no exit codes into etcd, teardown is one
// prefix delete that leaves nothing behind, the PENDING bus event is
// the only deploy hand-off (no LCM.Deploy RPC exists), and the job
// document carries no write-only field.
func TestJobTrafficOnce(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	ws, err := p.Etcd.Watch("jobs/", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Cancel()
	// The watch spans two whole job lives, more than a stream's buffer,
	// so it is drained as events arrive, up to a sentinel put written
	// once both subtrees are gone.
	const sentinel = "jobs/~drained"
	type traffic struct {
		puts   int
		exit   string // an unread /exit key, if one was written
		closed bool   // closed by a leader change or an overflow
	}
	drained := make(chan traffic, 1)
	go func() {
		var tr traffic
		defer func() { drained <- tr }()
		for ev := range ws.Events() {
			if ev.Type != etcd.EventPut {
				continue
			}
			if ev.KV.Key == sentinel {
				return
			}
			tr.puts++
			if strings.HasSuffix(ev.KV.Key, "/exit") && tr.exit == "" {
				tr.exit = ev.KV.Key
			}
		}
		tr.closed = true
	}()

	var jobs []string
	for _, learners := range []int{1, 4} {
		m := testManifest()
		m.Learners = learners
		jobID, err := c.Submit(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, c, jobID, StatusCompleted, 30*time.Second)
		jobs = append(jobs, jobID)
	}
	// COMPLETED is recorded before teardown runs; wait for the subtrees
	// to go.
	for _, jobID := range jobs {
		waitUntil(t, "etcd subtree of "+jobID+" to be erased", 5*time.Second, func() bool {
			kvs, err := p.Etcd.List(keyJobPrefix(jobID))
			return err == nil && len(kvs) == 0
		})
	}
	if _, err := p.Etcd.Put(sentinel, nil, 0); err != nil {
		t.Fatal(err)
	}
	var tr traffic
	select {
	case tr = <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the jobs/ watch did not deliver the sentinel put within 5s")
	}
	if tr.closed {
		// A write may be missing from what was read.
		t.Fatalf("the jobs/ watch closed after %d puts", tr.puts)
	}
	if tr.exit != "" {
		t.Fatalf("unread key written: %s", tr.exit)
	}
	if tr.puts == 0 {
		t.Fatal("the jobs/ watch saw no writes at all")
	}

	before := p.Etcd.Stats().Commands
	p.teardownJob(jobs[0])
	if got := p.Etcd.Stats().Commands - before; got != 1 {
		t.Fatalf("teardownJob issued %d etcd commands, want 1", got)
	}

	lcm := rpc.NewBalancer(p.Registry, ServiceLCM)
	err = lcm.Call(context.Background(), "LCM.Deploy", JobArgs{JobID: jobs[0]}, nil)
	if err == nil || !strings.Contains(err.Error(), rpc.ErrMethodNotFound.Error()) {
		t.Fatalf("LCM.Deploy call: err = %v, want %v", err, rpc.ErrMethodNotFound)
	}

	doc, err := p.Jobs.FindOne(mongo.Filter{"_id": jobs[1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, has := doc["updated"]; has {
		t.Fatalf("job document carries the write-only \"updated\" field: %v", doc)
	}
}
