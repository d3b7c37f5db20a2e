package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/tenant"
)

// waitUntil polls cond on the wall clock (RPC reads work regardless of
// the platform clock) until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func historyHas(history []StatusEntry, s JobStatus) bool {
	for _, h := range history {
		if h.Status == s {
			return true
		}
	}
	return false
}

// TestOverQuotaSubmissionQueuesAndDispatchesEventDriven is the tentpole
// acceptance test, on a simulated clock: an over-capacity submission is
// not rejected — it reaches QUEUED with a queue position, and when
// capacity frees it is dispatched event-driven, orders of magnitude
// faster than the dispatcher's PollInterval*10 retry delay.
func TestOverQuotaSubmissionQueuesAndDispatchesEventDriven(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	fc.StartAutoAdvance(15 * time.Millisecond)
	t.Cleanup(fc.StopAutoAdvance)

	cfg := Config{
		Clock:             fc,
		Seed:              7,
		PollInterval:      30 * time.Second,
		RendezvousTimeout: 10 * time.Second,
		Tenancy: &TenancyConfig{
			Quotas: []tenant.Record{
				{User: "alice", Tier: sched.TierPaid, GPUs: 4},
			},
		},
	}
	resync := cfg.PollInterval * 10 // the dispatcher's retry delay: dispatch must never wait for it
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	t.Cleanup(p.Stop)
	p.AddNode("node0", "K80", 4, 32, 256<<10)
	p.Store.EnsureBucket("datasets")
	if err := p.Store.Put("datasets", "mnist/shard-0", bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		t.Fatal(err)
	}

	c := p.Client()
	ctx := context.Background()
	m := testManifest()
	m.GPUsPerLearner = 4 // one job owns the whole 4-GPU budget

	j1, err := c.Submit(ctx, m)
	if err != nil {
		t.Fatalf("submit j1: %v", err)
	}
	// j1 is in quota: it must dispatch and start running.
	waitUntil(t, "j1 leaves the queue", 10*time.Second, func() bool {
		r, err := c.Status(ctx, j1)
		return err == nil && r.Status != StatusQueued
	})

	// j2 exceeds alice's quota with the budget consumed: it queues at
	// position 1 instead of being rejected.
	j2, err := c.Submit(ctx, m)
	if err != nil {
		t.Fatalf("over-quota submit was rejected: %v", err)
	}
	waitUntil(t, "j2 queued with a position", 10*time.Second, func() bool {
		r, err := c.Status(ctx, j2)
		return err == nil && r.Status == StatusQueued && r.QueuePos == 1
	})

	// Both jobs complete; j2 rides the capacity freed by j1.
	ctxWait, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	if st, err := c.WaitForStatus(ctxWait, j1, StatusCompleted, cfg.PollInterval); err != nil || st != StatusCompleted {
		t.Fatalf("j1 = %v, err %v", st, err)
	}
	if st, err := c.WaitForStatus(ctxWait, j2, StatusCompleted, cfg.PollInterval); err != nil || st != StatusCompleted {
		t.Fatalf("j2 = %v, err %v", st, err)
	}

	// Event-driven dispatch: j2's PENDING transition must land within a
	// sliver of j1's terminal transition in *virtual* time — not after a
	// timer.
	r1, _ := c.Status(ctx, j1)
	r2, _ := c.Status(ctx, j2)
	var j1Done, j2Pending time.Time
	for _, h := range r1.History {
		if h.Status == StatusCompleted {
			j1Done = h.Time
		}
	}
	for _, h := range r2.History {
		if h.Status == StatusPending {
			j2Pending = h.Time
		}
	}
	if j1Done.IsZero() || j2Pending.IsZero() {
		t.Fatalf("missing transitions: j1=%+v j2=%+v", r1.History, r2.History)
	}
	lat := j2Pending.Sub(j1Done)
	t.Logf("dispatch latency after capacity freed: %v virtual (retry delay %v)", lat, resync)
	if lat >= resync/100 {
		t.Fatalf("dispatch took %v virtual — waited for something slower than events (retry delay %v)", lat, resync)
	}
	if st := p.Dispatcher.Stats(); st.Dispatched != 2 {
		t.Fatalf("dispatcher stats = %+v, want 2 dispatches", st)
	}
}

// TestPreemptionCheckpointsRequeuesAndResumes drives the §3.6 story end
// to end: a free-tier job holding the cluster is checkpointed and
// halted when the quota owner's in-quota job arrives, requeued at the
// head, resumed from its checkpoint once capacity frees, and completes.
func TestPreemptionCheckpointsRequeuesAndResumes(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 2e-3 // the free job must actually hold GPUs a while
		c.Tenancy = &TenancyConfig{
			Quotas: []tenant.Record{
				{User: "freeloader", Tier: sched.TierFree, GPUs: 1},
				{User: "payer", Tier: sched.TierPaid, GPUs: 8},
			},
		}
	})
	c := p.Client()
	ctx := context.Background()

	mf := testManifest()
	mf.User = "freeloader"
	mf.Learners = 2
	mf.GPUsPerLearner = 4 // the whole 8-GPU cluster, far over quota
	mf.Iterations = 200
	mf.CheckpointEvery = 10
	free, err := c.Submit(ctx, mf)
	if err != nil {
		t.Fatalf("submit free job: %v", err)
	}
	// Wait until the free job has real progress behind a checkpoint, so
	// the preemption provably resumes from it.
	waitUntil(t, "free job checkpointed", 20*time.Second, func() bool {
		objs, err := p.Store.List("ffdl-results", free+"/checkpoints/")
		return err == nil && len(objs) > 0
	})

	mp := testManifest()
	mp.User = "payer"
	mp.Learners = 2
	mp.GPUsPerLearner = 4 // in quota for payer
	paid, err := c.Submit(ctx, mp)
	if err != nil {
		t.Fatalf("submit paid job: %v", err)
	}

	// The free job is checkpoint-halted to make room.
	waitUntil(t, "free job halted by preemption", 20*time.Second, func() bool {
		r, err := c.Status(ctx, free)
		return err == nil && (r.Status == StatusHalted || historyHas(r.History, StatusHalted))
	})
	waitStatus(t, c, paid, StatusCompleted, 60*time.Second)

	// The victim resumes from its checkpoint and completes.
	waitStatus(t, c, free, StatusCompleted, 60*time.Second)
	r, err := c.Status(ctx, free)
	if err != nil {
		t.Fatal(err)
	}
	if !historyHas(r.History, StatusHalted) || !historyHas(r.History, StatusResumed) {
		t.Fatalf("victim history missing HALTED/RESUMED: %+v", r.History)
	}
	logs, _ := c.Logs(ctx, free)
	resumed := false
	for _, l := range logs {
		if strings.Contains(l.Text, "resuming from checkpoint") {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Fatal("victim did not resume from a checkpoint")
	}
	st := p.Dispatcher.Stats()
	if st.Preempted == 0 || st.Requeued == 0 || st.Resumed == 0 {
		t.Fatalf("dispatcher stats = %+v, want preempt/requeue/resume all nonzero", st)
	}
	if p.Admission.Preemptions() == 0 {
		t.Fatal("admission controller counted no preemptions")
	}
	// All footprints released at the end.
	waitUntil(t, "admission drained", 10*time.Second, func() bool {
		return p.Admission.AdmittedGPUs() == 0
	})
}

// TestQuotaAPIRoundTrip exercises Client.Quota/SetQuota/Tenants and the
// dispatcher picking up a runtime quota write.
func TestQuotaAPIRoundTrip(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.Tenancy = &TenancyConfig{
			Quotas: []tenant.Record{{User: "alice", Tier: sched.TierPaid, GPUs: 4}},
		}
	})
	c := p.Client()
	ctx := context.Background()

	rec, inUse, err := c.Quota(ctx, "alice")
	if err != nil || rec.GPUs != 4 || rec.Tier != sched.TierPaid || inUse != 0 {
		t.Fatalf("Quota(alice) = %+v inUse=%d err=%v", rec, inUse, err)
	}
	if _, _, err := c.Quota(ctx, "nobody"); err == nil {
		t.Fatal("Quota for unknown tenant succeeded")
	}
	// A user without a tenant record cannot submit.
	m := testManifest()
	m.User = "bob"
	if _, err := c.Submit(ctx, m); err == nil {
		t.Fatal("submit without tenant record accepted")
	}
	if err := c.SetQuota(ctx, tenant.Record{User: "bob", Tier: sched.TierFree, GPUs: 2}); err != nil {
		t.Fatal(err)
	}
	list, err := c.Tenants(ctx)
	if err != nil || len(list) != 2 {
		t.Fatalf("Tenants = %+v err=%v", list, err)
	}
	// The quota reaches the admission controller with the write.
	if q, ok := p.Admission.Quota("bob"); !ok || q.GPUs != 2 {
		t.Fatalf("admission quota after SetQuota = %+v %v, want 2 GPUs", q, ok)
	}
	// And bob can now run a job end to end through the queue.
	jobID, err := c.Submit(ctx, m)
	if err != nil {
		t.Fatalf("submit after quota: %v", err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 30*time.Second)
}

// TestTenantCallsDegradeDuringOutage: with the metadata store down,
// the tenant calls answer with the retryable degraded error — never
// "no such tenant" or an empty list — and answer again after the heal.
func TestTenantCallsDegradeDuringOutage(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.Tenancy = &TenancyConfig{
			Quotas: []tenant.Record{{User: "alice", Tier: sched.TierPaid, GPUs: 4}},
		}
	})
	c := p.Client()
	ctx := context.Background()

	p.Mongo.SetUnavailable(true)
	if _, _, err := c.Quota(ctx, "alice"); !IsDegraded(err) {
		t.Fatalf("Quota during the outage err = %v, want degraded", err)
	}
	if recs, err := c.Tenants(ctx); !IsDegraded(err) {
		t.Fatalf("Tenants during the outage = %+v, err %v; want degraded", recs, err)
	}
	if err := c.SetQuota(ctx, tenant.Record{User: "bob", Tier: sched.TierFree, GPUs: 1}); !IsDegraded(err) {
		t.Fatalf("SetQuota during the outage err = %v, want degraded", err)
	}

	p.Mongo.SetUnavailable(false)
	waitUntil(t, "Quota answers after the heal", 5*time.Second, func() bool {
		rec, _, err := c.Quota(ctx, "alice")
		if err != nil && !IsDegraded(err) {
			t.Fatalf("post-heal Quota failed non-degraded: %v", err)
		}
		return err == nil && rec.GPUs == 4
	})
}

// TestCapacityPumpAddsNoWaiter: the tenancy capacity pump follows node
// capacity on its watch alone, holding no clock waiter.
func TestCapacityPumpAddsNoWaiter(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	adm := sched.NewAdmission(0)
	p := &Platform{
		Kube:       kube.NewCluster(kube.Config{Clock: fc}),
		Dispatcher: tenant.NewDispatcher(tenant.Config{Clock: fc, Admission: adm}), // not started
		stopCh:     make(chan struct{}),
	}
	t.Cleanup(p.Kube.Stop)
	p.Kube.AddNode("node0", "K80", sched.Resources{MilliCPU: 16000, MemoryMB: 96000, GPUs: 4})
	const kubeWaiters = 2 // the lease renewal loop and the node controller
	waitUntil(t, "kube timers", 3*time.Second, func() bool { return fc.WaiterCount() == kubeWaiters })

	done := make(chan struct{})
	go func() { defer close(done); p.nodeCapacityLoop() }()
	t.Cleanup(func() { close(p.stopCh); <-done })
	waitUntil(t, "budget from node0", 3*time.Second, func() bool { return adm.ClusterCap() == 4 })
	p.Kube.Store().UpdateNode("node0", func(n *kube.Node) { n.Capacity.GPUs = 8 })
	waitUntil(t, "budget after the resize", 3*time.Second, func() bool { return adm.ClusterCap() == 8 })
	if n := fc.WaiterCount(); n != kubeWaiters {
		t.Fatalf("%d clock waiters with the pump running, want the kube's %d", n, kubeWaiters)
	}
}

// TestCapacityPumpFollowsNodeReadiness: the admission budget counts
// schedulable GPUs, so a node whose lease expires leaves it and comes
// back when the node is Ready again.
func TestCapacityPumpFollowsNodeReadiness(t *testing.T) {
	adm := sched.NewAdmission(0)
	p := &Platform{
		Kube:       kube.NewCluster(kube.Config{}),
		Dispatcher: tenant.NewDispatcher(tenant.Config{Admission: adm}), // not started
		stopCh:     make(chan struct{}),
	}
	t.Cleanup(p.Kube.Stop)
	for _, name := range []string{"node0", "node1"} {
		p.Kube.AddNode(name, "K80", sched.Resources{MilliCPU: 16000, MemoryMB: 96000, GPUs: 4})
	}
	done := make(chan struct{})
	go func() { defer close(done); p.nodeCapacityLoop() }()
	t.Cleanup(func() { close(p.stopCh); <-done })
	waitUntil(t, "budget from both nodes", 3*time.Second, func() bool { return adm.ClusterCap() == 8 })
	p.Kube.CrashNode("node1")
	waitUntil(t, "budget without the crashed node", 3*time.Second, func() bool { return adm.ClusterCap() == 4 })
	p.Kube.RestoreNode("node1")
	waitUntil(t, "budget after the restore", 3*time.Second, func() bool { return adm.ClusterCap() == 8 })
}

// aliceTenancy gives alice the whole 4-GPU node of a FakeClock platform.
func aliceTenancy(c *Config) {
	c.Tenancy = &TenancyConfig{Quotas: []tenant.Record{{User: "alice", Tier: sched.TierPaid, GPUs: 4}}}
}

// detachAllJobsSubscribers detaches every all-jobs subscriber of the
// status bus, as the bus does when it closes them, but leaves their
// channels open: what is published now reaches none of them.
func detachAllJobsSubscribers(p *Platform) []chan StatusEvent {
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	detached := p.bus.subs[""]
	delete(p.bus.subs, "")
	return detached
}

// haltRunningJob submits a job that runs until terminated, halts it and
// waits until the dispatcher has released its footprint.
func haltRunningJob(t *testing.T, p *Platform, c *Client) string {
	t.Helper()
	ctx := context.Background()
	m := testManifest()
	m.Iterations, m.CheckpointEvery = 1<<30, 0 // runs until terminated
	id, err := c.Submit(ctx, m)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, id, StatusProcessing, 20*time.Second)
	if err := c.Halt(ctx, id); err != nil {
		t.Fatalf("Halt: %v", err)
	}
	waitStatus(t, c, id, StatusHalted, 20*time.Second)
	waitUntil(t, "the halted job's footprint released", 5*time.Second, func() bool { return !p.Admission.Holds(id) })
	return id
}

// terminateReleases terminates a job and waits until its footprint is
// released.
func terminateReleases(t *testing.T, p *Platform, c *Client, id string) {
	t.Helper()
	if err := c.Terminate(context.Background(), id); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	waitStatus(t, c, id, StatusCanceled, 20*time.Second)
	waitUntil(t, "the footprint released at the end", 5*time.Second, func() bool { return !p.Admission.Holds(id) })
}

// TestFailedResumedReadRestoresFootprint: the store went down between
// a user's resume landing and the status pump reading the job for its
// RESUMED event. The running job must not stay without its admission
// footprint: the failed read arms the dispatcher's retry, whose resync
// lists the job running and restores the footprint once the store
// answers.
func TestFailedResumedReadRestoresFootprint(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, aliceTenancy)
	fc.StartAutoAdvance(5 * time.Millisecond)
	c := p.Client()
	ctx := context.Background()
	id := haltRunningJob(t, p, c)

	// The window between the Guardian's RESUMED write and the pump's read
	// is too narrow to hit with a real outage, so the all-jobs
	// subscribers miss the resume and are handed its RESUMED event once
	// the store is down.
	detached := detachAllJobsSubscribers(p)
	if err := c.Resume(ctx, id); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitStatus(t, c, id, StatusResumed, 20*time.Second)
	r, err := c.Status(ctx, id)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	ev := StatusEvent{JobID: id}
	for i, h := range r.History {
		if h.Status == StatusResumed {
			ev.StatusItem = StatusItem{Seq: i + 1, Entry: h}
		}
	}
	p.Mongo.SetUnavailable(true)
	for _, ch := range detached {
		ch <- ev
	}
	p.bus.mu.Lock()
	p.bus.subs[""] = append(p.bus.subs[""], detached...)
	p.bus.mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	if p.Admission.Holds(id) {
		t.Fatal("footprint restored while the store was down")
	}
	p.Mongo.SetUnavailable(false)
	waitUntil(t, "the footprint restored once the store answers", 10*time.Second, func() bool { return p.Admission.Holds(id) })
	terminateReleases(t, p, c, id)
}

// TestSkippedResumedEventRestoresFootprint: the status bus closed the
// tenancy pump's subscription, and the event it skipped was a user's
// resume. The resync that answers the close lists the job running and
// restores its footprint.
func TestSkippedResumedEventRestoresFootprint(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, aliceTenancy)
	fc.StartAutoAdvance(5 * time.Millisecond)
	c := p.Client()
	id := haltRunningJob(t, p, c)

	detached := detachAllJobsSubscribers(p)
	if err := c.Resume(context.Background(), id); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitStatus(t, c, id, StatusResumed, 20*time.Second)
	time.Sleep(20 * time.Millisecond)
	if p.Admission.Holds(id) {
		t.Fatal("the pump saw the skipped RESUMED event")
	}
	for _, ch := range detached {
		close(ch)
	}
	waitUntil(t, "the footprint restored by the resync", 10*time.Second, func() bool { return p.Admission.Holds(id) })
	terminateReleases(t, p, c, id)
}

// TestUserResumeClearsTheMarkerOfAHaltedVictim: a user's resume takes a
// HALTED victim out of the dispatcher's hands by clearing its
// preemption marker before the resume goes out. A resume the LCM does
// not take marks the victim again, so a resync still requeues it, and a
// resume of a job still running leaves the marker to the halt in flight.
func TestUserResumeClearsTheMarkerOfAHaltedVictim(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, aliceTenancy)
	fc.StartAutoAdvance(5 * time.Millisecond)
	c := p.Client()
	id := haltRunningJob(t, p, c)
	marked := func() bool {
		t.Helper()
		doc, err := p.Jobs.FindOne(mongo.Filter{"_id": id})
		if err != nil {
			t.Fatalf("FindOne: %v", err)
		}
		on, _ := doc["preempted"].(bool)
		return on
	}
	resume := p.apis[0].control(controlResume)
	if err := p.markPreempted(id, true); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := resume(canceled, JobArgs{JobID: id}); err == nil {
		t.Fatal("a resume under a canceled context went out")
	}
	if !marked() {
		t.Fatal("a resume that failed left the halted victim unmarked")
	}
	if _, err := resume(context.Background(), JobArgs{JobID: id}); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if marked() {
		t.Fatal("a resume that went out left the victim marked")
	}
	waitStatus(t, c, id, StatusResumed, 20*time.Second)
	waitUntil(t, "the resumed job's footprint", 5*time.Second, func() bool { return p.Admission.Holds(id) })

	if err := p.markPreempted(id, true); err != nil {
		t.Fatal(err)
	}
	if _, err := resume(context.Background(), JobArgs{JobID: id}); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !marked() {
		t.Fatal("a resume of a running job cleared its marker")
	}
	terminateReleases(t, p, c, id)
}

// TestRunningJobKeepsFootprintAcrossReopen: a tenancy platform on a
// DataDir stops while a job runs. The reopened platform's boot resync
// lists the job and restores its footprint before any node has joined,
// so the budget does not refuse it, and the LCM redeploys it.
func TestRunningJobKeepsFootprintAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	tenancy := func(c *Config) {
		c.DataDir = dir
		c.Tenancy = &TenancyConfig{Quotas: []tenant.Record{{User: "alice", Tier: sched.TierPaid, GPUs: 8}}}
	}
	p := newTestPlatform(t, tenancy)
	c := p.Client()
	m := testManifest()
	m.GPUsPerLearner, m.Iterations, m.CheckpointEvery = 4, 1<<30, 0 // runs until terminated
	id, err := c.Submit(context.Background(), m)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, id, StatusProcessing, 20*time.Second)
	if got := p.Admission.Usage("alice"); got != 4 {
		t.Fatalf("Usage(alice) = %d before the stop, want 4", got)
	}
	p.Stop()

	p2 := newTestPlatform(t, tenancy)
	if got := p2.Admission.Usage("alice"); got != 4 || !p2.Admission.Holds(id) {
		t.Fatalf("after reopen: Usage(alice) = %d, Holds = %v, want the running job's 4", got, p2.Admission.Holds(id))
	}
	c2 := p2.Client()
	waitStatus(t, c2, id, StatusProcessing, 20*time.Second)
	terminateReleases(t, p2, c2, id)
}

// TestClosedStatusSubscriptionResyncsDispatcher: the status bus closed
// the tenancy pump's subscription, and the events it skipped were a
// running job's terminal transition and a new job's QUEUED one. The
// pump answers the close with one dispatcher resync, which releases the
// terminal job's footprint and dispatches the queued job. The clock
// stands still meanwhile, so no timer can do it instead.
func TestClosedStatusSubscriptionResyncsDispatcher(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, aliceTenancy)
	fc.StartAutoAdvance(5 * time.Millisecond)
	c := p.Client()
	ctx := context.Background()
	long := testManifest()
	long.GPUsPerLearner, long.Iterations, long.CheckpointEvery = 4, 1<<30, 0
	a, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, a, StatusProcessing, 20*time.Second)
	fc.StopAutoAdvance()
	start, resyncs := fc.Now(), p.Dispatcher.Stats().Resyncs

	// Detach every all-jobs subscriber, as the bus does when it closes
	// them, but leave their channels open: what is published now
	// reaches none of them.
	p.bus.mu.Lock()
	detached := p.bus.subs[""]
	delete(p.bus.subs, "")
	p.bus.mu.Unlock()
	if err := c.Terminate(ctx, a); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	waitStatus(t, c, a, StatusCanceled, 20*time.Second)
	short := testManifest()
	short.GPUsPerLearner = 4
	b, err := c.Submit(ctx, short)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r, err := c.Status(ctx, b); err != nil || r.Status != StatusQueued {
		t.Fatalf("b = %+v (err %v), want QUEUED", r.Status, err)
	}
	time.Sleep(20 * time.Millisecond)
	if !p.Admission.Holds(a) || p.Dispatcher.QueueDepth() != 0 {
		t.Fatalf("Holds(a)=%v queue depth %d: the pump saw a skipped event", p.Admission.Holds(a), p.Dispatcher.QueueDepth())
	}

	for _, ch := range detached {
		close(ch)
	}
	waitStatus(t, c, b, StatusPending, 10*time.Second)
	if p.Admission.Holds(a) {
		t.Fatal("the resync kept the terminal job's footprint")
	}
	if n := p.Dispatcher.Stats().Resyncs - resyncs; n != 1 {
		t.Fatalf("%d resyncs after the close, want 1", n)
	}
	if !fc.Now().Equal(start) {
		t.Fatalf("the clock moved %v", fc.Since(start))
	}
	fc.StartAutoAdvance(5 * time.Millisecond)
	waitStatus(t, c, b, StatusCompleted, 30*time.Second)
}
