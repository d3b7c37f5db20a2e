package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

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
// faster than the dispatcher's resync interval.
func TestOverQuotaSubmissionQueuesAndDispatchesEventDriven(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	fc.StartAutoAdvance(15 * time.Millisecond)
	t.Cleanup(fc.StopAutoAdvance)

	resync := 300 * time.Second // dispatch must never wait for this
	cfg := Config{
		Clock:             fc,
		Seed:              7,
		PollInterval:      100 * time.Millisecond,
		SchedulerInterval: 100 * time.Millisecond,
		ResyncInterval:    100 * time.Millisecond,
		RendezvousTimeout: 10 * time.Second,
		Tenancy: &TenancyConfig{
			Quotas: []tenant.Record{
				{User: "alice", Tier: sched.TierPaid, GPUs: 4},
			},
			ResyncInterval: resync,
		},
	}
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
	// resync tick.
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
	t.Logf("dispatch latency after capacity freed: %v virtual (resync interval %v)", lat, resync)
	if lat >= resync/100 {
		t.Fatalf("dispatch took %v virtual — waited for something slower than events (resync %v)", lat, resync)
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
