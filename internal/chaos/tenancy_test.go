package chaos

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/tenant"
)

// TestPreemptionSurvivesLCMFailover runs the §3.6 preemption story with
// every LCM replica crashing at the worst moment — right as the
// dispatcher issues the checkpoint-halt. The halt RPC may be lost
// entirely; its failure arms the dispatcher's retry, whose resync must
// re-issue it once an LCM replica is back, the victim still requeues
// and resumes, and both jobs complete. This pins that preemption is
// level-triggered, not a fire-and-forget edge.
func TestPreemptionSurvivesLCMFailover(t *testing.T) {
	p, err := core.NewPlatform(core.Config{
		Seed:            23,
		PollInterval:    2 * time.Millisecond,
		LCMRestartDelay: 40 * time.Millisecond,
		TimeCompression: 2e-3,
		Tenancy: &core.TenancyConfig{
			Quotas: []tenant.Record{
				{User: "freeloader", Tier: sched.TierFree, GPUs: 1},
				{User: "payer", Tier: sched.TierPaid, GPUs: 8},
			},
		},
	})
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
	ctx := context.Background()
	manifest := func(user string) core.Manifest {
		return core.Manifest{
			Name: user + "-job", User: user,
			Framework: "Caffe", Model: "VGG-16",
			Learners: 2, GPUsPerLearner: 4, GPUType: "K80",
			BatchSize: 64, Iterations: 200, CheckpointEvery: 10,
			DataBucket: "datasets", DataPrefix: "mnist/",
			Command: "caffe train",
		}
	}

	free, err := c.Submit(ctx, manifest("freeloader"))
	if err != nil {
		t.Fatalf("submit free job: %v", err)
	}
	// Let it make checkpointed progress.
	deadline := time.Now().Add(20 * time.Second)
	for {
		objs, err := p.Store.List("ffdl-results", free+"/checkpoints/")
		if err == nil && len(objs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("free job never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill every LCM replica, then immediately submit the in-quota job:
	// the dispatcher's Preempt call races the outage.
	p.CrashLCM(0)
	p.CrashLCM(1)
	paid, err := c.Submit(ctx, manifest("payer"))
	if err != nil {
		t.Fatalf("submit paid job: %v", err)
	}

	waitCompleted := func(id string) {
		t.Helper()
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		st, err := c.WaitForStatus(wctx, id, core.StatusCompleted, 2*time.Millisecond)
		if err != nil || st != core.StatusCompleted {
			t.Fatalf("job %s = %v, err %v", id, st, err)
		}
	}
	waitCompleted(paid)
	waitCompleted(free)

	r, err := c.Status(ctx, free)
	if err != nil {
		t.Fatal(err)
	}
	halted, resumed := false, false
	for _, h := range r.History {
		switch h.Status {
		case core.StatusHalted:
			halted = true
		case core.StatusResumed:
			resumed = true
		}
	}
	if !halted || !resumed {
		t.Fatalf("victim history missing HALTED/RESUMED across LCM failover: %+v", r.History)
	}
	if st := p.Dispatcher.Stats(); st.Preempted == 0 || st.Resumed == 0 {
		t.Fatalf("dispatcher stats = %+v", st)
	}
}
