package expt

import (
	"context"
	"fmt"
	"time"

	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/tenant"
)

// The multi-tenant experiment: the repo's own measurement of the tenant
// subsystem (queued admission, fair-share dispatch, checkpoint
// preemption — §3.6). It boots a full platform on a simulated clock,
// floods it with free-tier jobs that run far over their quotas, then
// has paid users reclaim their entitlements. The headline is
// Fig-3-style queue-delay accounting — the fraction of jobs queued
// beyond the paper's 15-minute satisfaction threshold, split by tier —
// plus preemption/requeue/resume counts: paid in-quota work dispatches
// promptly because the dispatcher checkpoints free-tier victims for it,
// while the free tier absorbs the queueing.

// MultiTenantConfig parameterizes one run.
type MultiTenantConfig struct {
	// Nodes is the number of 4-GPU K80 nodes. Default 2 (8 GPUs).
	Nodes int
	// FreeUsers / PaidUsers are the tenant mix. Defaults 2 / 2.
	FreeUsers int
	PaidUsers int
	// FreeJobsPerUser / PaidJobsPerUser shape the workload. The free
	// defaults exactly saturate the cluster (every free job runs, over
	// quota, when the paid wave arrives — the §3.6 preemption setup);
	// the paid wave then exceeds capacity so its tail queues. Defaults
	// 1 / 2.
	FreeJobsPerUser int
	PaidJobsPerUser int
	// GPUsPerJob sizes each single-learner job. Default 4.
	GPUsPerJob int
	// FreeQuota / PaidQuota are the per-tier GPU entitlements.
	// Defaults 1 / 8 — free users always run over quota (preemptible),
	// paid users' jobs are in quota (may preempt).
	FreeQuota int
	PaidQuota int
	// Iterations per job; with TimeCompression below each iteration is
	// minutes of virtual time. Default 6 (~20 virtual minutes per job).
	Iterations int
	// Seed drives platform randomness.
	Seed int64
	// SettleWall is the FakeClock auto-advance quiescence window (wall
	// time); raise it on slow machines. Default 10ms.
	SettleWall time.Duration
	// Timeout bounds the whole run in wall time. Default 120s.
	Timeout time.Duration
	// DisablePreemption runs the ablation: starved in-quota work waits.
	DisablePreemption bool
}

func (c *MultiTenantConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.FreeUsers <= 0 {
		c.FreeUsers = 2
	}
	if c.PaidUsers <= 0 {
		c.PaidUsers = 2
	}
	if c.FreeJobsPerUser <= 0 {
		c.FreeJobsPerUser = 1
	}
	if c.PaidJobsPerUser <= 0 {
		c.PaidJobsPerUser = 2
	}
	if c.GPUsPerJob <= 0 {
		c.GPUsPerJob = 4
	}
	if c.FreeQuota <= 0 {
		c.FreeQuota = 1
	}
	if c.PaidQuota <= 0 {
		c.PaidQuota = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SettleWall <= 0 {
		c.SettleWall = 10 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
}

// MultiTenantResult reports one run.
type MultiTenantResult struct {
	Nodes       int    `json:"nodes"`
	GPUs        int    `json:"gpus"`
	FreeUsers   int    `json:"free_users"`
	PaidUsers   int    `json:"paid_users"`
	Jobs        int    `json:"jobs"`
	Preemption  bool   `json:"preemption_enabled"`
	Completed   int    `json:"completed"`
	Preemptions int64  `json:"preemptions"`
	Requeues    uint64 `json:"requeues"`
	Resumes     uint64 `json:"resumes"`
	Dispatches  uint64 `json:"dispatches"`
	// QueuedOver15MinFree/Paid count jobs whose initial dispatch waited
	// beyond the paper's 15-minute threshold, by tier; the Pct fields
	// normalize by that tier's job count (Fig. 3's metric).
	QueuedOver15MinFree int     `json:"queued_over_15min_free"`
	QueuedOver15MinPaid int     `json:"queued_over_15min_paid"`
	QueuedPctFree       float64 `json:"queued_pct_free"`
	QueuedPctPaid       float64 `json:"queued_pct_paid"`
	MeanDelayMinFree    float64 `json:"mean_queue_delay_min_free"`
	MeanDelayMinPaid    float64 `json:"mean_queue_delay_min_paid"`
	MaxDelayMin         float64 `json:"max_queue_delay_min"`
	VirtualMinutes      float64 `json:"virtual_minutes"`
	WallSeconds         float64 `json:"wall_seconds"`
}

// MultiTenant runs the experiment once.
func MultiTenant(cfg MultiTenantConfig) (MultiTenantResult, error) {
	cfg.defaults()
	res := MultiTenantResult{
		Nodes: cfg.Nodes, GPUs: cfg.Nodes * 4,
		FreeUsers: cfg.FreeUsers, PaidUsers: cfg.PaidUsers,
		Jobs:       cfg.FreeUsers*cfg.FreeJobsPerUser + cfg.PaidUsers*cfg.PaidJobsPerUser,
		Preemption: !cfg.DisablePreemption,
	}
	wallStart := time.Now()

	pcfg, fc := simConfig(cfg.Seed, cfg.SettleWall)
	defer fc.StopAutoAdvance()

	var quotas []tenant.Record
	freeUsers := make([]string, cfg.FreeUsers)
	paidUsers := make([]string, cfg.PaidUsers)
	for i := range freeUsers {
		freeUsers[i] = fmt.Sprintf("free-%d", i)
		quotas = append(quotas, tenant.Record{User: freeUsers[i], Tier: sched.TierFree, GPUs: cfg.FreeQuota})
	}
	for i := range paidUsers {
		paidUsers[i] = fmt.Sprintf("paid-%d", i)
		quotas = append(quotas, tenant.Record{User: paidUsers[i], Tier: sched.TierPaid, GPUs: cfg.PaidQuota})
	}

	// Each modeled training second costs 600 virtual clock seconds, so
	// one iteration is minutes of virtual time and queue delays land on
	// the scale of Fig. 3's 15-minute threshold.
	pcfg.TimeCompression = 600
	pcfg.Tenancy = &core.TenancyConfig{
		Quotas:            quotas,
		DisablePreemption: cfg.DisablePreemption,
	}
	p, err := core.NewPlatform(pcfg)
	if err != nil {
		return res, err
	}
	defer p.Stop()
	for i := 0; i < cfg.Nodes; i++ {
		p.AddNode(fmt.Sprintf("node-%02d", i), "K80", 4, 40, 512<<10)
	}
	p.Store.EnsureBucket("datasets")
	if err := p.Store.Put("datasets", "data/shard-0", make([]byte, 1<<20)); err != nil {
		return res, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	c := p.Client()
	virtualStart := fc.Now()

	manifest := func(user string, i int) core.Manifest {
		return core.Manifest{
			Name: fmt.Sprintf("%s-job-%d", user, i), User: user,
			Framework: perf.Caffe, Model: perf.VGG16,
			Learners: 1, GPUsPerLearner: cfg.GPUsPerJob, GPUType: perf.K80,
			BatchSize: 64, Iterations: cfg.Iterations, CheckpointEvery: 2,
			DataBucket: "datasets", DataPrefix: "data/",
			Command: "caffe train -solver solver.prototxt",
		}
	}

	// Phase 1: the free tier floods the cluster, far over quota.
	var jobIDs []string
	tierOf := make(map[string]sched.Tier)
	for _, u := range freeUsers {
		for i := 0; i < cfg.FreeJobsPerUser; i++ {
			id, err := c.Submit(ctx, manifest(u, i))
			if err != nil {
				return res, fmt.Errorf("submit %s job %d: %w", u, i, err)
			}
			jobIDs = append(jobIDs, id)
			tierOf[id] = sched.TierFree
		}
	}
	// Give the free tier a head start so paid arrivals find it running.
	fc.Sleep(time.Minute)

	// Phase 2: the quota owners return and reclaim their entitlements.
	for _, u := range paidUsers {
		for i := 0; i < cfg.PaidJobsPerUser; i++ {
			id, err := c.Submit(ctx, manifest(u, i))
			if err != nil {
				return res, fmt.Errorf("submit %s job %d: %w", u, i, err)
			}
			jobIDs = append(jobIDs, id)
			tierOf[id] = sched.TierPaid
		}
	}

	// Drain: every job must reach a terminal status.
	for _, id := range jobIDs {
		st, err := c.WaitForStatus(ctx, id, core.StatusCompleted, time.Minute)
		if err != nil {
			return res, fmt.Errorf("wait %s: %w", id, err)
		}
		if st == core.StatusCompleted {
			res.Completed++
		}
	}

	res.Preemptions = p.Admission.Preemptions()
	st := p.Dispatcher.Stats()
	res.Requeues = st.Requeued
	res.Resumes = st.Resumed
	res.Dispatches = st.Dispatched

	// Read before the history reads below, which advance the simulated
	// clock.
	res.VirtualMinutes = fc.Since(virtualStart).Minutes()

	// Fig-3-style accounting over initial dispatch delays, by tier: each
	// job's first PENDING entry (its admission) minus its QUEUED
	// submission. Requeue delays after a preemption are preemption cost,
	// not admission delay, and are not counted.
	jobs, err := c.List(ctx, "")
	if err != nil {
		return res, fmt.Errorf("list jobs: %w", err)
	}
	freeJobs, paidJobs := 0, 0
	var freeSum, paidSum time.Duration
	for _, j := range jobs {
		queued, ok := admissionDelay(j.History)
		if !ok {
			continue
		}
		if m := queued.Minutes(); m > res.MaxDelayMin {
			res.MaxDelayMin = m
		}
		switch tierOf[j.ID] {
		case sched.TierFree:
			freeJobs++
			freeSum += queued
			if queued > 15*time.Minute {
				res.QueuedOver15MinFree++
			}
		case sched.TierPaid:
			paidJobs++
			paidSum += queued
			if queued > 15*time.Minute {
				res.QueuedOver15MinPaid++
			}
		}
	}
	if freeJobs > 0 {
		res.QueuedPctFree = 100 * float64(res.QueuedOver15MinFree) / float64(freeJobs)
		res.MeanDelayMinFree = freeSum.Minutes() / float64(freeJobs)
	}
	if paidJobs > 0 {
		res.QueuedPctPaid = 100 * float64(res.QueuedOver15MinPaid) / float64(paidJobs)
		res.MeanDelayMinPaid = paidSum.Minutes() / float64(paidJobs)
	}
	res.WallSeconds = time.Since(wallStart).Seconds()
	return res, nil
}

// admissionDelay is how long a job waited between its QUEUED
// submission (History[0]) and its first admission (its first PENDING
// entry); false if it was never admitted.
func admissionDelay(history []core.StatusEntry) (time.Duration, bool) {
	for _, e := range history {
		if e.Status == core.StatusPending {
			return e.Time.Sub(history[0].Time), true
		}
	}
	return 0, false
}

// RenderMultiTenant formats results as a table.
func RenderMultiTenant(results []MultiTenantResult) *Table {
	t := &Table{
		Title: "Multi-tenant: queue delay (>15 min, Fig. 3 metric) and preemption under a mixed free/paid workload",
		Header: []string{"Preemption", "GPUs", "Jobs", "Completed", "Preempted", "Requeued", "Resumed",
			"Free >15min", "Paid >15min", "Free mean (min)", "Paid mean (min)", "Virtual (min)"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%v", r.Preemption), fmt.Sprintf("%d", r.GPUs),
			fmt.Sprintf("%d", r.Jobs), fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Preemptions), fmt.Sprintf("%d", r.Requeues),
			fmt.Sprintf("%d", r.Resumes),
			fmt.Sprintf("%.0f%%", r.QueuedPctFree), fmt.Sprintf("%.0f%%", r.QueuedPctPaid),
			f2(r.MeanDelayMinFree), f2(r.MeanDelayMinPaid),
			f2(r.VirtualMinutes),
		})
	}
	if len(results) == 2 && results[0].Preemption && !results[1].Preemption {
		t.Caption = fmt.Sprintf(
			"Checkpoint-preemption (%d victims) cuts paid in-quota queueing: %.0f%% of paid jobs queued >15 min (mean %.1f min) vs %.0f%% (mean %.1f min) without preemption.",
			results[0].Preemptions,
			results[0].QueuedPctPaid, results[0].MeanDelayMinPaid,
			results[1].QueuedPctPaid, results[1].MeanDelayMinPaid)
	} else if len(results) > 0 {
		r := results[0]
		t.Caption = fmt.Sprintf(
			"Paid in-quota work preempts free-tier victims (%d preemptions): %.0f%% of paid jobs queued >15 min vs %.0f%% of free jobs.",
			r.Preemptions, r.QueuedPctPaid, r.QueuedPctFree)
	}
	return t
}
