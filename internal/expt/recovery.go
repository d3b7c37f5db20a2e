package expt

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/ffdl/ffdl/internal/chaos"
	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/perf"
)

// The recovery experiment: what a restart-the-world actually costs, and
// what survives it. Each arm builds the same durable state — a batch of
// completed jobs with learner logs, plus
// enough single-key churn to seal and compact oplog segments — then
// tears the whole platform down with chaos.ProcessRestart and measures
// the reopened generation:
//
//   - reopen latency (NewPlatform + recovery replay, wall clock)
//   - how much state came back (jobs, oplog ops, learner-log lines)
//   - the reopened read path: WatchStatus reconnects refilled from the
//     recovered job documents (watch.refills)
//
// The MemStore arm is the ablation: same workload, no DataDir, so the
// restart erases everything — the baseline that shows what the
// FileStore plumbing is buying.

// RecoveryConfig parameterizes one run.
type RecoveryConfig struct {
	// Jobs is the number of jobs driven to COMPLETED before the restart.
	// Default 3.
	Jobs int
	// Churn is the number of single-key updates used to roll and compact
	// oplog segments before the restart. Default 3000.
	Churn int
	// Seed drives platform randomness.
	Seed int64
	// SettleWall is the FakeClock auto-advance quiescence window.
	// Default 2ms.
	SettleWall time.Duration
	// Timeout bounds each arm's job-driving stage in wall time.
	// Default 120s.
	Timeout time.Duration
}

func (c *RecoveryConfig) defaults() {
	if c.Jobs <= 0 {
		c.Jobs = 3
	}
	if c.Churn <= 0 {
		c.Churn = 3000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SettleWall <= 0 {
		c.SettleWall = 2 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
}

// RecoveryArm reports one arm of the comparison.
type RecoveryArm struct {
	FileStore bool `json:"file_store"`

	// ReopenMillis is the post-restart boot wall time (NewPlatform +
	// recovery replay + world re-provisioning).
	ReopenMillis float64 `json:"reopen_millis"`

	// What the reopened generation recovered.
	RecoveredJobs     int    `json:"recovered_jobs"`
	RecoveredOps      uint64 `json:"recovered_ops"`
	RecoveredLogLines int    `json:"recovered_log_lines"`

	// The reopened read path.
	WatchRefills int64 `json:"watch_refills"`

	WallSeconds float64 `json:"wall_seconds"`
}

// RecoveryResult reports the MemStore/FileStore pair.
type RecoveryResult struct {
	Jobs  int           `json:"jobs"`
	Churn int           `json:"churn"`
	Arms  []RecoveryArm `json:"arms"`
}

// Recovery runs both arms over the identical workload.
func Recovery(cfg RecoveryConfig) (RecoveryResult, error) {
	cfg.defaults()
	res := RecoveryResult{Jobs: cfg.Jobs, Churn: cfg.Churn}
	for _, fileStore := range []bool{false, true} {
		arm, err := recoveryArm(cfg, fileStore)
		if err != nil {
			return res, fmt.Errorf("recovery arm (filestore=%v): %w", fileStore, err)
		}
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}

func recoveryArm(cfg RecoveryConfig, fileStore bool) (RecoveryArm, error) {
	arm := RecoveryArm{FileStore: fileStore}
	wallStart := time.Now()

	dataDir := ""
	if fileStore {
		dir, err := os.MkdirTemp("", "ffdl-recovery-*")
		if err != nil {
			return arm, err
		}
		defer os.RemoveAll(dir) //nolint:errcheck
		dataDir = dir
	}

	pcfg, fc := simConfig(cfg.Seed, cfg.SettleWall)
	defer fc.StopAutoAdvance()
	pcfg.DataDir = dataDir
	// The measurement sees event-driven recovery, not poll overhead: the
	// reopened process's LCM scans MongoDB once at boot and redeploys
	// what was mid-flight. PollInterval paces only retries after a
	// store error (the Guardian's and the LCM's timers, the resilience
	// backoff).
	pcfg.PollInterval = 50 * time.Millisecond
	pcfg.TimeCompression = 0 // training is instantaneous; durability is the workload
	pcfg.StartDelay = func(string) time.Duration { return 0 }
	provision := func(p *core.Platform) error {
		nodes := (cfg.Jobs+3)/4 + 1
		for i := 0; i < nodes; i++ {
			p.AddNode(fmt.Sprintf("node-%03d", i), "K80", 4, 64, 1<<20)
		}
		p.Store.EnsureBucket("datasets")
		return p.Store.Put("datasets", "data/shard-0", make([]byte, 1<<10))
	}
	r, err := chaos.NewProcessRestart(pcfg, provision)
	if err != nil {
		return arm, err
	}
	defer r.Stop()
	p := r.Platform()
	client := p.Client()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// Drive the workload: Jobs jobs to COMPLETED, then the churn.
	jobIDs := make([]string, 0, cfg.Jobs)
	for j := 0; j < cfg.Jobs; j++ {
		id, err := client.Submit(ctx, core.Manifest{
			Name: fmt.Sprintf("rc-%d", j), User: "bench",
			Framework: perf.Caffe, Model: perf.VGG16,
			Learners: 1, GPUsPerLearner: 1, GPUType: perf.K80,
			BatchSize: 64, Iterations: 4, CheckpointEvery: 2,
			DataBucket: "datasets", DataPrefix: "data/",
			Command: "caffe train -solver solver.prototxt",
		})
		if err != nil {
			return arm, err
		}
		jobIDs = append(jobIDs, id)
	}
	for _, id := range jobIDs {
		if st, err := client.WaitForStatus(ctx, id, core.StatusCompleted, time.Minute); err != nil || st != core.StatusCompleted {
			return arm, fmt.Errorf("job %s ended %s, err=%v", id, st, err)
		}
		if lines, err := client.Logs(ctx, id); err != nil || len(lines) == 0 {
			return arm, fmt.Errorf("job %s logs: %d lines, err=%v", id, len(lines), err)
		}
	}
	scratch := p.Mongo.C("scratch")
	if _, err := scratch.Insert(mongo.Doc{"_id": "doc", "n": 0}); err != nil {
		return arm, err
	}
	for i := 1; i <= cfg.Churn; i++ {
		if err := scratch.UpdateOne(mongo.Filter{"_id": "doc"}, mongo.Update{Set: mongo.Doc{"n": i}}); err != nil {
			return arm, err
		}
	}
	preOps := p.Mongo.OplogLen()

	// Restart the world and measure what came back.
	p2, err := r.Restart()
	if err != nil {
		return arm, err
	}
	arm.ReopenMillis = float64(r.ReopenLatency().Nanoseconds()) / 1e6
	arm.RecoveredOps = p2.Mongo.OplogLen()
	if fileStore && arm.RecoveredOps != preOps {
		return arm, fmt.Errorf("recovered %d oplog ops, want %d", arm.RecoveredOps, preOps)
	}
	arm.RecoveredJobs = len(p2.Jobs.Find(mongo.Filter{"status": string(core.StatusCompleted)}, mongo.FindOpts{}))
	for _, id := range jobIDs {
		arm.RecoveredLogLines += len(p2.Metrics.LogsFrom(id, 0))
	}

	// One WatchStatus reconnect per recovered job: with the oplog
	// recovered these refill from the job documents (watch.refills),
	// without it the jobs are gone and there is nothing to watch.
	client2 := p2.Client()
	for _, id := range jobIDs {
		ch, stop, err := client2.WatchStatus(ctx, id)
		if err != nil {
			continue // MemStore arm: the job did not survive
		}
		for range ch { // drains to the terminal entry, then closes
		}
		stop()
	}
	arm.WatchRefills = p2.Obs.CounterValue("watch.refills")

	arm.WallSeconds = time.Since(wallStart).Seconds()
	return arm, nil
}

// RenderRecovery formats the pair as a table.
func RenderRecovery(res RecoveryResult) *Table {
	t := &Table{
		Title: "Restart-the-world recovery: FileStore DataDir vs the MemStore ablation",
		Header: []string{"FileStore", "Reopen (ms)", "Jobs back", "Oplog ops", "Log lines",
			"Refills"},
	}
	for _, a := range res.Arms {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%v", a.FileStore), f2(a.ReopenMillis),
			fmt.Sprintf("%d/%d", a.RecoveredJobs, res.Jobs),
			fmt.Sprintf("%d", a.RecoveredOps),
			fmt.Sprintf("%d", a.RecoveredLogLines),
			fmt.Sprintf("%d", a.WatchRefills),
		})
	}
	if len(res.Arms) == 2 && res.Arms[1].FileStore {
		mem, file := res.Arms[0], res.Arms[1]
		t.Caption = fmt.Sprintf(
			"A full process restart erases the MemStore platform (%d jobs, %d oplog ops back); "+
				"the FileStore DataDir brings back %d/%d jobs, %d oplog ops and %d log lines in %.1fms.",
			mem.RecoveredJobs, mem.RecoveredOps,
			file.RecoveredJobs, res.Jobs, file.RecoveredOps, file.RecoveredLogLines,
			file.ReopenMillis)
	}
	return t
}
