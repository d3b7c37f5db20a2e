package expt

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/chaos"
	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/tenant"
)

// The chaos soak: every fault injector the repo has, fired concurrently
// at one multi-tenant platform on a simulated clock, with hard
// correctness invariants checked at the end and a latency SLO judged
// against a calm-arm baseline. This is the resilience layer's
// integration gate — worker-node crash loops and pod kills
// (chaos.Injector), etcd replica outages with snapshot-restore rejoins
// (chaos.EtcdInjector), mongo primary failovers (chaos.MongoInjector)
// and per-link RPC drop/duplicate/delay faults (rpc.Faults) all
// overlap, while the policies of internal/resilience (and the core
// API's degraded mode) keep the platform's §2 dependability contract
// intact.
//
// Hard invariants (any failure is a reported violation):
//
//   - every submitted job reaches a terminal status;
//   - each job's WatchStatus stream delivers its history exactly once,
//     in order, matching the durable MongoDB record;
//   - admission accounting conserves: zero GPUs held once all jobs are
//     terminal;
//   - learner-log offsets are strictly increasing (no reuse across
//     guardian/learner restarts);
//   - after chaos stops, the platform exits degraded mode within a
//     bounded virtual recovery window.
//
// SLO: p99 submit→PROCESSING latency under chaos stays within
// SLOFactor × the calm baseline (floored, so a near-zero calm p99
// cannot make the gate vacuous).

// ChaosSoakConfig parameterizes one soak.
type ChaosSoakConfig struct {
	// Nodes is the number of 4-GPU K80 worker nodes. Default 4.
	Nodes int
	// Users is the number of tenants; JobsPerUser submissions each, in
	// staggered waves. Defaults 3 / 3.
	Users       int
	JobsPerUser int
	// Iterations per job (virtual training length). Default 4.
	Iterations int
	// EtcdCycles is how many etcd outage cycles run during the soak.
	// Default 2.
	EtcdCycles int
	// Seed drives every random stream.
	Seed int64
	// SLOFactor is the chaos/calm p99 budget; SLOFloor floors the calm
	// baseline so the ratio is meaningful. Defaults 30× / 1 min virtual.
	SLOFactor float64
	SLOFloor  time.Duration
	// RecoveryBound caps virtual time from "chaos stopped" to "degraded
	// mode exited and a submission completed". Default 30 min virtual.
	RecoveryBound time.Duration
	// SettleWall is the FakeClock auto-advance quiescence window (wall
	// time). Default 10ms.
	SettleWall time.Duration
	// Timeout bounds each arm in wall time. Default 300s.
	Timeout time.Duration
	// Logf, when set, receives progress lines (virtual timestamps
	// included) — wired to the bench harness's verbose flag.
	Logf func(format string, args ...any)
}

func (c *ChaosSoakConfig) logf(fc *sim.FakeClock, format string, args ...any) {
	if c.Logf == nil {
		return
	}
	c.Logf("[v=%s] "+format, append([]any{fc.Now().Sub(time.Unix(0, 0)).Round(time.Second)}, args...)...)
}

func (c *ChaosSoakConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Users <= 0 {
		c.Users = 3
	}
	if c.JobsPerUser <= 0 {
		c.JobsPerUser = 3
	}
	if c.Iterations <= 0 {
		c.Iterations = 4
	}
	if c.EtcdCycles <= 0 {
		c.EtcdCycles = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SLOFactor <= 0 {
		c.SLOFactor = 30
	}
	if c.SLOFloor <= 0 {
		c.SLOFloor = time.Minute
	}
	if c.RecoveryBound <= 0 {
		c.RecoveryBound = 30 * time.Minute
	}
	if c.SettleWall <= 0 {
		c.SettleWall = 10 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 300 * time.Second
	}
}

// ChaosSoakResult reports one soak (calm arm + chaos arm).
type ChaosSoakResult struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	NodeCrashes  int64            `json:"node_crashes"`
	PodKills     int64            `json:"pod_kills"`
	EtcdOutages  int64            `json:"etcd_outages"`
	EtcdRestores uint64           `json:"etcd_snapshot_restores"`
	Mongo        chaos.MongoStats `json:"mongo"`
	RPC          rpc.FaultStats   `json:"rpc"`

	Retries      int64 `json:"resilience_retries"`
	Sheds        int64 `json:"resilience_sheds"`
	DegradedShed int64 `json:"degraded_sheds"`
	DegradedRead int64 `json:"degraded_reads"`

	CalmP99Ms         float64 `json:"calm_p99_submit_to_processing_ms"`
	ChaosP99Ms        float64 `json:"chaos_p99_submit_to_processing_ms"`
	SLOFactor         float64 `json:"slo_factor"`
	SLOOK             bool    `json:"slo_ok"`
	RecoveryVirtualMs float64 `json:"breaker_recovery_virtual_ms"`

	Violations     []string `json:"violations"`
	VirtualMinutes float64  `json:"virtual_minutes"`
	WallSeconds    float64  `json:"wall_seconds"`
}

// soakArm is one platform run's raw outcome.
type soakArm struct {
	completed, failed int
	p99               time.Duration
	recovery          time.Duration
	degradedSheds     int64
	degradedReads     int64
	retries           int64
	sheds             int64
	nodeCrashes       int64
	podKills          int64
	etcdOutages       int64
	etcdRestores      uint64
	mongo             chaos.MongoStats
	rpcFaults         rpc.FaultStats
	violations        []string
	virtual           time.Duration
}

// watchCollector accumulates one job's WatchStatus stream end-to-end.
type watchCollector struct {
	mu      sync.Mutex
	entries []core.StatusEntry
	// violation records a broken stream contract (closed non-terminal).
	violation string
	done      chan struct{}
}

func (w *watchCollector) snapshot() ([]core.StatusEntry, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]core.StatusEntry(nil), w.entries...), w.violation
}

// ChaosSoak runs the calm baseline arm, then the chaos arm, and folds
// both into one result. A non-empty Violations list (or a busted SLO)
// means the platform broke its contract under chaos.
func ChaosSoak(cfg ChaosSoakConfig) (ChaosSoakResult, error) {
	cfg.defaults()
	res := ChaosSoakResult{Jobs: cfg.Users * cfg.JobsPerUser}
	wallStart := time.Now()

	calm, err := chaosSoakArm(cfg, false)
	if err != nil {
		return res, fmt.Errorf("calm arm: %w", err)
	}
	storm, err := chaosSoakArm(cfg, true)
	if err != nil {
		return res, fmt.Errorf("chaos arm: %w", err)
	}

	res.Completed = storm.completed
	res.Failed = storm.failed
	res.NodeCrashes = storm.nodeCrashes
	res.PodKills = storm.podKills
	res.EtcdOutages = storm.etcdOutages
	res.EtcdRestores = storm.etcdRestores
	res.Mongo = storm.mongo
	res.RPC = storm.rpcFaults
	res.Retries = storm.retries
	res.Sheds = storm.sheds
	res.DegradedShed = storm.degradedSheds
	res.DegradedRead = storm.degradedReads
	res.CalmP99Ms = float64(calm.p99) / float64(time.Millisecond)
	res.ChaosP99Ms = float64(storm.p99) / float64(time.Millisecond)
	res.SLOFactor = cfg.SLOFactor
	res.RecoveryVirtualMs = float64(storm.recovery) / float64(time.Millisecond)
	res.Violations = append(res.Violations, calm.prefixed("calm")...)
	res.Violations = append(res.Violations, storm.prefixed("chaos")...)

	// SLO: chaos p99 within SLOFactor × the (floored) calm baseline.
	baseline := calm.p99
	if baseline < cfg.SLOFloor {
		baseline = cfg.SLOFloor
	}
	res.SLOOK = storm.p99 <= time.Duration(cfg.SLOFactor*float64(baseline))
	if !res.SLOOK {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"SLO: chaos p99 submit→PROCESSING %v exceeds %.0fx calm baseline %v",
			storm.p99, cfg.SLOFactor, baseline))
	}
	if storm.recovery > cfg.RecoveryBound {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"recovery: %v of virtual time to exit degraded mode, bound %v",
			storm.recovery, cfg.RecoveryBound))
	}
	res.VirtualMinutes = calm.virtual.Minutes() + storm.virtual.Minutes()
	res.WallSeconds = time.Since(wallStart).Seconds()
	return res, nil
}

func (a soakArm) prefixed(arm string) []string {
	out := make([]string, 0, len(a.violations))
	for _, v := range a.violations {
		out = append(out, arm+": "+v)
	}
	return out
}

// chaosSoakArm boots one platform and runs the workload, with or
// without the injectors. The result is a named return so deferred
// injector-stat collection (the etcd churn goroutine outlives the body's
// reads) lands in the returned value.
func chaosSoakArm(cfg ChaosSoakConfig, withChaos bool) (arm soakArm, err error) {
	pcfg, fc := simConfig(cfg.Seed, cfg.SettleWall)
	defer fc.StopAutoAdvance()

	var quotas []tenant.Record
	users := make([]string, cfg.Users)
	for i := range users {
		users[i] = fmt.Sprintf("team-%d", i)
		// Generous paid quotas: admission ordering, not starvation, is
		// under test here.
		quotas = append(quotas, tenant.Record{User: users[i], Tier: sched.TierPaid, GPUs: cfg.Nodes * 4})
	}

	// The resilience policies scale their backoff, breaker and deadline
	// windows off the stretched PollInterval, so chaos recovery behavior
	// stretches coherently with everything else. A TimeCompression of 60
	// keeps one job's training at ~15 virtual minutes — well under the
	// injectors' disruption intervals, so jobs make progress between
	// faults while still spending most of their lifetime exposed to them.
	pcfg.TimeCompression = 60
	pcfg.Tenancy = &core.TenancyConfig{Quotas: quotas}
	p, err := core.NewPlatform(pcfg)
	if err != nil {
		return arm, err
	}
	defer p.Stop()
	for i := 0; i < cfg.Nodes; i++ {
		p.AddNode(fmt.Sprintf("node-%02d", i), "K80", 4, 40, 512<<10)
	}
	p.Store.EnsureBucket("datasets")
	if err := p.Store.Put("datasets", "data/shard-0", make([]byte, 1<<20)); err != nil {
		return arm, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	c := p.Client()
	virtualStart := fc.Now()
	cfg.logf(fc, "arm booted (chaos=%v)", withChaos)

	// --- Injectors (chaos arm only) ---------------------------------
	var kubeIn *chaos.Injector
	var mongoIn *chaos.MongoInjector
	var faults *rpc.Faults
	var chaosWG sync.WaitGroup
	chaosStop := make(chan struct{})
	if withChaos {
		kubeIn = chaos.NewInjector(p.Kube, sim.NewRNG(cfg.Seed+10))
		kubeIn.NodeMTBF = 20 * time.Minute // per node; /Nodes cluster-wide
		kubeIn.NodeRecovery = 90 * time.Second
		kubeIn.PodKillMTBF = 4 * time.Minute
		kubeIn.Start()

		mongoIn = chaos.NewMongoInjector(p.Mongo, fc, sim.NewRNG(cfg.Seed+11))
		mongoIn.FailoverMTBF = 7 * time.Minute
		mongoIn.FailoverDuration = 30 * time.Second
		mongoIn.Start()

		faults = rpc.NewFaults(fc, cfg.Seed+12)
		p.Registry.SetFaults(faults)
		// Link-fault churn: windows of drop/duplicate/delay against the
		// LCM links (an idempotent, deadline-guarded edge) and delay
		// against the API links (Submit is not idempotent, so its frames
		// are never dropped or duplicated — only slowed).
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			rng := sim.NewRNG(cfg.Seed + 13)
			for {
				select {
				case <-chaosStop:
					return
				case <-fc.After(time.Duration(rng.Exp(float64(150 * time.Second)))):
				}
				for _, addr := range p.Registry.Lookup(core.ServiceLCM) {
					faults.SetLink(addr, rpc.LinkFault{Drop: 0.3, Dup: 0.3, Delay: 20 * time.Millisecond})
				}
				for _, addr := range p.Registry.Lookup(core.ServiceAPI) {
					faults.SetLink(addr, rpc.LinkFault{Delay: 50 * time.Millisecond})
				}
				select {
				case <-chaosStop:
					faults.Heal()
					return
				case <-fc.After(45 * time.Second):
				}
				faults.Heal()
			}
		}()

		// Etcd outage cycles, with churn writes that force the rejoin
		// through a snapshot restore when compaction outpaces the victim.
		etcdIn := chaos.NewEtcdInjector(p.Etcd)
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			for i := 0; i < cfg.EtcdCycles; i++ {
				select {
				case <-chaosStop:
					return
				case <-fc.After(3 * time.Minute):
				}
				n := i
				etcdIn.OutageCycle(func() {
					for j := 0; j < 300; j++ {
						p.Etcd.Put(fmt.Sprintf("soak/churn-%d-%d", n, j), []byte("x"), 0) //nolint:errcheck
					}
				})
			}
		}()
		defer func() {
			outages, restores := etcdIn.Stats()
			arm.etcdOutages = outages
			arm.etcdRestores = restores
		}()

		// Microservice replica crashes ride along too.
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			rng := sim.NewRNG(cfg.Seed + 14)
			for {
				select {
				case <-chaosStop:
					return
				case <-fc.After(time.Duration(rng.Exp(float64(8 * time.Minute)))):
				}
				if rng.Bernoulli(0.5) {
					p.CrashAPI(rng.Intn(2))
				} else {
					p.CrashLCM(rng.Intn(2))
				}
			}
		}()
	}

	// --- Workload: staggered multi-tenant waves ---------------------
	manifest := func(user string, i int) core.Manifest {
		return core.Manifest{
			Name: fmt.Sprintf("%s-job-%d", user, i), User: user,
			Framework: perf.Caffe, Model: perf.VGG16,
			Learners: 1, GPUsPerLearner: 1, GPUType: perf.K80,
			BatchSize: 64, Iterations: cfg.Iterations, CheckpointEvery: 1,
			DataBucket: "datasets", DataPrefix: "data/",
			Command: "caffe train -solver solver.prototxt",
		}
	}
	submit := func(user string, i int) (string, error) {
		for {
			id, err := c.Submit(ctx, manifest(user, i))
			if err == nil {
				return id, nil
			}
			// Degraded sheds are the documented contract: back off in
			// virtual time and resubmit. Anything else is fatal.
			if !core.IsDegraded(err) {
				return "", err
			}
			arm.degradedSheds++
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-fc.After(time.Minute):
			}
		}
	}

	var jobIDs []string
	collectors := map[string]*watchCollector{}
	collect := func(jobID string) {
		w := &watchCollector{done: make(chan struct{})}
		collectors[jobID] = w
		go func() {
			defer close(w.done)
			for {
				ch, cancelWatch, err := c.WatchStatus(ctx, jobID)
				if err != nil {
					select {
					case <-ctx.Done():
						return
					case <-fc.After(30 * time.Second):
						continue
					}
				}
				terminal := false
				for e := range ch {
					w.mu.Lock()
					w.entries = append(w.entries, e)
					w.mu.Unlock()
					if e.Status.Terminal() {
						terminal = true
					}
				}
				cancelWatch()
				if terminal {
					return
				}
				if ctx.Err() != nil {
					return
				}
				// The stream contract says closure without a terminal
				// entry means cancellation — and nothing canceled it.
				w.mu.Lock()
				if len(w.entries) > 0 {
					w.violation = fmt.Sprintf("watch stream for %s closed without terminal after %d entries", jobID, len(w.entries))
					w.mu.Unlock()
					return
				}
				w.mu.Unlock()
				// No entries delivered yet: reconnect from scratch.
			}
		}()
	}

	for wave := 0; wave < cfg.JobsPerUser; wave++ {
		for _, u := range users {
			id, err := submit(u, wave)
			if err != nil {
				return arm, fmt.Errorf("submit %s wave %d: %w", u, wave, err)
			}
			jobIDs = append(jobIDs, id)
			collect(id)
		}
		cfg.logf(fc, "wave %d submitted (%d jobs so far)", wave, len(jobIDs))
		// Wide wave spacing keeps submissions landing throughout the
		// fault schedule, not just in its first quiet minutes.
		fc.Sleep(4 * time.Minute)
	}

	// --- Drain: every job must reach a terminal status --------------
	for _, id := range jobIDs {
		st, err := c.WaitForStatus(ctx, id, core.StatusCompleted, time.Minute)
		if err != nil {
			arm.violations = append(arm.violations, fmt.Sprintf("job %s never terminal: %v", id, err))
			continue
		}
		switch st {
		case core.StatusCompleted:
			arm.completed++
		default:
			arm.failed++
		}
		cfg.logf(fc, "job %s terminal: %s", id, st)
	}

	// --- Stop chaos; deterministic degraded window; recovery --------
	if withChaos {
		cfg.logf(fc, "drain done; stopping injectors")
		close(chaosStop)
		chaosWG.Wait()
		kubeIn.Stop()
		arm.nodeCrashes, arm.podKills = kubeIn.Stats()
		mongoIn.Stop()
		arm.mongo = mongoIn.Stats()
		faults.Heal()
		arm.rpcFaults = faults.Stats()

		// Forced mongo outage: the acceptance pin that status reads keep
		// working from the oplog image while submissions shed with a
		// retryable error.
		p.Mongo.SetUnavailable(true)
		if _, err := c.Submit(ctx, manifest(users[0], 990)); err == nil {
			arm.violations = append(arm.violations, "submit acknowledged during forced mongo outage")
		} else if !core.IsDegraded(err) {
			arm.violations = append(arm.violations, fmt.Sprintf("forced-outage submit error not degraded-retryable: %v", err))
		} else {
			arm.degradedSheds++
		}
		if len(jobIDs) > 0 {
			reply, err := c.Status(ctx, jobIDs[len(jobIDs)-1])
			switch {
			case err != nil:
				arm.violations = append(arm.violations, fmt.Sprintf("degraded status read failed: %v", err))
			case !reply.Degraded:
				arm.violations = append(arm.violations, "status read during forced outage not flagged Degraded")
			default:
				arm.degradedReads++
			}
		}
		p.Mongo.SetUnavailable(false)
	}

	// Recovery: virtual time until a submission is accepted again and
	// completes (chaos arm exercises breaker reopening; calm arm is a
	// sanity pass-through).
	cfg.logf(fc, "degraded window done; probing recovery")
	recoverStart := fc.Now()
	probe, err := submit(users[0], 991)
	if err != nil {
		return arm, fmt.Errorf("recovery submit: %w", err)
	}
	// Recovery is measured to acceptance: an accepted submission means
	// the mongo breaker closed again (the insert went through).
	arm.recovery = fc.Since(recoverStart)
	collect(probe)
	jobIDs = append(jobIDs, probe)
	if st, err := c.WaitForStatus(ctx, probe, core.StatusCompleted, time.Minute); err != nil || st != core.StatusCompleted {
		arm.violations = append(arm.violations, fmt.Sprintf("recovery probe job %s ended %s err=%v", probe, st, err))
	}
	if p.Degraded() {
		arm.violations = append(arm.violations, "platform still degraded after recovery probe completed")
	}
	cfg.logf(fc, "recovery took %s virtual; sweeping invariants", arm.recovery)

	// --- Invariant sweep --------------------------------------------
	// Wait for every collector to finish its stream.
	for id, w := range collectors {
		select {
		case <-w.done:
		case <-ctx.Done():
			arm.violations = append(arm.violations, fmt.Sprintf("watch collector for %s did not finish", id))
		}
	}

	// The durable history is read through List, which only MongoDB can
	// answer: a Status read may come from the oplog image instead.
	durable := make(map[string]core.JobRecord, len(jobIDs))
	recs, err := c.List(ctx, "")
	if err != nil {
		arm.violations = append(arm.violations, fmt.Sprintf("final list read: %v", err))
	}
	for _, rec := range recs {
		durable[rec.ID] = rec
	}
	var latencies []time.Duration
	for _, id := range jobIDs {
		reply, ok := durable[id]
		if !ok {
			arm.violations = append(arm.violations, fmt.Sprintf("final list read is missing %s", id))
			continue
		}
		if !reply.Status.Terminal() {
			arm.violations = append(arm.violations, fmt.Sprintf("job %s final status %s is not terminal", id, reply.Status))
		}
		// WatchStatus exactly-once/in-order against the durable history.
		entries, brokenStream := collectors[id].snapshot()
		if brokenStream != "" {
			arm.violations = append(arm.violations, brokenStream)
		}
		if len(entries) != len(reply.History) {
			arm.violations = append(arm.violations, fmt.Sprintf(
				"job %s watch delivered %d transitions, history has %d", id, len(entries), len(reply.History)))
		} else {
			for i := range entries {
				if entries[i].Status != reply.History[i].Status || !entries[i].Time.Equal(reply.History[i].Time) {
					arm.violations = append(arm.violations, fmt.Sprintf(
						"job %s watch transition %d = %s@%v, history has %s@%v",
						id, i+1, entries[i].Status, entries[i].Time,
						reply.History[i].Status, reply.History[i].Time))
					break
				}
			}
		}
		// Learner-log offsets strictly increasing: no reuse across
		// learner restarts or replica crashes.
		logs := p.Metrics.Logs(id)
		for i := 1; i < len(logs); i++ {
			if logs[i].Offset <= logs[i-1].Offset {
				arm.violations = append(arm.violations, fmt.Sprintf(
					"job %s log offset %d at line %d not greater than %d", id, logs[i].Offset, i, logs[i-1].Offset))
				break
			}
		}
		// Admission conservation per job.
		if p.Admission.Holds(id) {
			arm.violations = append(arm.violations, fmt.Sprintf("admission still holds a footprint for terminal job %s", id))
		}
		if h := reply.History; len(h) > 0 {
			start := h[0].Time
			for _, e := range h {
				if e.Status == core.StatusProcessing {
					latencies = append(latencies, e.Time.Sub(start))
					break
				}
			}
		}
	}
	if got := p.Admission.AdmittedGPUs(); got != 0 {
		arm.violations = append(arm.violations, fmt.Sprintf("admission reports %d GPUs held after drain, want 0", got))
	}
	arm.p99 = quantileDuration(latencies, 0.99)

	snap := p.Obs.Snapshot()
	arm.retries = snap.Counter("resilience.retries")
	arm.sheds = snap.Counter("resilience.shed")
	arm.degradedSheds = snap.Counter("api.degraded_sheds") // absolute platform count wins
	arm.degradedReads = snap.Counter("api.degraded_reads")
	arm.virtual = fc.Since(virtualStart)
	return arm, nil
}

// quantileDuration returns the q-quantile (nearest-rank) of ds.
func quantileDuration(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(q*float64(len(ds))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

// RenderChaosSoak formats a soak result as a table.
func RenderChaosSoak(r ChaosSoakResult) *Table {
	t := &Table{
		Title: "Chaos soak: all injectors concurrent, hard invariants + latency SLO vs calm baseline",
		Header: []string{"Jobs", "Completed", "Failed", "Node crashes", "Pod kills", "Etcd outages",
			"Mongo failovers", "RPC drops", "Retries", "Sheds", "Calm p99 (ms)", "Chaos p99 (ms)", "Recovery (ms)", "Violations"},
		Rows: [][]string{{
			fmt.Sprintf("%d", r.Jobs), fmt.Sprintf("%d", r.Completed), fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.NodeCrashes), fmt.Sprintf("%d", r.PodKills), fmt.Sprintf("%d", r.EtcdOutages),
			fmt.Sprintf("%d", r.Mongo.Failovers), fmt.Sprintf("%d", r.RPC.Dropped),
			fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.Sheds),
			f2(r.CalmP99Ms), f2(r.ChaosP99Ms), f2(r.RecoveryVirtualMs),
			fmt.Sprintf("%d", len(r.Violations)),
		}},
	}
	if len(r.Violations) == 0 {
		t.Caption = fmt.Sprintf(
			"Zero invariant violations: every job terminal, watch streams exactly-once/in-order, admission conserved, log offsets monotone; %d submissions shed + %d degraded reads served during mongo-breaker-open windows.",
			r.DegradedShed, r.DegradedRead)
	} else {
		t.Caption = fmt.Sprintf("%d INVARIANT VIOLATIONS — see JSON artifact for details.", len(r.Violations))
	}
	return t
}
