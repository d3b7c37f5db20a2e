// Command ffdl-bench regenerates every table and figure from the
// paper's evaluation (§5), plus the repo's own scheduler scale
// experiment.
//
// Usage:
//
//	ffdl-bench -all
//	ffdl-bench -table 1            # Table 1 only
//	ffdl-bench -fig 4 -runs 20     # Figure 4 with 20 runs per config
//	ffdl-bench -fig 3 -days 60     # Figure 3 over a 60-day trace
//	ffdl-bench -sched-scale -sched-nodes 1000,5000 -json bench.json
//	ffdl-bench -watch-churn -churn-jobs 1000 -json bench-watch.json
//	ffdl-bench -tenant -json bench-tenant.json
//	ffdl-bench -throughput -tp-submitters 64 -json bench-throughput.json
//	ffdl-bench -commitlog -json bench-commitlog.json
//	ffdl-bench -recovery -rc-jobs 3 -json bench-recovery.json
//	ffdl-bench -obs-overhead -obs-submitters 16 -json bench-obs.json
//	ffdl-bench -chaos-soak -soak-jobs 3 -json bench-chaos.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/ffdl/ffdl/internal/expt"
	"github.com/ffdl/ffdl/internal/trace"
)

func main() {
	var (
		all        = flag.Bool("all", false, "regenerate every table and figure")
		table      = flag.Int("table", 0, "regenerate one table (1-8)")
		fig        = flag.Int("fig", 0, "regenerate one figure (3-8)")
		days       = flag.Int("days", 30, "trace length for Figure 3 / failure analyses")
		runs       = flag.Int("runs", 20, "runs per configuration for Figure 4")
		trials     = flag.Int("trials", 5, "crash trials per component for Table 3")
		seed       = flag.Int64("seed", 1, "random seed")
		schedScale = flag.Bool("sched-scale", false, "run the scheduler scale experiment")
		schedNodes = flag.String("sched-nodes", "1000,5000", "comma-separated cluster sizes for -sched-scale")
		schedGangs = flag.Int("sched-gangs", 0, "gangs per -sched-scale run (0 = size/2 of the smallest cluster)")
		watchChurn = flag.Bool("watch-churn", false, "run the watch-churn experiment (resyncs per snapshot restore for watchers resuming by revision)")
		churnJobs  = flag.Int("churn-jobs", 1000, "watched job prefixes for -watch-churn")
		churnCycle = flag.Int("churn-cycles", 3, "chaos cycles for -watch-churn")
		tenantExp  = flag.Bool("tenant", false, "run the multi-tenant experiment (queue delay + preemption, with vs without preemption)")
		tenantIter = flag.Int("tenant-iters", 0, "training iterations per job for -tenant (0 = default)")
		throughput = flag.Bool("throughput", false, "run the control-plane throughput experiment (submissions, etcd proposals, mongo ops and codec round-trips per second)")
		tpSubs     = flag.Int("tp-submitters", 0, "concurrent submitters for -throughput (0 = default 64)")
		tpJobs     = flag.Int("tp-jobs", 0, "total submissions for -throughput (0 = default 2x submitters)")
		clog       = flag.Bool("commitlog", false, "run the commit-log experiment (crash torture smoke)")
		clCrash    = flag.Int("cl-crash", 0, "crash points for -commitlog (0 = default 40)")
		recovery   = flag.Bool("recovery", false, "run the restart-the-world recovery experiment (FileStore DataDir vs the MemStore ablation)")
		rcJobs     = flag.Int("rc-jobs", 0, "jobs completed before the restart for -recovery (0 = default 3)")
		rcChurn    = flag.Int("rc-churn", 0, "floor-raising oplog churn for -recovery (0 = default 3000)")
		obsOver    = flag.Bool("obs-overhead", false, "run the observability-overhead gate (instrumented vs DisableObs ablation; nonzero exit when over budget)")
		obsSubs    = flag.Int("obs-submitters", 0, "concurrent submitters per arm for -obs-overhead (0 = default 16)")
		obsJobs    = flag.Int("obs-jobs", 0, "submissions per arm for -obs-overhead (0 = default 2x submitters)")
		obsPairs   = flag.Int("obs-pairs", 0, "interleaved instrumented/ablation pairs for -obs-overhead (0 = default 3)")
		obsTol     = flag.Float64("obs-tolerance", 0, "accepted throughput loss percent for -obs-overhead (0 = default 5)")
		chaosSoak  = flag.Bool("chaos-soak", false, "run the chaos soak (all fault injectors concurrent; nonzero exit on any invariant violation)")
		soakUsers  = flag.Int("soak-users", 0, "tenants for -chaos-soak (0 = default 3)")
		soakJobs   = flag.Int("soak-jobs", 0, "jobs per tenant for -chaos-soak (0 = default 3)")
		soakNodes  = flag.Int("soak-nodes", 0, "worker nodes for -chaos-soak (0 = default 4)")
		soakSLO    = flag.Float64("soak-slo", 0, "chaos/calm p99 SLO factor for -chaos-soak (0 = default 30)")
		soakV      = flag.Bool("soak-v", false, "stream -chaos-soak progress lines to stderr")
		jsonOut    = flag.String("json", "", "also write -sched-scale / -watch-churn / -tenant / -throughput / -commitlog / -recovery results as JSON to this file")
	)
	flag.Parse()

	// Experiments accumulate into one JSON payload so running several
	// with a shared -json path keeps every result.
	payload := map[string]any{}
	if *schedScale {
		payload["scheduler_scale"] = runSchedScale(*schedNodes, *schedGangs, *seed)
	}
	if *watchChurn {
		payload["watch_churn"] = runWatchChurn(*churnJobs, *churnCycle, *seed)
	}
	if *tenantExp {
		payload["multi_tenant"] = runTenant(*tenantIter, *seed)
	}
	if *throughput {
		payload["throughput"] = runThroughput(*tpSubs, *tpJobs, *seed)
	}
	if *clog {
		payload["commitlog"] = runCommitlog(*clCrash, *seed)
	}
	if *recovery {
		payload["recovery"] = runRecovery(*rcJobs, *rcChurn, *seed)
	}
	obsFailed := false
	if *obsOver {
		res := runObsOverhead(*obsSubs, *obsJobs, *obsPairs, *obsTol, *seed)
		payload["obs_overhead"] = res
		obsFailed = !res.WithinBudget
	}
	soakFailed := false
	if *chaosSoak {
		res := runChaosSoak(*soakUsers, *soakJobs, *soakNodes, *soakSLO, *seed, *soakV)
		payload["chaos_soak"] = res
		soakFailed = len(res.Violations) > 0
	}
	if len(payload) > 0 {
		writeJSON(*jsonOut, payload)
	}
	if obsFailed {
		fmt.Fprintln(os.Stderr, "ffdl-bench: obs-overhead gate FAILED: instrumented throughput over budget")
		os.Exit(1)
	}
	if soakFailed {
		fmt.Fprintln(os.Stderr, "ffdl-bench: chaos-soak gate FAILED: invariant violations under fault injection")
		os.Exit(1)
	}
	if !*all && *table == 0 && *fig == 0 {
		if len(payload) > 0 {
			return
		}
		flag.Usage()
		os.Exit(2)
	}

	emit := func(t *expt.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffdl-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.String())
	}
	want := func(kind string, n int) bool {
		if *all {
			return true
		}
		if kind == "table" {
			return *table == n
		}
		return *fig == n
	}

	if want("table", 1) {
		emit(expt.Table1Render(), nil)
	}
	if want("table", 2) {
		emit(expt.Table2Render(), nil)
	}
	if want("table", 3) {
		t, err := expt.Table3Render(*trials)
		emit(t, err)
	}
	if want("table", 4) {
		emit(expt.Table4Render(), nil)
	}
	if want("table", 5) {
		emit(expt.Table5Render(), nil)
	}
	if want("table", 6) {
		emit(expt.Table6Render(), nil)
	}
	if want("table", 7) {
		emit(expt.Table7Render(), nil)
	}
	if want("table", 8) {
		emit(expt.Table8Render(*days, *seed), nil)
	}
	if want("fig", 3) {
		emit(expt.Figure3Render(trace.Config{Days: *days, Seed: *seed}), nil)
	}
	if want("fig", 4) {
		emit(expt.Figure4Render(*runs, *seed), nil)
	}
	if want("fig", 5) {
		emit(expt.Figure5Render(), nil)
	}
	if want("fig", 6) {
		emit(expt.Figure6Render(*days, *seed), nil)
	}
	if want("fig", 7) {
		emit(expt.Figure7Render(30, *seed), nil)
	}
	if want("fig", 8) {
		emit(expt.Figure8Render(150, *seed), nil)
	}
}

// runSchedScale runs the scheduler scale sweep, prints the table, and
// returns the raw results for the BENCH json artifact.
func runSchedScale(nodesCSV string, gangs int, seed int64) []expt.SchedScaleResult {
	var sizes []int
	for _, f := range strings.Split(nodesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "ffdl-bench: bad -sched-nodes entry %q\n", f)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		fmt.Fprintln(os.Stderr, "ffdl-bench: -sched-nodes is empty")
		os.Exit(2)
	}
	base := expt.SchedScaleConfig{Seed: seed, Gangs: gangs}
	if gangs <= 0 {
		// Hold the workload fixed across sizes — sized to the smallest
		// cluster — so the sweep isolates cluster-size scaling.
		smallest := sizes[0]
		for _, n := range sizes[1:] {
			smallest = min(smallest, n)
		}
		base.Gangs = smallest / 2
	}
	results := expt.SchedulerScaleSweep(sizes, base)
	fmt.Println(expt.RenderSchedScale(results).String())
	return results
}

// runWatchChurn runs the watch-churn experiment (watchers resuming by
// revision across snapshot restores), prints the table, and returns the
// raw result for the BENCH json artifact.
func runWatchChurn(jobs, cycles int, seed int64) expt.WatchChurnResult {
	res, err := expt.WatchChurn(expt.WatchChurnConfig{
		Jobs: jobs, Cycles: cycles, Seed: seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: watch-churn: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(expt.RenderWatchChurn(res).String())
	return res
}

// runTenant runs the multi-tenant pair (preemption vs the ablation),
// prints the table, and returns the raw results for the BENCH json
// artifact.
func runTenant(iters int, seed int64) []expt.MultiTenantResult {
	with, without, err := expt.MultiTenantCompare(expt.MultiTenantConfig{
		Iterations: iters, Seed: seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: tenant: %v\n", err)
		os.Exit(1)
	}
	results := []expt.MultiTenantResult{with, without}
	fmt.Println(expt.RenderMultiTenant(results).String())
	return results
}

// runThroughput runs the control-plane throughput experiment on the
// shipping configuration (group commit + binary entry codec), prints
// the table, and returns the raw result for the BENCH json artifact.
func runThroughput(submitters, jobs int, seed int64) expt.ThroughputResult {
	res, err := expt.Throughput(expt.ThroughputConfig{
		Submitters: submitters, Jobs: jobs, Seed: seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: throughput: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(expt.RenderThroughput(res).String())
	return res
}

// runCommitlog runs the commit-log crash torture smoke, prints the
// table, and returns the raw result for the BENCH json artifact. Any
// torture violation is fatal: the event substrate's durability contract
// is broken.
func runCommitlog(crashPoints int, seed int64) expt.CommitlogResult {
	res, err := expt.CommitlogRun(expt.CommitlogConfig{TortureCrashPoints: crashPoints, Seed: seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: commitlog: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(expt.RenderCommitlog(res).String())
	if len(res.Torture.Violations) > 0 {
		for _, v := range res.Torture.Violations {
			fmt.Fprintf(os.Stderr, "ffdl-bench: commitlog torture violation: %s\n", v)
		}
		os.Exit(1)
	}
	return res
}

// runRecovery runs the restart-the-world recovery pair (FileStore
// DataDir vs the MemStore ablation), prints the table, and returns the
// raw result for the BENCH json artifact.
func runRecovery(jobs, churn int, seed int64) expt.RecoveryResult {
	res, err := expt.Recovery(expt.RecoveryConfig{Jobs: jobs, Churn: churn, Seed: seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: recovery: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(expt.RenderRecovery(res).String())
	return res
}

// runObsOverhead runs the observability-overhead gate, prints the
// table, and returns the raw result for the BENCH json artifact. The
// caller exits nonzero when the gate fails (after the JSON artifact is
// written, so CI keeps the evidence).
func runObsOverhead(submitters, jobs, pairs int, tolerance float64, seed int64) expt.ObsOverheadResult {
	res, err := expt.ObsOverhead(expt.ObsOverheadConfig{
		Submitters: submitters, Jobs: jobs, Pairs: pairs,
		TolerancePct: tolerance, Seed: seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: obs-overhead: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(expt.RenderObsOverhead(res).String())
	return res
}

// runChaosSoak runs the chaos soak (calm baseline arm + all-injector
// chaos arm), prints the table, and returns the raw result for the
// BENCH json artifact. The caller exits nonzero on violations — after
// the JSON artifact is written, so CI keeps the evidence.
func runChaosSoak(users, jobsPerUser, nodes int, sloFactor float64, seed int64, verbose bool) expt.ChaosSoakResult {
	cfg := expt.ChaosSoakConfig{
		Users: users, JobsPerUser: jobsPerUser, Nodes: nodes,
		SLOFactor: sloFactor, Seed: seed,
	}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ffdl-bench: soak: "+format+"\n", args...)
		}
	}
	res, err := expt.ChaosSoak(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: chaos-soak: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(expt.RenderChaosSoak(res).String())
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "ffdl-bench: chaos-soak violation: %s\n", v)
	}
	return res
}

// writeJSON writes a result payload to jsonPath ("" = skip).
func writeJSON(jsonPath string, payload map[string]any) {
	if jsonPath == "" {
		return
	}
	buf, err := json.MarshalIndent(payload, "", "  ")
	if err == nil {
		err = os.WriteFile(jsonPath, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffdl-bench: write %s: %v\n", jsonPath, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", jsonPath)
}
