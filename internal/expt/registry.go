package expt

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/trace"
)

// Experiment is one row of the registry. Everything that runs or names
// an experiment — cmd/ffdl-bench, make expt-smoke, CI's artifact
// upload and make docs-check — reads the rows from Registry.
type Experiment struct {
	// Name is the row's handle: ffdl-bench's positional argument, the
	// <name> of its bench-<name>.json, and the name docs/architecture.md
	// must list.
	Name string
	// Desc is a one-line description.
	Desc string
	// Run executes the row at its full or smoke size. result is the
	// row's JSON payload and t its printable table. A non-nil gate
	// means the row failed — it could not run, or a gated row broke its
	// contract — while result and t still report whatever it measured.
	Run func(smoke bool, o Options) (result any, t *Table, gate error)
}

// Options are what every row takes besides its parameter set.
type Options struct {
	Seed int64
	// Logf, when set, receives progress lines from the rows that report
	// them.
	Logf func(format string, args ...any)
}

// row builds an Experiment from its two parameter sets: full is what
// ffdl-bench runs by default, smoke what it runs under -smoke (make
// expt-smoke, CI). A zero config field means that field's default.
func row[P any](name, desc string, full, smoke P, run func(P, Options) (any, *Table, error)) Experiment {
	return Experiment{Name: name, Desc: desc, Run: func(s bool, o Options) (any, *Table, error) {
		if s {
			return run(smoke, o)
		}
		return run(full, o)
	}}
}

// model is a row for a deterministic model table without parameters.
// Its table is its result.
func model(name, desc string, render func() *Table) Experiment {
	return row(name, desc, 0, 0, func(int, Options) (any, *Table, error) {
		t := render()
		return t, t, nil
	})
}

// sized is a row for a seeded model table whose one parameter is its
// length (days of trace, or runs). Its table is its result.
func sized(name, desc string, full, smoke int, render func(n int, seed int64) *Table) Experiment {
	return row(name, desc, full, smoke, func(n int, o Options) (any, *Table, error) {
		t := render(n, o.Seed)
		return t, t, nil
	})
}

// Registry returns every row in run order: the paper's tables and
// figures (§5), then the repo's own experiments and CI gates.
func Registry() []Experiment {
	return []Experiment{
		model("table1", "Table 1: FfDL vs bare-metal throughput over 16 job shapes (§5.1)", Table1Render),
		model("table2", "Table 2: FfDL vs an NVIDIA DGX-1 on TensorFlow (§5.1)", Table2Render),
		row("table3", "Table 3: crash-recovery time per component on the live platform; parameter: trials (§5.1)", 5, 2,
			func(trials int, _ Options) (any, *Table, error) {
				t, err := Table3Render(trials)
				return t, t, err
			}),
		model("table4", "Table 4: VGG-16/Caffe throughput vs CPU threads (§5.4)", Table4Render),
		model("table5", "Table 5: t-shirt size recommendations (§5.4)", Table5Render),
		model("table6", "Table 6: TensorFlow throughput and GPU utilization vs CPU threads (§5.4)", Table6Render),
		model("table7", "Table 7: the scale test's light- and heavy-load job mix (§5.5)", Table7Render),
		sized("table8", "Table 8: scheduling-failure reasons; parameter: days simulated (§5.6)", 30, 10, Table8Render),
		sized("fig3", "Figure 3: Spread vs Pack queueing on a production-like trace; parameter: days (§5.2)", 30, 5,
			func(days int, seed int64) *Table { return Figure3Render(trace.Config{Days: days, Seed: seed}) }),
		sized("fig4", "Figure 4: deadlocked learners and idle GPUs with vs without gang scheduling; parameter: runs (§5.3)", 20, 5, Figure4Render),
		model("fig5", "Figure 5: job runtime by GPU type, light vs heavy load (§5.5)", Figure5Render),
		sized("fig6", "Figure 6: scheduling failures by pod type; parameter: days simulated (§5.6)", 30, 10, Figure6Render),
		sized("fig7", "Figure 7: daily share of pod deletions due to node failures; parameter: days (§5.6)", 30, 30, Figure7Render),
		sized("fig8", "Figure 8: monthly share of learner deletions due to node failures; parameter: days (§5.6)", 150, 150, Figure8Render),
		row("sched", "scheduler scale sweep: nodes examined per pass and placement latency vs cluster size; parameter: node counts",
			[]int{1000, 5000}, []int{200, 400},
			func(sizes []int, o Options) (any, *Table, error) {
				res := SchedulerScaleSweep(sizes, SchedScaleConfig{Seed: o.Seed})
				return res, RenderSchedScale(res), nil
			}),
		row("tenant", "multi-tenant queue delay and preemption, with vs without preemption",
			MultiTenantConfig{}, MultiTenantConfig{Iterations: 2},
			func(cfg MultiTenantConfig, o Options) (any, *Table, error) {
				// Preemption on, then the no-preemption ablation over the
				// identical workload.
				cfg.Seed = o.Seed
				var res []MultiTenantResult
				for _, disable := range []bool{false, true} {
					cfg.DisablePreemption = disable
					r, err := MultiTenant(cfg)
					res = append(res, r)
					if err != nil {
						return res, RenderMultiTenant(res), err
					}
				}
				return res, RenderMultiTenant(res), nil
			}),
		row("commitlog", "commit-log crash torture; gate: zero invariant violations",
			commitlog.TortureConfig{CrashPoints: 40}, commitlog.TortureConfig{CrashPoints: 40},
			func(cfg commitlog.TortureConfig, o Options) (any, *Table, error) {
				cfg.Seed = o.Seed
				res, err := CommitlogRun(cfg)
				if err != nil {
					return res, nil, err
				}
				return res, RenderCommitlog(res), violations(res.Violations)
			}),
		row("recovery", "restart-the-world reopen latency and what survives, FileStore DataDir vs MemStore",
			RecoveryConfig{}, RecoveryConfig{Jobs: 2, Churn: 3000},
			func(cfg RecoveryConfig, o Options) (any, *Table, error) {
				cfg.Seed = o.Seed
				res, err := Recovery(cfg)
				return res, RenderRecovery(res), err
			}),
		row("obs", "observability overhead, instrumented vs DisableObs dispatch throughput; gate: median loss within 5%",
			ObsOverheadConfig{}, ObsOverheadConfig{Submitters: 16, Jobs: 32, Pairs: 3},
			func(cfg ObsOverheadConfig, o Options) (any, *Table, error) {
				cfg.Seed = o.Seed
				res, err := ObsOverhead(cfg)
				if err != nil {
					return res, nil, err
				}
				if !res.WithinBudget {
					err = fmt.Errorf("instrumented throughput %.2f%% below the ablation, over the %.0f%% budget",
						res.OverheadPct, res.TolerancePct)
				}
				return res, RenderObsOverhead(res), err
			}),
		row("chaos", "chaos soak, every fault injector at once; gate: zero invariant violations and the latency SLO",
			ChaosSoakConfig{}, ChaosSoakConfig{Users: 2, JobsPerUser: 2, Nodes: 3},
			func(cfg ChaosSoakConfig, o Options) (any, *Table, error) {
				cfg.Seed, cfg.Logf = o.Seed, o.Logf
				res, err := ChaosSoak(cfg)
				if err != nil {
					return res, nil, err
				}
				return res, RenderChaosSoak(res), violations(res.Violations)
			}),
	}
}

// violations folds a gated row's violation list into its gate error:
// nil when empty, one line per violation otherwise.
func violations(vs []string) error {
	if len(vs) == 0 {
		return nil
	}
	return errors.New(strings.Join(vs, "\n"))
}

// simConfig is the platform every FakeClock experiment boots: a
// FakeClock that auto-advances after settle of wall-clock quiet, and
// every ticker stretched. The control plane is event-driven, so the
// tickers are safety nets and lease renewals that no job waits for;
// stretching them keeps the FakeClock event count — and so the wall
// time — low over a long virtual horizon without touching any latency
// that matters. The caller stops the clock's auto-advance.
func simConfig(seed int64, settle time.Duration) (core.Config, *sim.FakeClock) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	fc.StartAutoAdvance(settle)
	return core.Config{
		Clock:             fc,
		Seed:              seed,
		PollInterval:      30 * time.Second,
		HeartbeatInterval: 2 * time.Minute,
		NodeGracePeriod:   10 * time.Minute,
		RendezvousTimeout: time.Hour,
	}, fc
}
