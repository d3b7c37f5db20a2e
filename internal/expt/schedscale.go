package expt

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// The scheduler scale experiment: not a figure from the paper, but the
// repo's own scaling trajectory for the control plane. It drives the
// live kube orchestrator at cluster sizes well beyond the paper's
// 680-GPU deployment (§5.5) and measures what the dirty-set scheduler
// and the capacity index were built to bound: scheduling passes per
// second, nodes examined per pass (which must stay roughly flat as the
// cluster grows — the "cost proportional to what changed" property),
// and end-to-end placement latency under gang churn.

// SchedScaleConfig parameterizes one scale run.
type SchedScaleConfig struct {
	// Nodes is the number of worker machines.
	Nodes int
	// GPUsPerNode is each machine's GPU count. Default 4.
	GPUsPerNode int
	// GPUTypes is cycled across machines and gangs. Default the
	// paper's fleet: K80, P100, V100.
	GPUTypes []string
	// Gangs is the number of jobs submitted. Default Nodes/2 (≈94%
	// aggregate GPU demand with the default gang mix, so late gangs
	// queue and exercise the freed-capacity wake path).
	Gangs int
	// GangSizes is the learners-per-job mix, cycled. Default 1,2,4,8.
	GangSizes []int
	// GPUsPerPod is each learner's GPU demand. Default 1.
	GPUsPerPod int
	// JobDuration is how long each learner runs once started. Default
	// 30ms — short enough to generate churn within the run.
	JobDuration time.Duration
	// Waves splits submission into bursts JobDuration apart. Default 4.
	Waves int
	// Seed drives placement randomness.
	Seed int64
	// Timeout bounds the whole run. Default 60s.
	Timeout time.Duration
}

func (c *SchedScaleConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1000
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 4
	}
	if len(c.GPUTypes) == 0 {
		c.GPUTypes = []string{"K80", "P100", "V100"}
	}
	if c.Gangs <= 0 {
		c.Gangs = c.Nodes / 2
	}
	if len(c.GangSizes) == 0 {
		c.GangSizes = []int{1, 2, 4, 8}
	}
	if c.GPUsPerPod <= 0 {
		c.GPUsPerPod = 1
	}
	if c.JobDuration <= 0 {
		c.JobDuration = 30 * time.Millisecond
	}
	if c.Waves <= 0 {
		c.Waves = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
}

// SchedScaleResult reports one scale run.
type SchedScaleResult struct {
	Nodes int `json:"nodes"`
	GPUs  int `json:"gpus"`
	Gangs int `json:"gangs"`
	Pods  int `json:"pods"`
	// Placed counts pods that were bound and ran to completion within
	// the timeout; a healthy run places every pod.
	Placed int `json:"placed"`

	Passes        uint64 `json:"passes"`
	FullScans     uint64 `json:"full_scans"`
	NodesExamined uint64 `json:"nodes_examined"`
	EventsSeen    uint64 `json:"events_seen"`
	EventsIgnored uint64 `json:"events_ignored"`

	// NodesExaminedPerPass is the scalability headline: with the
	// capacity index it tracks the feasible-candidate budget, not the
	// cluster size.
	NodesExaminedPerPass float64 `json:"nodes_examined_per_pass"`
	PassesPerSec         float64 `json:"passes_per_sec"`
	MeanPlacementMs      float64 `json:"mean_placement_ms"`
	P99PlacementMs       float64 `json:"p99_placement_ms"`
	WallSeconds          float64 `json:"wall_seconds"`
}

// SchedulerScale runs the experiment on a live kube cluster with the
// production scheduling stack: BSA gang placement (candidate-capped for
// constant per-step work) over Pack, driven entirely by store watch
// events.
func SchedulerScale(cfg SchedScaleConfig) SchedScaleResult {
	cfg.defaults()
	rng := sim.NewRNG(cfg.Seed)
	c := kube.NewCluster(kube.Config{
		RNG:               rng.Stream(1),
		PodPolicy:         sched.Pack{},
		GangPolicy:        &sched.BSA{Samples: 8, Theta: 4, CandidateCap: 64, RNG: rng.Stream(2)},
		HeartbeatInterval: 250 * time.Millisecond,
		NodeGracePeriod:   time.Minute,
		StartDelay:        func(string) time.Duration { return 0 },
	})
	defer c.Stop()

	perGPU := func(gpus int) sched.Resources {
		return sched.Resources{MilliCPU: int64(4000 * gpus), MemoryMB: int64(24000 * gpus), GPUs: gpus}
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.AddNode(fmt.Sprintf("node-%05d", i), cfg.GPUTypes[i%len(cfg.GPUTypes)], perGPU(cfg.GPUsPerNode))
	}
	c.RegisterRuntime("learner", func(ctx *kube.PodContext) int {
		select {
		case <-ctx.Clock.After(cfg.JobDuration):
			return 0
		case <-ctx.Stop:
			return 137
		}
	})

	// Submit gangs in waves; remember each pod's submission instant for
	// the placement-latency distribution.
	start := time.Now()
	submitted := make(map[string]time.Time)
	pods := 0
	perWave := (cfg.Gangs + cfg.Waves - 1) / cfg.Waves
	for g := 0; g < cfg.Gangs; g++ {
		if g > 0 && g%perWave == 0 {
			time.Sleep(cfg.JobDuration)
		}
		jobID := fmt.Sprintf("job-%05d", g)
		size := cfg.GangSizes[g%len(cfg.GangSizes)]
		gpuType := cfg.GPUTypes[g%len(cfg.GPUTypes)]
		for l := 0; l < size; l++ {
			name := fmt.Sprintf("%s-l%d", jobID, l)
			submitted[name] = time.Now()
			c.Store().PutPod(&kube.Pod{
				Name: name,
				Spec: kube.PodSpec{
					Demand: perGPU(cfg.GPUsPerPod), GPUType: gpuType,
					JobID: jobID, GangSize: size,
					Runtime: "learner", Type: "learner",
				},
			})
			pods++
		}
	}

	// Wait for the churn to drain: every pod placed and completed.
	deadline := start.Add(cfg.Timeout)
	done := 0
	for time.Now().Before(deadline) {
		done = 0
		for _, p := range c.Store().ListPods("job-") {
			if p.Status.Phase == kube.PodSucceeded {
				done++
			}
		}
		if done == pods {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	wall := time.Since(start)

	var latencies []float64
	for _, p := range c.Store().ListPods("job-") {
		sub, ok := submitted[p.Name]
		if !ok || p.Status.ScheduledAt.IsZero() {
			continue
		}
		latencies = append(latencies, float64(p.Status.ScheduledAt.Sub(sub).Microseconds())/1000)
	}
	sort.Float64s(latencies)

	stats := c.SchedStats()
	res := SchedScaleResult{
		Nodes: cfg.Nodes, GPUs: cfg.Nodes * cfg.GPUsPerNode,
		Gangs: cfg.Gangs, Pods: pods, Placed: done,
		Passes: stats.Passes, FullScans: stats.FullScans,
		NodesExamined: stats.NodesExamined,
		EventsSeen:    stats.EventsSeen, EventsIgnored: stats.EventsIgnored,
		WallSeconds: wall.Seconds(),
	}
	if stats.Passes > 0 {
		res.NodesExaminedPerPass = float64(stats.NodesExamined) / float64(stats.Passes)
	}
	if wall > 0 {
		res.PassesPerSec = float64(stats.Passes) / wall.Seconds()
	}
	if len(latencies) > 0 {
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		res.MeanPlacementMs = sum / float64(len(latencies))
		res.P99PlacementMs = latencies[min(len(latencies)-1, len(latencies)*99/100)]
	}
	return res
}

// SchedulerScaleSweep runs the experiment at several cluster sizes with
// an otherwise identical workload, which is how sublinearity is
// demonstrated: same gangs, growing fleet, flat nodes-examined-per-pass.
// A zero base.Gangs sizes the workload to the smallest cluster.
func SchedulerScaleSweep(sizes []int, base SchedScaleConfig) []SchedScaleResult {
	if base.Gangs <= 0 && len(sizes) > 0 {
		base.Gangs = slices.Min(sizes) / 2
	}
	out := make([]SchedScaleResult, 0, len(sizes))
	for _, n := range sizes {
		cfg := base
		cfg.Nodes = n
		out = append(out, SchedulerScale(cfg))
	}
	return out
}

// RenderSchedScale formats already-computed sweep results.
func RenderSchedScale(results []SchedScaleResult) *Table {
	t := &Table{
		Title: "Scheduler scale: dirty-set wakes + indexed placement",
		Header: []string{"Nodes", "GPUs", "Pods", "Placed", "Passes", "Full scans",
			"Examined/pass", "Passes/s", "Place mean (ms)", "Place p99 (ms)", "Events ignored"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.GPUs),
			fmt.Sprintf("%d", r.Pods), fmt.Sprintf("%d", r.Placed),
			fmt.Sprintf("%d", r.Passes), fmt.Sprintf("%d", r.FullScans),
			fmt.Sprintf("%.0f", r.NodesExaminedPerPass),
			fmt.Sprintf("%.0f", r.PassesPerSec),
			fmt.Sprintf("%.2f", r.MeanPlacementMs),
			fmt.Sprintf("%.2f", r.P99PlacementMs),
			fmt.Sprintf("%d", r.EventsIgnored),
		})
	}
	if len(results) >= 2 {
		first, last := results[0], results[len(results)-1]
		if first.NodesExaminedPerPass > 0 && first.Nodes > 0 {
			t.Caption = fmt.Sprintf(
				"%dx more nodes -> %.1fx nodes-examined-per-pass (sublinear; controller-object and unchanged-node events dropped at the wake filter: %d of %d).",
				last.Nodes/first.Nodes, last.NodesExaminedPerPass/first.NodesExaminedPerPass,
				last.EventsIgnored, last.EventsSeen)
		}
	}
	return t
}
