package expt

import (
	"fmt"
	"time"

	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/trace"
)

// Figure3Result holds the Spread-vs-Pack trace replay outputs.
type Figure3Result struct {
	// Days is the trace length.
	Days int
	// ArrivalsByDay is Fig. 3(a).
	ArrivalsByDay []int
	// QueuedPctSpread / QueuedPctPack are Fig. 3(b): the percentage of
	// each day's arrivals that waited > 15 minutes for placement.
	QueuedPctSpread []float64
	QueuedPctPack   []float64
}

// MeanQueuedPct averages a daily series.
func MeanQueuedPct(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Figure3 replays a synthetic 60-day production trace (400 GPUs: 180
// K80 + 220 V100) through Spread and Pack placement and counts jobs
// queued beyond the paper's 15-minute satisfaction threshold (§5.2).
// Both policies see the identical trace; only placement differs, so the
// gap isolates fragmentation.
func Figure3(cfg trace.Config) *Figure3Result {
	cfg.Days = max(cfg.Days, 1)
	jobs := trace.Generate(cfg)
	res := &Figure3Result{
		Days:          cfg.Days,
		ArrivalsByDay: trace.DailyCounts(jobs, traceStart(cfg), cfg.Days),
	}
	res.QueuedPctSpread = replayTrace(jobs, sched.Spread{}, cfg)
	res.QueuedPctPack = replayTrace(jobs, sched.Pack{}, cfg)
	return res
}

func traceStart(cfg trace.Config) time.Time {
	if cfg.Start.IsZero() {
		return time.Date(2019, 1, 7, 0, 0, 0, 0, time.UTC)
	}
	return cfg.Start
}

// productionNodes builds the 400-GPU production cluster of §5.2.
func productionNodes() []*sched.Node {
	var nodes []*sched.Node
	mk := func(n int, gpuType string, startIdx int) {
		for i := 0; i < n; i++ {
			cap := sched.Resources{MilliCPU: 64000, MemoryMB: 512000, GPUs: 4}
			nodes = append(nodes, &sched.Node{
				Name:     fmt.Sprintf("%s-%03d", gpuType, startIdx+i),
				GPUType:  gpuType,
				Capacity: cap, Free: cap,
			})
		}
	}
	mk(45, "K80", 0)  // 180 K80
	mk(55, "V100", 0) // 220 V100
	return nodes
}

// replayTrace is a discrete-event replay: arrivals enqueue gangs,
// completions free resources, and after every event the queue is
// re-dispatched in strict FCFS order. It returns the per-day percentage
// of jobs whose queue delay exceeded 15 minutes.
func replayTrace(jobs []*trace.Job, policy sched.PodPolicy, cfg trace.Config) []float64 {
	engine := sim.NewEngine(traceStart(cfg))
	cs := sched.NewClusterState(productionNodes())
	// Strict FCFS, as production FfDL dispatches (§3.6): a head-of-line
	// job blocked by fragmentation delays everything behind it, which is
	// exactly how Spread's fragmentation turns into multi-hour queueing.
	dispatcher := &sched.Dispatcher{Policy: sched.GreedyGang{Pod: policy}}
	var queue sched.Queue

	type runningJob struct {
		gang        *sched.Gang
		assignments []sched.Assignment
	}
	durations := make(map[string]time.Duration, len(jobs))
	queuedLong := make([]int, cfg.Days)
	arrivalsByDay := make([]int, cfg.Days)
	arrivalDay := make(map[string]int, len(jobs))
	longWaits := make(map[string]bool, len(jobs))
	start := traceStart(cfg)

	var dispatch func()
	finish := func(r *runningJob) {
		for i, a := range r.assignments {
			cs.Release(a.Node, r.gang.Pods[i].Demand)
		}
		dispatch()
	}
	dispatch = func() {
		placed, _ := dispatcher.Dispatch(&queue, cs, engine.Now())
		for _, pl := range placed {
			if pl.QueuedFor > 15*time.Minute {
				longWaits[pl.Gang.JobID] = true
			}
			r := &runningJob{gang: pl.Gang, assignments: pl.Assignments}
			engine.After(durations[pl.Gang.JobID], func() { finish(r) })
		}
	}

	for _, j := range jobs {
		j := j
		day := int(j.Arrival.Sub(start) / (24 * time.Hour))
		if day < 0 || day >= cfg.Days {
			continue
		}
		arrivalsByDay[day]++
		arrivalDay[j.ID] = day
		durations[j.ID] = j.Duration
		engine.At(j.Arrival, func() {
			queue.Push(traceGang(j), engine.Now())
			dispatch()
		})
	}
	// Periodic sweep: a queued job's >15-min fate must be decided even
	// if it never gets placed; sweep at day ends.
	for d := 1; d <= cfg.Days; d++ {
		engine.At(start.Add(time.Duration(d)*24*time.Hour), func() {
			now := engine.Now()
			for _, it := range queue.Items() {
				if now.Sub(it.Arrived) > 15*time.Minute {
					longWaits[it.Gang.JobID] = true
				}
			}
		})
	}
	engine.RunUntil(start.Add(time.Duration(cfg.Days) * 24 * time.Hour))

	for id, long := range longWaits {
		if long {
			if d, ok := arrivalDay[id]; ok {
				queuedLong[d]++
			}
		}
	}
	out := make([]float64, cfg.Days)
	for d := range out {
		if arrivalsByDay[d] > 0 {
			out[d] = 100 * float64(queuedLong[d]) / float64(arrivalsByDay[d])
		}
	}
	return out
}

// traceGang converts a trace job to a scheduler gang.
func traceGang(j *trace.Job) *sched.Gang {
	g := &sched.Gang{JobID: j.ID, User: "trace"}
	for i := 0; i < j.Learners; i++ {
		g.Pods = append(g.Pods, sched.PodSpec{
			Name:    fmt.Sprintf("%s-l%d", j.ID, i),
			JobID:   j.ID,
			GPUType: j.GPUType,
			Demand: sched.Resources{
				MilliCPU: 4000 * int64(j.GPUsPerLearner),
				MemoryMB: 24000 * int64(j.GPUsPerLearner),
				GPUs:     j.GPUsPerLearner,
			},
		})
	}
	return g
}

// Figure3Render formats both panels as tables.
func Figure3Render(cfg trace.Config) *Table {
	res := Figure3(cfg)
	t := &Table{
		Title:  "Figure 3: Spread vs. Pack on a synthetic production trace (400 GPUs)",
		Header: []string{"Day", "Arrivals", "% queued >15min (Spread)", "% queued >15min (Pack)"},
	}
	for d := 0; d < res.Days; d++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d+1),
			fmt.Sprintf("%d", res.ArrivalsByDay[d]),
			f2(res.QueuedPctSpread[d]),
			f2(res.QueuedPctPack[d]),
		})
	}
	ratio := 0.0
	if m := MeanQueuedPct(res.QueuedPctPack); m > 0 {
		ratio = MeanQueuedPct(res.QueuedPctSpread) / m
	}
	t.Caption = fmt.Sprintf(
		"Mean queued>15min: Spread %.2f%%, Pack %.2f%% (%.1fx fewer with Pack; paper reports >3x).",
		MeanQueuedPct(res.QueuedPctSpread), MeanQueuedPct(res.QueuedPctPack), ratio)
	return t
}
