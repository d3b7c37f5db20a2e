// Package trace synthesizes the production job-arrival traces used by
// the Spread-vs-Pack study (Fig. 3). The paper collected 60 days of
// arrivals on a 400-GPU production cluster (180 K80 + 220 V100); since
// those traces are not public, this generator produces a statistically
// similar workload: diurnal and weekly arrival modulation around
// 200-1400 jobs/day, a job-size mixture dominated by small single-GPU
// jobs with a tail of large distributed ones, and long-tailed job
// durations. The Spread/Pack comparison replays both policies on the
// *same* generated trace, so any trace with realistic size mixture
// exercises the fragmentation mechanism being measured.
package trace

import (
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// Job is one trace record.
type Job struct {
	ID      string
	Arrival time.Time
	// Duration is the execution time once started.
	Duration time.Duration
	// Learners and GPUsPerLearner shape the gang.
	Learners       int
	GPUsPerLearner int
	// GPUType is "K80" or "V100" on the production cluster.
	GPUType string
}

// Config shapes a synthetic trace.
type Config struct {
	// Days is the trace length (the paper's is 60).
	Days int
	// MeanJobsPerDay centers the arrival volume (paper: ~200-1400/day;
	// default 700).
	MeanJobsPerDay float64
	// Seed fixes the generated trace.
	Seed int64
	// Start is the trace origin.
	Start time.Time
}

func (c *Config) defaults() {
	if c.Days <= 0 {
		c.Days = 60
	}
	if c.MeanJobsPerDay <= 0 {
		c.MeanJobsPerDay = 700
	}
	if c.Seed == 0 {
		c.Seed = 60
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2019, 1, 7, 0, 0, 0, 0, time.UTC) // a Monday
	}
}

// jobShape is one entry in the size mixture.
type jobShape struct {
	learners, gpus int
	weight         float64
}

// sizeMixture reflects the paper's workload: mostly 1L×1G interactive
// jobs, with meaningful mass on 1L×2G and 1L×4G, and a distributed tail
// (2L and 4L) — the shapes used in §5.3's experiments.
var sizeMixture = []jobShape{
	{1, 1, 0.48},
	{1, 2, 0.22},
	{1, 4, 0.12},
	{2, 1, 0.08},
	{2, 2, 0.05},
	{4, 1, 0.03},
	{4, 2, 0.015},
	{2, 4, 0.005},
}

// Generate produces the trace, sorted by arrival time.
func Generate(cfg Config) []*Job {
	cfg.defaults()
	rng := sim.NewRNG(cfg.Seed)
	arrivalRNG := rng.Stream(1)
	shapeRNG := rng.Stream(2)
	durRNG := rng.Stream(3)
	typeRNG := rng.Stream(4)

	weights := make([]float64, len(sizeMixture))
	for i, s := range sizeMixture {
		weights[i] = s.weight
	}

	var jobs []*Job
	id := 0
	for day := 0; day < cfg.Days; day++ {
		dayStart := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		volume := dailyVolume(cfg.MeanJobsPerDay, day, arrivalRNG)
		for hour := 0; hour < 24; hour++ {
			rate := volume * hourlyWeight(hour)
			n := arrivalRNG.Poisson(rate)
			for k := 0; k < n; k++ {
				shape := sizeMixture[shapeRNG.WeightedChoice(weights)]
				id++
				j := &Job{
					ID:       jobID(id),
					Arrival:  dayStart.Add(time.Duration(hour) * time.Hour).Add(time.Duration(arrivalRNG.Uniform(0, 3600)) * time.Second),
					Learners: shape.learners, GPUsPerLearner: shape.gpus,
					Duration: jobDuration(durRNG),
					GPUType:  gpuType(typeRNG),
				}
				jobs = append(jobs, j)
			}
		}
	}
	sortJobs(jobs)
	return jobs
}

// dailyVolume gives each day's job budget: a weekly cycle (weekends
// ~40% of weekdays) with multiplicative noise, spanning roughly
// 200-1400 as in Fig. 3(a).
func dailyVolume(mean float64, day int, rng *sim.RNG) float64 {
	weekday := day % 7
	weekFactor := 1.0
	if weekday >= 5 {
		weekFactor = 0.45
	}
	noise := rng.LogNormal(0, 0.25)
	v := mean * weekFactor * noise
	if v < 100 {
		v = 100
	}
	return v / 24 // hourly budget base; hourlyWeight reshapes it
}

// hourlyWeight is a diurnal profile peaking during working hours
// (normalized so the 24 weights sum to 24).
func hourlyWeight(hour int) float64 {
	// Plateau 9-18h, trough 0-6h.
	switch {
	case hour >= 9 && hour < 18:
		return 1.9
	case hour >= 6 && hour < 9, hour >= 18 && hour < 22:
		return 1.0
	default:
		return 0.31
	}
}

// jobDuration draws a long-tailed duration: median ~1.4h, mean ~3.3h,
// tail into days (the paper: jobs are long running, "often taking
// several days"). At the default arrival volume this loads the 400-GPU
// production cluster to ~45% mean utilization, so diurnal peaks queue —
// the regime Fig. 3 measures.
func jobDuration(rng *sim.RNG) time.Duration {
	hours := rng.LogNormal(0.35, 1.3) // median e^0.35 ≈ 1.4h
	if hours > 96 {
		hours = 96
	}
	if hours < 0.05 {
		hours = 0.05
	}
	return time.Duration(hours * float64(time.Hour))
}

// gpuType reflects the production cluster's 180 K80 / 220 V100 split.
func gpuType(rng *sim.RNG) string {
	if rng.Bernoulli(0.45) {
		return "K80"
	}
	return "V100"
}

func jobID(n int) string {
	const digits = "0123456789"
	buf := []byte("job-0000000")
	for i := len(buf) - 1; n > 0 && i >= 4; i-- {
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf)
}

func sortJobs(jobs []*Job) {
	// Insertion-stable sort by arrival (traces are near-sorted already).
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		k := i - 1
		for k >= 0 && jobs[k].Arrival.After(j.Arrival) {
			jobs[k+1] = jobs[k]
			k--
		}
		jobs[k+1] = j
	}
}

// DailyCounts aggregates arrivals per day (Fig. 3(a)).
func DailyCounts(jobs []*Job, start time.Time, days int) []int {
	counts := make([]int, days)
	for _, j := range jobs {
		if j.Arrival.Before(start) {
			continue // duration division truncates toward zero
		}
		d := int(j.Arrival.Sub(start) / (24 * time.Hour))
		if d < days {
			counts[d]++
		}
	}
	return counts
}
