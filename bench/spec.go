package main

// metricDef is one line of the benchmark's schema. Bound is the share of
// the parent's median by which an end-to-end metric may get worse before
// a change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) lowerIsBetter() bool { return m.Better != "higher" }

// endToEnd is what a user of the platform sees, in the order printed.
// The bounds are calibrated (README.md, "Calibration"): the issue's
// default, or three times the widest spread any workload showed over ten
// seed-commit runs, whichever is larger, capped at the driver's 0.25.
// BENCHMARK.json carries the same values; TestSchema keeps the two equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"start_p50_ms", "ms", "lower", 0.25},
	{"start_p95_ms", "ms", "lower", 0.25},
	{"done_p50_ms", "ms", "lower", 0.25},
	{"done_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"allocs_per_job", "count", "lower", 0.02},
	{"alloc_kb_per_job", "KB", "lower", 0.03},
	{"live_kb_per_job", "KB", "lower", 0.06},
	{"status_p50_us", "us", "lower", 0.25},
	{"logs_p50_us", "us", "lower", 0.25},
}

// failedFrac is printed with the end-to-end metrics but is not one of
// BENCHMARK.json's: it is 0 on a healthy run, a bound relative to 0
// means nothing, and the result line carries the same fact as
// attempted/failed.
var failedFrac = metricDef{Name: "failed_frac", Unit: "ratio", Better: "lower"}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}
