// Command bench is the repository's wall-clock job-lifecycle benchmark:
// it boots the real platform in-process on the real clock, drives
// complete job lifecycles (Client.Submit → WatchStatus → COMPLETED)
// from two client goroutines over four fixed-count workloads, checks
// that every output is correct, and reports end-to-end metrics with
// tracing off and per-layer metrics from a separate traced run. Every
// per-layer number is taken from outside the product: client spans
// around calls into public functions, deltas of the product's public
// counters and histograms, and isolated probes of each layer's exported
// API. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench -workload all            every workload, end to end
//	go run ./bench -workload gang_mem -traced
//	go run ./bench -repeat 5                interleaved, median + quartiles
//	go run ./bench -agree                   two sets, compared by the bounds
//
// The driver's form is
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// buildDir is where the driver keeps build outputs in a checkout
// (.gitignore names it); run.sh puts the Go caches there too.
const buildDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	scale    float64
	seconds  int
	traced   bool
	repeat   int
	agree    bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the platform and the generated job stream")
	flag.Float64Var(&o.scale, "scale", 0, "multiplies every workload's job count (default: from -seconds)")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per workload the job counts are sized for at the seed commit")
	flag.BoolVar(&o.traced, "traced", false, "also make the traced run; the result line then carries the per-layer metrics")
	trace := flag.Int("trace", 0, "the driver's spelling of -traced: 0 or 1")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workloads N times interleaved, report median and quartiles")
	flag.BoolVar(&o.agree, "agree", false, "make two sets of -repeat runs (default 5) and fail if a median differs by more than its bound")
	flag.StringVar(&o.out, "out", "", "directory for <workload>.json, trace-<workload>.json and failure dumps")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	o.traced = o.traced || *trace == 1
	if o.scale <= 0 {
		o.scale = float64(o.seconds) / baseSeconds
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fatal("%v", err)
		}
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			fatal("unknown workload %q", n)
		}
	}

	switch {
	case o.agree || o.repeat > 0:
		os.Exit(repeatMode(o, names))
	case len(names) > 1:
		// Each workload runs in a process of its own, as the driver runs
		// them, so one run's heap and goroutines never colour the next.
		code := 0
		for _, n := range names {
			if _, c := child(o, n, o.seed, o.traced); c != 0 {
				code = c
			}
		}
		os.Exit(code)
	default:
		w, _ := findWorkload(names[0])
		os.Exit(single(o, w))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// maxFailedFrac is the share of operations that may fail — a job not
// COMPLETED within its deadline, a read that errors — before the gate
// fails the run. Failures are always counted and reported; this is the
// issue's absolute bound on failed_frac, and it keeps one lost wake-up in
// thousands of jobs (seen at the seed commit about once in a hundred
// runs) from being reported as wrong output.
const maxFailedFrac = 0.001

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the full per-workload output written under -out.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Scale     float64          `json:"scale"`
	Jobs      int              `json:"jobs"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"` // operations that failed (counted in Failed)
	Problems  []string         `json:"problems,omitempty"` // wrong outputs: what makes Correct false
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	GoVersion string           `json:"go_version"`
	CPUs      int              `json:"cpus"`
}

// phaseResult is what one measured phase (untraced or traced) yields.
type phaseResult struct {
	r          *run
	e2e        *metrics
	reopenS    float64
	goroutines int
}

// runPhase sets the platform up, measures, checks and stops it, then
// sets up setupRounds-1 more platforms only to time them. The extra
// rounds come last so the measured phase sees the heap and filesystem of
// one set-up, not five.
func runPhase(o options, w workload, traced bool, scratch string) (*phaseResult, error) {
	pr := &phaseResult{}
	dir := filepath.Join(scratch, fmt.Sprintf("t%v", traced))
	r, d, err := setUp(w, o.seed, dir, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{d.Seconds()}
	r.traced, r.outDir = traced, o.out
	r.measure(w.jobCount(o.scale))
	if w.Burst == 0 {
		r.readSweep()
	}
	ctx, cancel := context.WithTimeout(context.Background(), workloadCap)
	r.verify(ctx, r.client)
	cancel()
	r.quiesce()
	r.p.Stop()
	pr.goroutines = goroutinesAfterStop()
	if w.Durable {
		pr.reopenS = r.reopen().Seconds()
	}
	for round := 1; round < setupRounds; round++ {
		extra, d, err := setUp(w, o.seed, dir, round)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		extra.p.Stop()
		setups = append(setups, d.Seconds())
	}
	pr.r = r
	pr.e2e = r.endToEndMetrics(time.Duration(median(setups) * float64(time.Second)))
	return pr, nil
}

// single runs one workload in this process and prints its result line.
func single(o options, w workload) int {
	// Everything the run writes (DataDirs, probe logs) lives under the
	// build directory of the checkout and is removed afterwards.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal("%v", err)
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		os.RemoveAll(scratch)
		if w.Durable {
			// Flush the deletions too, so the next run starts from a quiet
			// filesystem however soon it follows this one.
			syscall.Sync()
		}
	}()

	jobs := w.jobCount(o.scale)
	fmt.Printf("== %s: %d jobs (scale %.3f), seed %d, %d clients ==\n", w.Name, jobs, o.scale, o.seed, clients)
	fmt.Printf("   %s\n", w.Why)

	plain, err := runPhase(o, w, false, scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	rep := report{
		Workload: w.Name, Seed: o.seed, Scale: o.scale, Jobs: jobs,
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
	}
	rep.Attempted = len(plain.r.samples)
	rep.Failed = plain.r.failedJobs() + plain.r.readErrs
	rep.Failures = plain.r.describeFailures()
	rep.Problems = plain.r.problems
	var missing []string
	rep.EndToEnd, missing = plain.e2e.pick(append(endToEnd[:len(endToEnd):len(endToEnd)], failedFrac))
	printMetrics("end to end (tracing off)", plain.e2e)

	line := resultLine{Attempted: rep.Attempted, Failed: rep.Failed}
	line.Metrics, _ = plain.e2e.pick(endToEnd)

	if o.traced {
		traced, err := runPhase(o, w, true, scratch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (traced): %v\n", w.Name, err)
			return 1
		}
		layer := newMetrics()
		traced.r.layerMetrics(layer, plain.e2e.get("jobs_per_s"), traced.reopenS, traced.goroutines)
		runProbes(layer, filepath.Join(scratch, "probes"))
		budgetMetrics(layer, traced.e2e.get("cpu_ms_per_job"), w.Durable)
		printMetrics("per layer (traced run)", layer)
		printBudget(layer)
		var miss []string
		rep.PerLayer, miss = layer.pick(perLayer)
		missing = append(missing, miss...)
		rep.Attempted += len(traced.r.samples)
		rep.Failed += traced.r.failedJobs() + traced.r.readErrs
		rep.Failures = append(rep.Failures, traced.r.describeFailures()...)
		rep.Problems = append(rep.Problems, traced.r.problems...)
		if o.out != "" {
			if err := writeChromeTrace(filepath.Join(o.out, "trace-"+w.Name+".json"), traced.r); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			}
		}
		line.Metrics = rep.PerLayer
		line.Attempted, line.Failed = rep.Attempted, rep.Failed
	}
	for _, name := range missing {
		rep.Problems = append(rep.Problems, "metric not produced: "+name)
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	if frac := ratio(float64(rep.Failed), float64(rep.Attempted)); frac > maxFailedFrac {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d operations failed, more than %g", rep.Failed, rep.Attempted, maxFailedFrac))
	}
	rep.Correct = len(rep.Problems) == 0
	line.Correct = rep.Correct
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
	if rep.Correct {
		fmt.Printf("correctness gate: ok (%d jobs)\n", rep.Attempted)
	}
	if o.out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(filepath.Join(o.out, w.Name+".json"), append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("%s\n", data)
	if !rep.Correct {
		return 1
	}
	return 0
}

// printMetrics prints one block of name = value unit lines.
func printMetrics(title string, m *metrics) {
	fmt.Printf("-- %s --\n", title)
	for _, n := range m.names {
		v := m.vals[n]
		fmt.Printf("   %-38s %14.4f %s\n", n, v.Value, v.Unit)
	}
}

// printBudget prints the external layer budget beside the CPU a job costs.
func printBudget(m *metrics) {
	fmt.Printf("-- layer budget: ops/job in situ x probe us/op --\n")
	cpu := m.get("budget.cpu_us_per_job")
	for _, d := range budgetDefs {
		fmt.Printf("   %-38s %14.1f us  (%5.1f%% of CPU/job)\n", d.Name, m.get(d.Name), 100*ratio(m.get(d.Name), cpu))
	}
}
