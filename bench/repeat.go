package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// child runs one workload in a fresh process of this same binary, passes
// its report through, and returns its result line. A fresh process per
// run is how the driver measures, so it is how -repeat and -agree
// measure too.
func child(o options, name string, seed int64, traced bool) (resultLine, int) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return line, 2
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
	}
	if traced {
		args = append(args, "-traced")
	}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var last []byte
	pr, pw := io.Pipe()
	cmd.Stdout = pw
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			if last != nil && !o.quiet() {
				fmt.Printf("%s\n", last)
			}
			last = append(last[:0], sc.Bytes()...)
		}
	}()
	err = cmd.Run()
	pw.Close()
	<-done
	code := 0
	if err != nil {
		code = 1
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
	}
	if jerr := json.Unmarshal(bytes.TrimSpace(last), &line); jerr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s printed no result line: %v\n", name, jerr)
		if code == 0 {
			code = 1
		}
	}
	return line, code
}

// quiet suppresses the children's per-run reports when many runs are
// being summarised.
func (o options) quiet() bool { return o.agree || o.repeat > 0 }

// set is one interleaved series of runs: values[workload][metric] holds
// one number per repeat.
type set struct {
	values map[string]map[string][]float64
	failed int
	code   int
}

// runSet makes n rounds over the workloads, A B C D A B C D, each run
// with a seed of its own.
func runSet(o options, names []string, n int, seed0 int64) set {
	s := set{values: map[string]map[string][]float64{}}
	for _, name := range names {
		s.values[name] = map[string][]float64{}
	}
	for round := 0; round < n; round++ {
		for _, name := range names {
			seed := seed0 + int64(round)
			line, code := child(o, name, seed, false)
			if code != 0 {
				s.code = code
			}
			s.failed += line.Failed
			fmt.Printf("   %-15s seed %-4d jobs/s %8.1f  done p50 %7.3f ms  failed %d/%d\n", name, seed,
				line.Metrics["jobs_per_s"].Value, line.Metrics["done_p50_ms"].Value, line.Failed, line.Attempted)
			for _, d := range endToEnd {
				s.values[name][d.Name] = append(s.values[name][d.Name], line.Metrics[d.Name].Value)
			}
		}
	}
	return s
}

// repeatMode implements -repeat and -agree.
func repeatMode(o options, names []string) int {
	n := o.repeat
	if n <= 0 {
		n = 5
	}
	fmt.Printf("== set A: %d rounds over %v, scale %.3f ==\n", n, names, o.scale)
	a := runSet(o, names, n, o.seed)
	summarise(names, a)
	code := a.code
	if o.out != "" {
		data, _ := json.MarshalIndent(a.row(o, names, n), "", "  ")
		if err := os.WriteFile(filepath.Join(o.out, "summary.json"), append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}
	if !o.agree {
		return code
	}
	fmt.Printf("== set B: %d rounds ==\n", n)
	b := runSet(o, names, n, o.seed+int64(n))
	summarise(names, b)
	if b.code != 0 {
		code = b.code
	}
	fmt.Printf("== agreement: median of B against median of A, by each metric's bound ==\n")
	for _, name := range names {
		for _, d := range endToEnd {
			ma, mb := median(a.values[name][d.Name]), median(b.values[name][d.Name])
			// The two sets are the same code, so neither is the parent:
			// each must be within the bound of the other.
			lower := d.lowerIsBetter()
			verdict := "ok"
			if !withinBound(ma, mb, d.Bound, lower) || !withinBound(mb, ma, d.Bound, lower) {
				verdict = "DISAGREE"
				code = 1
			}
			w := math.Max(worseBy(ma, mb, lower), worseBy(mb, ma, lower))
			fmt.Printf("   %-15s %-18s A %12.4f  B %12.4f  differ %6.2f%%  bound %5.1f%%  %s\n",
				name, d.Name, ma, mb, 100*w, 100*d.Bound, verdict)
		}
	}
	return code
}

// quartileSummary is one metric's steadiness over a set of runs.
type quartileSummary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// trajectoryRow is one row of trajectory.json: the medians of one commit.
// -repeat with -out writes it as summary.json; copy it into the
// trajectory with the commit filled in.
type trajectoryRow struct {
	Commit   string                                `json:"commit"`
	Scale    float64                               `json:"scale"`
	Runs     int                                   `json:"runs"`
	EndToEnd map[string]map[string]quartileSummary `json:"end_to_end"`
}

func (s set) row(o options, names []string, n int) trajectoryRow {
	row := trajectoryRow{Scale: o.scale, Runs: n, EndToEnd: map[string]map[string]quartileSummary{}}
	for _, name := range names {
		row.EndToEnd[name] = map[string]quartileSummary{}
		for _, d := range endToEnd {
			vs := s.values[name][d.Name]
			q1, q3 := quartiles(vs)
			row.EndToEnd[name][d.Name] = quartileSummary{median(vs), q1, q3}
		}
	}
	return row
}

// summarise prints median, quartiles and spread per workload and metric,
// and the bound a metric that steady could carry (three spreads, so the
// spread stays under a third of the bound).
func summarise(names []string, s set) {
	for _, name := range names {
		fmt.Printf("-- %s --\n", name)
		fmt.Printf("   %-18s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range endToEnd {
			vs := s.values[name][d.Name]
			q1, q3 := quartiles(vs)
			sp := spread(vs)
			note := ""
			if 3*sp > d.Bound {
				note = fmt.Sprintf("  spread needs a bound of %.1f%%", 300*sp)
			}
			fmt.Printf("   %-18s %12.4f %12.4f %12.4f %7.2f%% %7.1f%%%s\n",
				d.Name, median(vs), q1, q3, 100*sp, 100*d.Bound, note)
		}
	}
	if s.failed > 0 {
		fmt.Printf("   %d failed operations across the set\n", s.failed)
	}
}
