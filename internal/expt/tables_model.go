package expt

import (
	"fmt"

	"github.com/ffdl/ffdl/internal/perf"
)

// --- Table 1: FfDL vs bare metal overhead ---

// Table1Row is one (benchmark, configuration) overhead measurement.
type Table1Row struct {
	Model     perf.Model
	Framework perf.Framework
	Learners  int
	GPUsPerL  int
	// Overhead is the fractional throughput decrease vs bare metal.
	Overhead float64
	// FfDLImagesPerSec and BareImagesPerSec are the absolute rates.
	FfDLImagesPerSec float64
	BareImagesPerSec float64
}

// table1Configs are the paper's eight job shapes.
var table1Configs = []struct{ l, g int }{
	{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {2, 4}, {4, 2}, {4, 4},
}

// Table1 reproduces the §5.1 overhead study: VGG-16/Caffe and
// InceptionV3/TensorFlow across 8 learner×GPU configurations on K80s.
func Table1() []Table1Row {
	benches := []struct {
		m  perf.Model
		fw perf.Framework
	}{
		{perf.VGG16, perf.Caffe},
		{perf.InceptionV3, perf.TensorFlow},
	}
	var rows []Table1Row
	for _, b := range benches {
		for _, cf := range table1Configs {
			c := perf.Config{
				Model: b.m, Framework: b.fw, GPUType: perf.K80,
				Learners: cf.l, GPUsPerL: cf.g, CPUThreads: 8, BatchSize: 64,
			}
			bare := perf.BareMetalThroughput(c)
			ffdl := perf.FfDLThroughput(c)
			rows = append(rows, Table1Row{
				Model: b.m, Framework: b.fw, Learners: cf.l, GPUsPerL: cf.g,
				Overhead:         perf.FfDLOverhead(c),
				FfDLImagesPerSec: ffdl, BareImagesPerSec: bare,
			})
		}
	}
	return rows
}

// Table1Render formats the rows like the paper's Table 1.
func Table1Render() *Table {
	t := &Table{
		Title:  "Table 1: Performance overhead of FfDL vs. Bare Metal (images/sec)",
		Header: []string{"Benchmark", "Config", "Bare Metal", "FfDL", "Decr. in Perf."},
		Caption: "Paper reports 0.32%-5.35% across these configurations; " +
			"shape preserved: overhead grows with distribution, stays < ~5.5%.",
	}
	for _, r := range Table1() {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s/%s", r.Model, r.Framework),
			fmt.Sprintf("%dL x %dGPU/L", r.Learners, r.GPUsPerL),
			f1(r.BareImagesPerSec), f1(r.FfDLImagesPerSec), pct(r.Overhead),
		})
	}
	return t
}

// --- Table 2: FfDL vs NVIDIA DGX-1 ---

// Table2Row is one DGX-1 comparison measurement.
type Table2Row struct {
	Model perf.Model
	GPUs  int
	// Gap is the fractional throughput advantage of the DGX-1.
	Gap float64
}

// Table2 reproduces the §5.1 DGX-1 comparison on TensorFlow P100
// configurations.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, gpus := range []int{1, 2} {
		for _, m := range []perf.Model{perf.InceptionV3, perf.ResNet50, perf.VGG16} {
			c := perf.Config{
				Model: m, Framework: perf.TensorFlow, GPUType: perf.P100,
				Learners: 1, GPUsPerL: gpus, CPUThreads: 28, BatchSize: 64,
			}
			rows = append(rows, Table2Row{Model: m, GPUs: gpus, Gap: perf.DGXGap(c)})
		}
	}
	return rows
}

// Table2Render formats Table 2.
func Table2Render() *Table {
	t := &Table{
		Title:  "Table 2: Performance overhead of FfDL vs. NVIDIA DGX-1 (TensorFlow)",
		Header: []string{"Benchmark", "# GPUs", "GPU Type", "Difference in Performance"},
		Caption: "Paper: 3.3-7.8% at 1 GPU, 10.1-13.7% at 2 GPUs (NVLink advantage); " +
			"shape preserved: gap grows with GPUs, bounded by ~15%.",
	}
	for _, r := range Table2() {
		t.Rows = append(t.Rows, []string{string(r.Model), fmt.Sprintf("%d", r.GPUs), "P100", pct(r.Gap)})
	}
	return t
}

// --- Table 4: VGG-16/Caffe CPU-thread scaling ---

// Table4Row is throughput at a CPU-thread count for two GPU types.
type Table4Row struct {
	Threads  int
	P100Thpt float64 // 0 when the paper leaves the cell empty
	V100Thpt float64
}

// Table4 reproduces the §5.4 Caffe CPU-scaling sweep (batch size 75).
func Table4() []Table4Row {
	mk := func(g perf.GPUType, threads int) float64 {
		return perf.BareMetalThroughput(perf.Config{
			Model: perf.VGG16, Framework: perf.Caffe, GPUType: g,
			Learners: 1, GPUsPerL: 1, CPUThreads: threads, BatchSize: 75,
		})
	}
	var rows []Table4Row
	for _, th := range []int{2, 4, 8, 16, 28} {
		r := Table4Row{Threads: th, V100Thpt: mk(perf.V100, th)}
		if th <= 8 {
			// The paper stops the P100 sweep at 8 threads (already
			// saturated).
			r.P100Thpt = mk(perf.P100, th)
		}
		rows = append(rows, r)
	}
	return rows
}

// Table4Render formats Table 4.
func Table4Render() *Table {
	t := &Table{
		Title:   "Table 4: Throughput (images/sec) scaling of VGG-16/Caffe with CPU threads (batch 75)",
		Header:  []string{"CPU-threads", "thpt-1P100", "thpt-1V100"},
		Caption: "Paper: P100 ~66, V100 ~107, both saturated by 4-8 threads.",
	}
	for _, r := range Table4() {
		p := ""
		if r.P100Thpt > 0 {
			p = f2(r.P100Thpt)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", r.Threads), p, f2(r.V100Thpt)})
	}
	return t
}

// --- Table 5: T-shirt sizes ---

// Table5Render formats the t-shirt size catalog.
func Table5Render() *Table {
	t := &Table{
		Title:   "Table 5: T-shirt size recommendation for FfDL jobs",
		Header:  []string{"GPU-type", "CPU", "memory (GB)"},
		Caption: "Derived by saturating GPUs via the CPU-scaling model, then rounding up (§5.4).",
	}
	for _, s := range perf.StandardSizes() {
		t.Rows = append(t.Rows, []string{s.Label(), fmt.Sprintf("%d", s.CPU), fmt.Sprintf("%d", s.MemoryGB)})
	}
	return t
}

// --- Table 6: TensorFlow CPU scaling + GPU utilization ---

// Table6Row is throughput and utilization per model at a thread count.
type Table6Row struct {
	Threads int
	Model   perf.Model
	Thpt    float64
	Util    float64
}

// Table6 reproduces the §5.4 TensorFlow sweep on V100, batch 128.
func Table6() []Table6Row {
	var rows []Table6Row
	for _, th := range []int{16, 28} {
		for _, m := range []perf.Model{perf.InceptionV3, perf.ResNet50, perf.VGG16} {
			c := perf.Config{
				Model: m, Framework: perf.TensorFlow, GPUType: perf.V100,
				Learners: 1, GPUsPerL: 1, CPUThreads: th, BatchSize: 128,
			}
			rows = append(rows, Table6Row{
				Threads: th, Model: m,
				Thpt: perf.BareMetalThroughput(c),
				Util: perf.GPUUtilization(c),
			})
		}
	}
	return rows
}

// Table6Render formats Table 6.
func Table6Render() *Table {
	t := &Table{
		Title:   "Table 6: TensorFlow throughput (images/sec) and GPU utilization on 1 V100, batch 128",
		Header:  []string{"CPU-threads", "InceptionV3", "Resnet-50", "VGG-16"},
		Caption: "Paper: TF benefits up to 28 threads; utilizations 86.8-98.7%.",
	}
	byThreads := map[int]map[perf.Model]Table6Row{}
	for _, r := range Table6() {
		if byThreads[r.Threads] == nil {
			byThreads[r.Threads] = map[perf.Model]Table6Row{}
		}
		byThreads[r.Threads][r.Model] = r
	}
	for _, th := range []int{16, 28} {
		cells := []string{fmt.Sprintf("%d", th)}
		for _, m := range []perf.Model{perf.InceptionV3, perf.ResNet50, perf.VGG16} {
			r := byThreads[th][m]
			cells = append(cells, fmt.Sprintf("%s (%.1f%%)", f1(r.Thpt), 100*r.Util))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}
