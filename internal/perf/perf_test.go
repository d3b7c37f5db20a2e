package perf

import (
	"testing"
	"testing/quick"
)

func TestPeakThroughputCalibration(t *testing.T) {
	// Table 4: VGG-16/Caffe saturated: P100 ≈ 66, V100 ≈ 107.5 img/s.
	cases := []struct {
		cfg      Config
		lo, hi   float64
		describe string
	}{
		{Config{Model: VGG16, Framework: Caffe, GPUType: P100, GPUsPerL: 1, Learners: 1, CPUThreads: 8},
			62, 70, "VGG/Caffe P100"},
		{Config{Model: VGG16, Framework: Caffe, GPUType: V100, GPUsPerL: 1, Learners: 1, CPUThreads: 8},
			102, 112, "VGG/Caffe V100"},
		// Table 6: TF V100 at 28 threads: Inception ≈ 224, RN50 ≈ 346,
		// VGG ≈ 216.
		{Config{Model: InceptionV3, Framework: TensorFlow, GPUType: V100, GPUsPerL: 1, Learners: 1, CPUThreads: 28},
			210, 240, "Inception/TF V100"},
		{Config{Model: ResNet50, Framework: TensorFlow, GPUType: V100, GPUsPerL: 1, Learners: 1, CPUThreads: 28},
			330, 370, "RN50/TF V100"},
		{Config{Model: VGG16, Framework: TensorFlow, GPUType: V100, GPUsPerL: 1, Learners: 1, CPUThreads: 28},
			205, 225, "VGG/TF V100"},
	}
	for _, tc := range cases {
		got := BareMetalThroughput(tc.cfg)
		if got < tc.lo || got > tc.hi {
			t.Errorf("%s throughput = %.1f, want in [%.0f, %.0f]", tc.describe, got, tc.lo, tc.hi)
		}
	}
}

func TestCaffeSaturatesEarlyTFLate(t *testing.T) {
	// Table 4: Caffe flat from 2→28 threads (<2% gain).
	caffe2 := cpuEfficiency(Caffe, 2)
	caffe28 := cpuEfficiency(Caffe, 28)
	if (caffe28-caffe2)/caffe2 > 0.02 {
		t.Fatalf("Caffe gained %.1f%% from 2→28 threads, want <2%%", 100*(caffe28-caffe2)/caffe2)
	}
	// Table 6: TF gains measurably from 16→28 threads (Inception +2.7%).
	tf16 := cpuEfficiency(TensorFlow, 16)
	tf28 := cpuEfficiency(TensorFlow, 28)
	gain := (tf28 - tf16) / tf16
	if gain < 0.005 || gain > 0.05 {
		t.Fatalf("TF 16→28 thread gain = %.2f%%, want 0.5-5%%", 100*gain)
	}
}

func TestGPUGenerationOrdering(t *testing.T) {
	for _, m := range []Model{VGG16, ResNet50, InceptionV3} {
		for _, fw := range []Framework{Caffe, TensorFlow} {
			base := Config{Model: m, Framework: fw, GPUsPerL: 1, Learners: 1, CPUThreads: 28}
			k80, p100, v100 := base, base, base
			k80.GPUType, p100.GPUType, v100.GPUType = K80, P100, V100
			tk, tp, tv := BareMetalThroughput(k80), BareMetalThroughput(p100), BareMetalThroughput(v100)
			if !(tk < tp && tp < tv) {
				t.Fatalf("%s/%s: K80=%.1f P100=%.1f V100=%.1f not ordered", m, fw, tk, tp, tv)
			}
		}
	}
}

func TestFfDLOverheadInPaperBand(t *testing.T) {
	// Table 1 reports 0.32%..5.35% across these 8 configs x 2 benchmarks.
	configs := []struct{ l, g int }{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {2, 4}, {4, 2}, {4, 4}}
	for _, bench := range []struct {
		m  Model
		fw Framework
	}{{VGG16, Caffe}, {InceptionV3, TensorFlow}} {
		for _, cf := range configs {
			c := Config{Model: bench.m, Framework: bench.fw, GPUType: K80, Learners: cf.l, GPUsPerL: cf.g, CPUThreads: 8}
			ov := FfDLOverhead(c)
			if ov < 0.002 || ov > 0.055 {
				t.Errorf("%s %s overhead = %.2f%%, outside paper band", bench.m, c, 100*ov)
			}
		}
	}
}

func TestOverheadGrowsWithDistribution(t *testing.T) {
	small := Config{Model: VGG16, Framework: Caffe, GPUType: K80, Learners: 1, GPUsPerL: 1, CPUThreads: 8}
	large := Config{Model: VGG16, Framework: Caffe, GPUType: K80, Learners: 4, GPUsPerL: 4, CPUThreads: 8}
	// Compare structural components without jitter by averaging over the
	// band: 4L×4G must exceed 1L×1G in expectation; with our
	// deterministic jitter just assert the actual values are ordered.
	if FfDLOverhead(large) <= FfDLOverhead(small) {
		t.Fatalf("overhead did not grow with distribution: %f vs %f",
			FfDLOverhead(large), FfDLOverhead(small))
	}
}

func TestDGXGapBands(t *testing.T) {
	// Table 2: 1-GPU gaps 3.3-7.9%, 2-GPU gaps 10.1-13.7%, all ≤ 15%.
	for _, m := range []Model{InceptionV3, ResNet50, VGG16} {
		c1 := Config{Model: m, Framework: TensorFlow, GPUType: P100, Learners: 1, GPUsPerL: 1, CPUThreads: 28}
		c2 := c1
		c2.GPUsPerL = 2
		g1, g2 := DGXGap(c1), DGXGap(c2)
		if g1 < 0.02 || g1 > 0.09 {
			t.Errorf("%s 1-GPU DGX gap = %.2f%%, want 2-9%%", m, 100*g1)
		}
		if g2 < 0.09 || g2 > 0.15 {
			t.Errorf("%s 2-GPU DGX gap = %.2f%%, want 9-15%%", m, 100*g2)
		}
		if g2 <= g1 {
			t.Errorf("%s: 2-GPU gap %.3f not larger than 1-GPU gap %.3f", m, g2, g1)
		}
	}
}

func TestTShirtSizesMatchTable5(t *testing.T) {
	want := map[string]struct{ cpu, mem int }{
		"1-K80":  {4, 24},
		"2-K80":  {8, 48},
		"4-K80":  {16, 96},
		"1-P100": {8, 24},
		"2-P100": {16, 48},
		"1-V100": {26, 24},
		"2-V100": {42, 48},
	}
	for _, size := range StandardSizes() {
		w, ok := want[size.Label()]
		if !ok {
			t.Errorf("unexpected size %s", size.Label())
			continue
		}
		if size.CPU != w.cpu || size.MemoryGB != w.mem {
			t.Errorf("%s = %d CPU / %d GB, want %d / %d",
				size.Label(), size.CPU, size.MemoryGB, w.cpu, w.mem)
		}
	}
}

func TestGPUUtilizationMatchesTable6Band(t *testing.T) {
	// Table 6 shows 86.8-98.7% utilization at 16-28 threads on V100.
	for _, m := range []Model{InceptionV3, ResNet50, VGG16} {
		for _, threads := range []int{16, 28} {
			c := Config{Model: m, Framework: TensorFlow, GPUType: V100, Learners: 1, GPUsPerL: 1, CPUThreads: threads}
			u := GPUUtilization(c)
			if u < 0.85 || u > 1.0 {
				t.Errorf("%s @%d threads utilization = %.1f%%, want 85-100%%", m, threads, 100*u)
			}
		}
	}
}

func TestStorageBoundThroughput(t *testing.T) {
	// Plenty of bandwidth: compute-bound.
	if got := StorageBoundThroughput(100, 1e12); got != 100 {
		t.Fatalf("unbound = %f", got)
	}
	// 1 MB/s share: ~9.3 img/s cap.
	got := StorageBoundThroughput(100, 1<<20)
	if got >= 100 || got < 5 || got > 15 {
		t.Fatalf("storage-bound throughput = %f", got)
	}
}

// Property: throughput is monotone in learners and GPUs (more hardware
// is never slower in aggregate).
func TestThroughputMonotoneProperty(t *testing.T) {
	f := func(l, g uint8) bool {
		learners := int(l%4) + 1
		gpus := int(g%4) + 1
		c1 := Config{Model: ResNet50, Framework: TensorFlow, GPUType: V100,
			Learners: learners, GPUsPerL: gpus, CPUThreads: 16}
		c2 := c1
		c2.Learners++
		c3 := c1
		c3.GPUsPerL++
		t1 := BareMetalThroughput(c1)
		return BareMetalThroughput(c2) > t1 && BareMetalThroughput(c3) > t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: overhead and utilization stay in [0,1].
func TestOverheadBoundsProperty(t *testing.T) {
	models := []Model{VGG16, ResNet50, InceptionV3}
	fws := []Framework{Caffe, TensorFlow}
	gpus := []GPUType{K80, P100, V100}
	f := func(mi, fi, gi, l, g, th uint8) bool {
		c := Config{
			Model: models[mi%3], Framework: fws[fi%2], GPUType: gpus[gi%3],
			Learners: int(l%8) + 1, GPUsPerL: int(g%4) + 1, CPUThreads: int(th%32) + 1,
		}
		ov := FfDLOverhead(c)
		u := GPUUtilization(c)
		dg := DGXGap(c)
		return ov >= 0 && ov <= 1 && u >= 0 && u <= 1 && dg >= 0 && dg <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
