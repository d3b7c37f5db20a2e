// Benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation (§5), plus ablations of the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the experiment's headline quantity through
// b.ReportMetric so `go test -bench` output is directly comparable with
// the paper (see EXPERIMENTS.md for the mapping).
package ffdl_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ffdl/ffdl"
	"github.com/ffdl/ffdl/internal/expt"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/objstore"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/trace"
)

// --- Tables ---

func BenchmarkTable1Overhead(b *testing.B) {
	var rows []expt.Table1Row
	for i := 0; i < b.N; i++ {
		rows = expt.Table1()
	}
	worst, sum := 0.0, 0.0
	for _, r := range rows {
		if r.Overhead > worst {
			worst = r.Overhead
		}
		sum += r.Overhead
	}
	b.ReportMetric(100*worst, "max-overhead-%")
	b.ReportMetric(100*sum/float64(len(rows)), "mean-overhead-%")
}

func BenchmarkTable2DGX(b *testing.B) {
	var rows []expt.Table2Row
	for i := 0; i < b.N; i++ {
		rows = expt.Table2()
	}
	worst := 0.0
	for _, r := range rows {
		if r.Gap > worst {
			worst = r.Gap
		}
	}
	b.ReportMetric(100*worst, "max-dgx-gap-%")
}

func BenchmarkTable3Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table3(3)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Mean.Seconds(), r.Component+"-recovery-s")
		}
	}
}

func BenchmarkTable4CPUScaling(b *testing.B) {
	var rows []expt.Table4Row
	for i := 0; i < b.N; i++ {
		rows = expt.Table4()
	}
	b.ReportMetric(rows[len(rows)-1].V100Thpt, "v100-images/s")
}

func BenchmarkTable5Sizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sizes := perf.StandardSizes()
		if len(sizes) != 7 {
			b.Fatal("catalog changed")
		}
	}
}

func BenchmarkTable6TFScaling(b *testing.B) {
	var rows []expt.Table6Row
	for i := 0; i < b.N; i++ {
		rows = expt.Table6()
	}
	b.ReportMetric(rows[len(rows)-1].Thpt, "vgg-v100-images/s")
}

func BenchmarkTable7Figure5ScaleTest(b *testing.B) {
	var rows []expt.Figure5Row
	for i := 0; i < b.N; i++ {
		rows = expt.Figure5()
	}
	for _, r := range rows {
		b.ReportMetric(r.DegradationPct(), r.Batch+"-degradation-%")
	}
}

func BenchmarkTable8FailureReasons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fa := expt.SimulateFailures(10, int64(i+1))
		b.ReportMetric(fa.ReasonPct(expt.ReasonNoNodes), "no-nodes-%")
		b.ReportMetric(fa.ReasonPct(expt.ReasonBinding), "binding-rejected-%")
	}
}

// --- Figures ---

func BenchmarkFigure3SpreadPack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.Figure3(trace.Config{Days: 10, Seed: int64(i + 1)})
		spread := expt.MeanQueuedPct(res.QueuedPctSpread)
		pack := expt.MeanQueuedPct(res.QueuedPctPack)
		b.ReportMetric(spread, "spread-queued-%")
		b.ReportMetric(pack, "pack-queued-%")
	}
}

func BenchmarkFigure4Gang(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.Figure4(20, int64(i+1))
		maxIdle := 0.0
		for _, s := range res.Series {
			if !s.Gang && s.IdlePct.Max() > maxIdle {
				maxIdle = s.IdlePct.Max()
			}
		}
		b.ReportMetric(maxIdle, "max-idle-gpu-%-without-gang")
	}
}

func BenchmarkFigure6PodTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fa := expt.SimulateFailures(10, int64(i+1))
		b.ReportMetric(fa.PodTypePct("learner"), "learner-failure-share-%")
	}
}

func BenchmarkFigure7NodeFailureDeletions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.SimulateNodeFailures(30, int64(i+1))
		maxPct := 0.0
		for _, v := range res.DailyPct {
			if v > maxPct {
				maxPct = v
			}
		}
		b.ReportMetric(maxPct, "max-daily-node-failure-deletion-%")
	}
}

func BenchmarkFigure8MonthlyLearnerDeletions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.SimulateNodeFailures(150, int64(i+1))
		maxPct := 0.0
		for _, v := range res.MonthlyLearnerPct {
			if v > maxPct {
				maxPct = v
			}
		}
		b.ReportMetric(maxPct, "max-monthly-learner-deletion-%")
	}
}

// --- Ablations (design choices from DESIGN.md §5) ---

// BenchmarkAblationPlacement compares fragmentation across placement
// policies on the Fig. 3 workload.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, pol := range []string{"spread", "pack"} {
		b.Run(pol, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := expt.Figure3(trace.Config{Days: 8, Seed: 42})
				if pol == "spread" {
					b.ReportMetric(expt.MeanQueuedPct(res.QueuedPctSpread), "queued>15min-%")
				} else {
					b.ReportMetric(expt.MeanQueuedPct(res.QueuedPctPack), "queued>15min-%")
				}
			}
		})
	}
}

// BenchmarkAblationBSASamples sweeps the BSA sample budget: placement
// quality (nodes used for a gang) vs scheduling latency.
func BenchmarkAblationBSASamples(b *testing.B) {
	for _, samples := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("samples-%d", samples), func(b *testing.B) {
			rng := sim.NewRNG(9)
			bsa := &sched.BSA{Samples: samples, Theta: 4, RNG: rng}
			nodes := make([]*sched.Node, 16)
			for i := range nodes {
				cap := sched.Resources{MilliCPU: 64000, MemoryMB: 512000, GPUs: 4}
				nodes[i] = &sched.Node{Name: fmt.Sprintf("n%d", i), GPUType: "K80", Capacity: cap, Free: cap}
			}
			gang := &sched.Gang{JobID: "j"}
			for l := 0; l < 4; l++ {
				gang.Pods = append(gang.Pods, sched.PodSpec{
					Name:   fmt.Sprintf("j-l%d", l),
					Demand: sched.Resources{MilliCPU: 4000, MemoryMB: 24000, GPUs: 1},
				})
			}
			nodesUsed := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs := sched.NewClusterState(nodes)
				as, fail := bsa.PlaceGang(gang, cs)
				if fail != nil {
					b.Fatal(fail)
				}
				used := map[string]bool{}
				for _, a := range as {
					used[a.Node] = true
				}
				nodesUsed += float64(len(used))
			}
			b.ReportMetric(nodesUsed/float64(b.N), "nodes-per-gang")
		})
	}
}

// BenchmarkAblationMountCache measures the object-store mount with and
// without its LRU chunk cache across training epochs.
func BenchmarkAblationMountCache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "cache-on"
		capacity := int64(256 << 20)
		if !cached {
			name = "cache-off"
			capacity = 0
		}
		b.Run(name, func(b *testing.B) {
			svc := objstore.New(objstore.Config{})
			svc.EnsureBucket("data")
			if err := svc.Put("data", "train.rec", make([]byte, 16<<20)); err != nil {
				b.Fatal(err)
			}
			m := svc.NewMount("data", capacity)
			b.SetBytes(16 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ReadAll("train.rec"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, fetched := svc.Stats()
			b.ReportMetric(float64(fetched)/float64(b.N), "backend-bytes/epoch")
		})
	}
}

// BenchmarkAblationCoordination compares etcd watch-based status
// propagation against MongoDB-style polling — the §3.2 design choice
// ("we preferred etcd over MongoDB for coordination because it is much
// faster and has ... streaming watches").
func BenchmarkAblationCoordination(b *testing.B) {
	b.Run("etcd-watch", func(b *testing.B) {
		p, err := ffdl.New(ffdl.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Stop()
		ws, err := p.Etcd.Watch("bench/status", false, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer ws.Cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Etcd.Put("bench/status", []byte("PROCESSING"), 0); err != nil {
				b.Fatal(err)
			}
			<-ws.Events() // latency from write to observed event
		}
	})
	b.Run("mongo-poll", func(b *testing.B) {
		db := mongo.NewDB()
		c := db.C("status")
		if _, err := c.Insert(mongo.Doc{"_id": "job", "n": 0}); err != nil {
			b.Fatal(err)
		}
		// A metadata-store reader has no watch primitive: it polls on an
		// interval. 1ms here is already generous — a real remote
		// MongoDB poll loop runs at tens/hundreds of ms — and it still
		// loses to push-based watches.
		const pollInterval = time.Millisecond
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.UpdateOne(mongo.Filter{"_id": "job"}, mongo.Update{Set: mongo.Doc{"n": i}}); err != nil {
				b.Fatal(err)
			}
			for {
				time.Sleep(pollInterval)
				d, err := c.FindOne(mongo.Filter{"_id": "job"})
				if err != nil {
					b.Fatal(err)
				}
				if v, _ := d["n"].(float64); int(v) == i || d["n"] == i {
					break
				}
			}
		}
	})
}

// BenchmarkAblationTieBreak compares largest-gang-first against plain
// FIFO for same-instant arrivals (§3.6's corner case).
func BenchmarkAblationTieBreak(b *testing.B) {
	mkGangs := func() []*sched.Gang {
		var gangs []*sched.Gang
		for i := 0; i < 8; i++ {
			g := &sched.Gang{JobID: fmt.Sprintf("g%d", i)}
			learners := 1
			if i%4 == 0 {
				learners = 4
			}
			for l := 0; l < learners; l++ {
				g.Pods = append(g.Pods, sched.PodSpec{
					Name:   fmt.Sprintf("g%d-l%d", i, l),
					Demand: sched.Resources{MilliCPU: 4000, MemoryMB: 24000, GPUs: 2},
				})
			}
			gangs = append(gangs, g)
		}
		return gangs
	}
	nodes := func() []*sched.Node {
		out := make([]*sched.Node, 4)
		for i := range out {
			cap := sched.Resources{MilliCPU: 64000, MemoryMB: 512000, GPUs: 4}
			out[i] = &sched.Node{Name: fmt.Sprintf("n%d", i), GPUType: "K80", Capacity: cap, Free: cap}
		}
		return out
	}
	b.Run("largest-gang-first", func(b *testing.B) {
		bigPlaced := 0.0
		for i := 0; i < b.N; i++ {
			var q sched.Queue
			t0 := time.Unix(0, 0)
			for _, g := range mkGangs() {
				q.Push(g, t0) // same instant: tie-break sorts largest first
			}
			cs := sched.NewClusterState(nodes())
			d := sched.Dispatcher{Policy: sched.GreedyGang{Pod: sched.Pack{}}, Backfill: true}
			placed, _ := d.Dispatch(&q, cs, t0)
			for _, pl := range placed {
				if len(pl.Gang.Pods) == 4 {
					bigPlaced++
				}
			}
		}
		b.ReportMetric(bigPlaced/float64(b.N), "large-gangs-placed")
	})
	b.Run("fifo", func(b *testing.B) {
		bigPlaced := 0.0
		for i := 0; i < b.N; i++ {
			var q sched.Queue
			t0 := time.Unix(0, 0)
			for k, g := range mkGangs() {
				q.Push(g, t0.Add(time.Duration(k))) // distinct instants: pure FIFO
			}
			cs := sched.NewClusterState(nodes())
			d := sched.Dispatcher{Policy: sched.GreedyGang{Pod: sched.Pack{}}, Backfill: true}
			placed, _ := d.Dispatch(&q, cs, t0)
			for _, pl := range placed {
				if len(pl.Gang.Pods) == 4 {
					bigPlaced++
				}
			}
		}
		b.ReportMetric(bigPlaced/float64(b.N), "large-gangs-placed")
	})
}

// BenchmarkSchedulerScale drives the live orchestrator at a large
// cluster size with mixed gang churn and reports the dirty-set
// scheduler's headline metrics: nodes examined per pass (must stay
// sublinear in cluster size — see expt.SchedulerScaleSweep for the
// 1k-vs-5k comparison), scheduling passes per second, and placement
// latency. This is the scheduler trajectory in the BENCH json.
func BenchmarkSchedulerScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expt.SchedulerScale(expt.SchedScaleConfig{
			Nodes: 500, Gangs: 150, Seed: int64(i + 1),
		})
		if res.Placed != res.Pods {
			b.Fatalf("placed %d of %d pods", res.Placed, res.Pods)
		}
		b.ReportMetric(res.NodesExaminedPerPass, "nodes-examined/pass")
		b.ReportMetric(res.PassesPerSec, "passes/sec")
		b.ReportMetric(res.MeanPlacementMs, "placement-mean-ms")
		b.ReportMetric(res.P99PlacementMs, "placement-p99-ms")
	}
}

// BenchmarkPlatformJobThroughput measures end-to-end platform capacity:
// jobs submitted, trained and completed per second on a live platform
// (the "thousands of concurrent deployment requests" claim, §3.7).
func BenchmarkPlatformJobThroughput(b *testing.B) {
	p, err := ffdl.New(ffdl.Config{Seed: 5, PollInterval: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	p.AddNodes("k80", ffdl.K80, 4, 4)
	if err := p.SeedDataset("datasets", "d/", 1<<20); err != nil {
		b.Fatal(err)
	}
	client := p.Client()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := client.Submit(ctx, ffdl.Manifest{
			Name: fmt.Sprintf("bench-%d", i), User: "bench",
			Framework: ffdl.Caffe, Model: ffdl.VGG16,
			Learners: 1, GPUsPerLearner: 1, GPUType: ffdl.K80,
			Iterations: 10, DataBucket: "datasets", DataPrefix: "d/",
		})
		if err != nil {
			b.Fatal(err)
		}
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		status, err := client.WaitForStatus(wctx, id, ffdl.StatusCompleted, time.Millisecond)
		cancel()
		if err != nil || status != ffdl.StatusCompleted {
			b.Fatalf("job %s: %v %v", id, status, err)
		}
	}
}
