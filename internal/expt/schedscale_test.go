package expt

import "testing"

// TestSchedulerScaleSublinear pins the acceptance criterion of the
// dirty-set + capacity-index work: with an identical gang workload, a
// 4x larger cluster must not cost meaningfully more scheduler work per
// placement — nodes examined per placed pod stays roughly flat
// (sublinear), every pod still places, and the run is carried by events
// rather than relist full scans.
//
// The ratio is per placed pod, not per pass: how many pods one pass
// places depends on how wall-clock event bursts coalesce, which a
// loaded host moves, while the nodes a placement examines do not
// depend on batching. A full-cluster scan per placement would still
// show as ~4x.
func TestSchedulerScaleSublinear(t *testing.T) {
	base := SchedScaleConfig{Gangs: 60, Seed: 7}
	results := SchedulerScaleSweep([]int{250, 1000}, base)
	small, large := results[0], results[1]

	for _, r := range results {
		if r.Placed != r.Pods {
			t.Fatalf("%d nodes: placed %d of %d pods", r.Nodes, r.Placed, r.Pods)
		}
		if r.Passes == 0 {
			t.Fatalf("%d nodes: no scheduling passes recorded", r.Nodes)
		}
		// Boot counts one full scan, and each close of the scheduler's
		// watch (a burst that overflows its buffer on a slow runner)
		// adds one; the run must still be event-carried, not
		// relist-carried, so bound full scans by elapsed wall time
		// rather than a fixed constant.
		allowed := uint64(2 + r.WallSeconds/2)
		if r.FullScans > allowed {
			t.Errorf("%d nodes: %d full scans in %.1fs — run leaned on relists",
				r.Nodes, r.FullScans, r.WallSeconds)
		}
	}

	perPod := func(r SchedScaleResult) float64 { return float64(r.NodesExamined) / float64(r.Placed) }
	ratio := perPod(large) / perPod(small)
	if ratio > 2 {
		t.Fatalf("nodes-examined-per-placed-pod grew %.2fx for 4x nodes (%.0f -> %.0f); want sublinear (<2x)",
			ratio, perPod(small), perPod(large))
	}
	t.Logf("4x nodes -> %.2fx examined/placed pod (%.0f -> %.0f), examined/pass %.0f -> %.0f, placement mean %.2fms -> %.2fms",
		ratio, perPod(small), perPod(large), small.NodesExaminedPerPass, large.NodesExaminedPerPass,
		small.MeanPlacementMs, large.MeanPlacementMs)
}
