package expt

import (
	"testing"
	"time"
)

// TestChaosSoak runs a scaled-down soak — both arms, every injector —
// and requires zero invariant violations. This is the same harness
// `ffdl-bench chaos` gates CI with, just smaller.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long; skipped in -short")
	}
	res, err := ChaosSoak(ChaosSoakConfig{
		Nodes:       3,
		Users:       2,
		JobsPerUser: 2,
		Iterations:  2,
		EtcdCycles:  1,
		Seed:        7,
		Timeout:     240 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("ChaosSoak: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Completed+res.Failed < res.Jobs {
		t.Errorf("terminal jobs %d+%d < submitted %d", res.Completed, res.Failed, res.Jobs)
	}
	if res.Completed == 0 {
		t.Error("no job completed under chaos")
	}
	if res.DegradedShed == 0 {
		t.Error("forced mongo outage produced no degraded sheds")
	}
	if res.DegradedRead == 0 {
		t.Error("forced mongo outage produced no degraded reads")
	}
	if !res.SLOOK {
		t.Errorf("SLO violated: chaos p99 %.1fms vs calm %.1fms (K=%.0f)",
			res.ChaosP99Ms, res.CalmP99Ms, res.SLOFactor)
	}
	t.Logf("soak: %d jobs (%d completed, %d failed), %d node crashes, %d pod kills, %d etcd outages, mongo %+v, rpc %+v, retries=%d sheds=%d, calm p99 %.1fms chaos p99 %.1fms recovery %.1fms, %.1f virtual min in %.1fs wall",
		res.Jobs, res.Completed, res.Failed, res.NodeCrashes, res.PodKills, res.EtcdOutages,
		res.Mongo, res.RPC, res.Retries, res.Sheds, res.CalmP99Ms, res.ChaosP99Ms,
		res.RecoveryVirtualMs, res.VirtualMinutes, res.WallSeconds)
}
