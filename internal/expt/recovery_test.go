package expt

import "testing"

// TestRecoverySmoke pins the experiment's contract at a small size: the
// FileStore arm brings every job and log line back across the restart,
// while the MemStore ablation loses everything.
func TestRecoverySmoke(t *testing.T) {
	res, err := Recovery(RecoveryConfig{Jobs: 2, Churn: 3000, Seed: 1})
	if err != nil {
		t.Fatalf("Recovery: %v", err)
	}
	if len(res.Arms) != 2 || res.Arms[0].FileStore || !res.Arms[1].FileStore {
		t.Fatalf("arms = %+v, want [memstore, filestore]", res.Arms)
	}
	mem, file := res.Arms[0], res.Arms[1]

	if mem.RecoveredJobs != 0 || mem.RecoveredOps != 0 || mem.RecoveredLogLines != 0 {
		t.Fatalf("memstore arm recovered state across a process restart: %+v", mem)
	}
	if file.RecoveredJobs != res.Jobs {
		t.Fatalf("filestore arm recovered %d/%d jobs", file.RecoveredJobs, res.Jobs)
	}
	if file.RecoveredLogLines == 0 {
		t.Fatal("filestore arm recovered no learner-log lines")
	}
	if file.RecoveredOps <= uint64(res.Churn) {
		t.Fatalf("filestore arm recovered %d oplog ops, want > churn %d", file.RecoveredOps, res.Churn)
	}
	if file.ReopenMillis <= 0 {
		t.Fatal("filestore arm reported no reopen latency")
	}

	if tb := RenderRecovery(res); tb.Caption == "" || len(tb.Rows) != 2 {
		t.Fatalf("RenderRecovery: %+v", tb)
	}
}
