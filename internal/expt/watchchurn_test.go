package expt

import "testing"

// TestWatchChurnReplaysWithoutResync is the acceptance pin for the
// durable watch layer at experiment scale: under chaos-injected
// snapshot restores and forced failovers, watchers resuming by revision
// replay their gap from the snapshot-persisted event log and never
// resync.
func TestWatchChurnReplaysWithoutResync(t *testing.T) {
	r, err := WatchChurn(WatchChurnConfig{Jobs: 50, Cycles: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.SnapshotRestores == 0 {
		t.Fatalf("run induced no snapshot restore; chaos ineffective: %+v", r)
	}
	if r.Resumes == 0 || r.Delivered == 0 {
		t.Fatalf("run exercised no resumes/deliveries: %+v", r)
	}
	if r.Resyncs != 0 {
		t.Fatalf("resuming watchers were forced through %d resyncs (%.2f/restore)", r.Resyncs, r.ResyncsPerRestore)
	}
}
