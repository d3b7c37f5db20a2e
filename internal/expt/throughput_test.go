package expt

import (
	"testing"

	"github.com/ffdl/ffdl/internal/etcd"
)

// TestThroughputDispatchesAndGroups is the acceptance pin for the
// control-plane throughput experiment at (reduced) scale, as absolutes
// on the shipping configuration: every submission dispatches, every
// stage reports a rate, and group commit actually groups under
// concurrency (cmds/entry > 1.5 in the etcd microstage). Rates
// themselves are the bench's job (bench/, BENCHMARK.json), not a unit
// test's.
func TestThroughputDispatchesAndGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full platform")
	}
	r, err := Throughput(ThroughputConfig{Submitters: 16, Jobs: 32, EtcdOps: 64, MongoOps: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dispatched != r.Jobs {
		t.Fatalf("dispatched %d/%d jobs", r.Dispatched, r.Jobs)
	}
	if r.EtcdProposalsPerSec <= 0 || r.MongoOpsPerSec <= 0 || r.DispatchedPerSec <= 0 {
		t.Fatalf("zero rates: %+v", r)
	}
	if r.EtcdCmdsPerEntry <= 1.5 {
		t.Fatalf("group commit did not group: %.2f cmds/entry", r.EtcdCmdsPerEntry)
	}
}

// TestThroughputCodecMicrostage pins the codec stage of the throughput
// artifact without booting a platform: a binary round-trip of the
// representative Put command costs 2 allocations (the entry buffer and
// the decoded key string). BenchCodec reads the process-wide malloc
// counter, so stragglers from earlier tests add a fraction; the exact
// per-goroutine pin is etcd's TestCommandCodecAllocBudget.
func TestThroughputCodecMicrostage(t *testing.T) {
	st := etcd.BenchCodec(1 << 12)
	if st.CmdsPerSec <= 0 {
		t.Fatalf("zero rate: %+v", st)
	}
	if st.AllocsPerOp >= 2.5 {
		t.Fatalf("binary round-trip = %.2f allocs/op, want 2", st.AllocsPerOp)
	}
}
