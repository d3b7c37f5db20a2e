package expt

import "testing"

// TestObsOverheadGateShape runs the observability-overhead gate at
// reduced scale and pins its result shape: every requested pair runs
// both arms, the median ratio is a real number, and the instrumented
// arm's final snapshot actually recorded hot-path observations — the
// comparison would be vacuous otherwise. The 5%-budget verdict itself
// is pinned by `make expt-smoke` / `ffdl-bench obs` at CI
// scale; an in-test throughput threshold would flake on a loaded
// machine.
func TestObsOverheadGateShape(t *testing.T) {
	if testing.Short() {
		t.Skip("boots full platforms repeatedly")
	}
	cfg := ObsOverheadConfig{Submitters: 8, Jobs: 16, Pairs: 2, Seed: 11}
	res, err := ObsOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("ran %d pairs, want 2", len(res.Pairs))
	}
	for i, p := range res.Pairs {
		if p.InstrumentedPerSec <= 0 || p.AblationPerSec <= 0 || p.Ratio <= 0 {
			t.Fatalf("pair %d has zero rates: %+v", i, p)
		}
	}
	if res.MedianRatio <= 0 {
		t.Fatalf("median ratio %v", res.MedianRatio)
	}
	if res.TolerancePct != 5 {
		t.Fatalf("default tolerance %v, want 5", res.TolerancePct)
	}
	if res.HistogramObservations == 0 {
		t.Fatal("instrumented arm recorded no histogram observations — the gate compares nothing")
	}
	if res.CounterNames == 0 {
		t.Fatal("instrumented arm snapshot has no counters")
	}
	// Rendering must not panic and must carry the verdict.
	tbl := RenderObsOverhead(res)
	if tbl == nil || len(tbl.Rows) != len(res.Pairs) || tbl.Caption == "" {
		t.Fatalf("render: %+v", tbl)
	}
}
