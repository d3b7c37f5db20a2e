package core

import (
	"bytes"
	"slices"
	"strconv"
	"testing"

	"github.com/ffdl/ffdl/internal/nfs"
	"github.com/ffdl/ffdl/internal/sim"
)

// newTestVolume provisions a job volume with no provisioning delay.
func newTestVolume(t *testing.T) *nfs.Volume {
	t.Helper()
	prov := nfs.NewProvisioner(sim.NewRealClock(), sim.NewRNG(1))
	prov.BaseLatency, prov.LoadPenalty = 0, 0
	vol, err := prov.Provision("job")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prov.Release(vol) })
	return vol
}

func logTexts(p *Platform, jobID string) []string {
	var texts []string
	for _, l := range p.Metrics.LogsFrom(jobID, 0) {
		texts = append(texts, l.Text)
	}
	return texts
}

// TestHelperScanOfUnchangedFilesAllocatesNothing pins the helper's
// per-wake cost: once a scan has mirrored the learners' statuses,
// recorded their exits and shipped their complete log lines, a scan
// that finds no file changed — a partial log line included — allocates
// nothing.
func TestHelperScanOfUnchangedFilesAllocatesNothing(t *testing.T) {
	p := newTestPlatform(t, nil)
	vol := newTestVolume(t)
	const jobID = "training-scan"
	for ord := 0; ord < 4; ord++ {
		dir := "learners/" + strconv.Itoa(ord) + "/"
		if err := vol.WriteFile(dir+"status", []byte("PROCESSING")); err != nil {
			t.Fatal(err)
		}
		if err := vol.AppendFile(dir+"stdout.log", []byte("iteration 1/10\npartial")); err != nil {
			t.Fatal(err)
		}
	}
	if err := vol.WriteFile("learners/0/exit", []byte("0\n")); err != nil {
		t.Fatal(err)
	}
	h := newHelperScan(p, jobID, vol, 4)
	h.scan()
	if n := testing.AllocsPerRun(100, h.scan); n != 0 {
		t.Fatalf("a scan of unchanged files made %.0f allocations, want 0", n)
	}
	if got := logTexts(p, jobID); !slices.Equal(got, []string{"iteration 1/10", "iteration 1/10", "iteration 1/10", "iteration 1/10"}) {
		t.Fatalf("shipped lines %q, want each complete line once", got)
	}
	if kvs, _ := p.Etcd.List("jobs/" + jobID + "/learners/"); len(kvs) != 4 {
		t.Fatalf("%d learner statuses mirrored, want 4", len(kvs))
	}
	if code, decided := h.outcome(); decided {
		t.Fatalf("outcome decided (%d) with one of four learners exited", code)
	}
}

// TestLogCollectionIgnoresWakeTiming pins that what the log-collector
// ships depends only on the log's bytes, not on where the helper's
// scans fall: every newline-terminated line is shipped once, blank
// lines included, whether the bytes arrive in one write or two.
// store-results' transcript holds the same lines.
func TestLogCollectionIgnoresWakeTiming(t *testing.T) {
	p := newTestPlatform(t, nil)
	const log = "learners/0/stdout.log"
	first, second := []byte("a\n\n"), []byte("\nb\n\n")

	one := newHelperScan(p, "training-one", newTestVolume(t), 1)
	if err := one.vol.AppendFile(log, append(slices.Clone(first), second...)); err != nil {
		t.Fatal(err)
	}
	one.scan()

	two := newHelperScan(p, "training-two", newTestVolume(t), 1)
	for _, chunk := range [][]byte{first, second} {
		if err := two.vol.AppendFile(log, chunk); err != nil {
			t.Fatal(err)
		}
		two.scan()
	}

	want := []string{"a", "", "", "b", ""}
	for _, jobID := range []string{"training-one", "training-two"} {
		if got := logTexts(p, jobID); !slices.Equal(got, want) {
			t.Fatalf("%s shipped %q, want %q", jobID, got, want)
		}
		if got := string(p.Metrics.transcript(jobID)); got != "a\n\n\nb\n\n" {
			t.Fatalf("%s transcript %q", jobID, got)
		}
	}
}

// TestLogShippingCostIsPerScan pins the log-collector's cost with no
// follow open: a scan that ships k lines appends one learner-log record
// and builds no line, so its allocations do not grow with k.
func TestLogShippingCostIsPerScan(t *testing.T) {
	p := newTestPlatform(t, nil)
	allocs := map[int]float64{}
	for _, k := range []int{1, 16} {
		vol := newTestVolume(t)
		jobID := "training-ship-" + strconv.Itoa(k)
		h := newHelperScan(p, jobID, vol, 1)
		run := bytes.Repeat([]byte("iteration 1/2 loss=2.0000 images/sec=81.2\n"), k)
		const runs = 200
		allocs[k] = testing.AllocsPerRun(runs, func() {
			if err := vol.AppendFile("learners/0/stdout.log", run); err != nil {
				t.Fatal(err)
			}
			h.scan()
		})
		if n := len(p.Metrics.LogsFrom(jobID, 0)); n != (runs+1)*k {
			t.Fatalf("k=%d: shipped %d lines, want %d", k, n, (runs+1)*k)
		}
	}
	t.Logf("allocations per scan: %v", allocs)
	if allocs[16] > allocs[1] {
		t.Fatalf("a scan shipping 16 lines made %.0f allocations, one shipping 1 made %.0f", allocs[16], allocs[1])
	}
}
