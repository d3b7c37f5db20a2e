package core

import (
	"bytes"
	"context"
	"maps"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
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
	h := newHelperScan(p, jobID, vol, 4, 0)
	h.scan()
	if n := testing.AllocsPerRun(100, func() { h.scan() }); n != 0 {
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

	one := newHelperScan(p, "training-one", newTestVolume(t), 1, 0)
	if err := one.vol.AppendFile(log, append(slices.Clone(first), second...)); err != nil {
		t.Fatal(err)
	}
	one.scan()

	two := newHelperScan(p, "training-two", newTestVolume(t), 1, 0)
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
		h := newHelperScan(p, jobID, vol, 1, 0)
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

// TestRestartedHelperShipsEachLineOnce pins the log-collector across
// helper incarnations: a helper that starts over a volume an earlier
// one shipped from resumes at each learner's shipped bytes, so every
// line ships once — a line written between the incarnations and one
// completed across them included. A redeployment's fresh volume ships
// from its start. Seeding a job with no records allocates nothing.
func TestRestartedHelperShipsEachLineOnce(t *testing.T) {
	p := newTestPlatform(t, nil)
	const jobID = "training-restart"
	vol := newTestVolume(t)
	write := func(vol *nfs.Volume, ord int, text string) {
		t.Helper()
		if err := vol.AppendFile("learners/"+strconv.Itoa(ord)+"/stdout.log", []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	write(vol, 0, "a\nb\n")
	write(vol, 1, "x\npar")
	newHelperScan(p, jobID, vol, 2, 0).scan()
	write(vol, 0, "c\n")
	write(vol, 1, "tial\n")
	second := newHelperScan(p, jobID, vol, 2, 0)
	second.scan()
	second.scan()
	want := []string{"a", "b", "x", "c", "partial"}
	if got := logTexts(p, jobID); !slices.Equal(got, want) {
		t.Fatalf("two incarnations shipped %q, want %q", got, want)
	}

	// A redeployment provisions a fresh volume; its lines are new.
	fresh := newTestVolume(t)
	write(fresh, 1, "a\n")
	newHelperScan(p, jobID, fresh, 2, p.Metrics.nextLine(jobID)).scan()
	if got := logTexts(p, jobID); !slices.Equal(got, append(want, "a")) {
		t.Fatalf("after a redeployment shipped %q, want %q", got, append(want, "a"))
	}

	add := func(int, int) { t.Fatal("a job with no records reported a shipped run") }
	if n := testing.AllocsPerRun(100, func() { p.Metrics.stdoutShipped("training-none", 0, add) }); n != 0 {
		t.Fatalf("seeding a job with no records made %.0f allocations, want 0", n)
	}
}

// TestStdoutShippedCountsBothLayouts pins the byte count a helper seeds
// from: a run counts its text, and a record of the one-line layout its
// text and the '\n' that layout dropped; records before the given line
// offset are not counted.
func TestStdoutShippedCountsBothLayouts(t *testing.T) {
	l, err := commitlog.Open(commitlog.NewMemStore(), commitlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"a", "", "b c"} {
		if _, err := l.Append("", encodeLogRecord(nil, "j", 0, uint64(i), time.Unix(0, 0), []byte(text))); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMetricsService(l, nil)
	m.AppendLog("j", 1, time.Unix(0, 0), []byte("d\n\n"))
	m.AppendLog("j", 0, time.Unix(0, 0), []byte("e\n"))
	for _, tc := range []struct {
		from uint64
		want map[int]int
	}{
		{0, map[int]int{0: len("a\n\nb c\ne\n"), 1: len("d\n\n")}},
		{3, map[int]int{0: len("e\n"), 1: len("d\n\n")}},
		{5, map[int]int{0: len("e\n")}},
		{6, map[int]int{}},
	} {
		got := map[int]int{}
		m.stdoutShipped("j", tc.from, func(learner, n int) { got[learner] += n })
		if !maps.Equal(got, tc.want) {
			t.Fatalf("from %d: shipped bytes %v, want %v", tc.from, got, tc.want)
		}
	}
}

// TestHelperRetriesFailedDonePut pins that the helper puts the done key
// until a put succeeds. Every etcd member is cut off while a job runs,
// so the done put of the finished job fails across the etcd policy's
// attempts. The Guardian holds no timer for a job whose watch is
// healthy, so a put the helper gave up on would leave the job
// PROCESSING forever; here, once the cluster heals, the helper's retry
// timer lands the put and the job completes.
func TestHelperRetriesFailedDonePut(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, func(c *Config) {
		c.TimeCompression = 1e-3
		c.HeartbeatInterval = 2 * time.Minute
		c.NodeGracePeriod = 10 * time.Minute
	})
	fc.StartAutoAdvance(time.Millisecond)
	c := p.Client()
	ctx := context.Background()
	m := testManifest()
	m.DataPrefix, m.Iterations, m.CheckpointEvery = "mnist/", 300, 0
	jobID, err := c.Submit(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	st, err := c.WaitForStatus(wctx, jobID, StatusProcessing, p.cfg.PollInterval)
	cancel()
	if err != nil || st != StatusProcessing {
		t.Fatalf("%s reached %s (err %v), want PROCESSING", jobID, st, err)
	}
	fc.StopAutoAdvance()
	res, ok := p.getResources(jobID)
	if !ok {
		t.Fatal("no resources for the running job")
	}
	if _, err := res.volume.ReadFile("learners/0/exit"); err == nil {
		t.Fatal("the learner exited before etcd was cut off; raise Iterations")
	}
	for i := range p.Etcd.Replicas() {
		p.Etcd.Isolate(i, true)
	}

	fc.StartAutoAdvance(time.Millisecond)
	waitUntil(t, "the learner exits", 30*time.Second, func() bool {
		_, err := res.volume.ReadFile("learners/0/exit")
		return err == nil
	})
	// Each attempt waits out the proposal timeout (5s); three attempts
	// with their backoff take under a minute of virtual time.
	exited := fc.Now()
	waitUntil(t, "a virtual minute past the exit", 30*time.Second, func() bool { return fc.Since(exited) > time.Minute })
	if st, err := p.jobStatus(jobID); err != nil || st != StatusProcessing {
		t.Fatalf("with etcd cut off the job is %s (err %v), want PROCESSING", st, err)
	}
	for i := range p.Etcd.Replicas() {
		p.Etcd.Isolate(i, false)
	}
	healed := fc.Now()
	waitUntil(t, "the job completes after the heal", 30*time.Second, func() bool {
		st, err := p.jobStatus(jobID)
		if err == nil && st != StatusProcessing && st != StatusStoring && st != StatusCompleted {
			t.Fatalf("the job went %s", st)
		}
		return err == nil && st == StatusCompleted
	})
	if d := fc.Since(healed); d > time.Minute {
		t.Fatalf("the job completed %v of virtual time after the heal", d)
	}
}
