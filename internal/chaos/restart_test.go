package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/perf"
)

// restartConfig is the DataDir-backed platform config the restart tests
// boot: real clock, fast control loops (the core test idiom), and a
// time compression that makes training take real wall time — so a job
// can be caught genuinely mid-PROCESSING when the world ends.
func restartConfig(dir string) core.Config {
	return core.Config{
		Seed:              7,
		DataDir:           dir,
		PollInterval:      2 * time.Millisecond,
		RendezvousTimeout: 10 * time.Second,
		TimeCompression:   2e-5,
	}
}

// provisionWorld recreates the external world after each boot: worker
// nodes and the dataset bucket (kube state and the object store are
// in-memory and do not survive a process restart — redeployed jobs
// re-download their data).
func provisionWorld(p *core.Platform) error {
	for _, n := range []string{"node0", "node1"} {
		p.AddNode(n, "K80", 4, 32, 256<<10)
	}
	p.Store.EnsureBucket("datasets")
	return p.Store.Put("datasets", "mnist/shard-0", bytes.Repeat([]byte{1}, 1<<20))
}

func restartManifest(iters int) core.Manifest {
	return core.Manifest{
		Name: "restart-train", User: "alice",
		Framework: perf.Caffe, Model: perf.VGG16,
		Learners: 1, GPUsPerLearner: 1, GPUType: perf.K80,
		BatchSize: 64, Iterations: iters, CheckpointEvery: 10,
		DataBucket: "datasets", DataPrefix: "mnist/",
		Command: "caffe train -solver solver.prototxt",
	}
}

func waitFor(t *testing.T, c *core.Client, jobID string, want core.JobStatus, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	got, err := c.WaitForStatus(ctx, jobID, want, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for %s on %s: %v", want, jobID, err)
	}
	if got != want {
		t.Fatalf("job %s reached %s, want %s", jobID, got, want)
	}
}

// TestRestartTheWorldDurability is the headline cold-restart test: the
// entire platform is torn down mid-workload — one job COMPLETED with a
// follower holding a saved log offset, one job mid-PROCESSING, churn deep enough that the oplog's retained
// floor rose — and reopened from the same DataDir. Resume tokens,
// learner-log offsets and oplog floors must all survive: FollowLogsFrom
// resumes at the exact saved offset with no duplicate or missing lines,
// change streams resume by Seq or see an explicit resync, WatchStatus
// reconnects refill from the recovered job document, and the mid-flight
// job is redeployed to completion by the LCM recovery scan.
func TestRestartTheWorldDurability(t *testing.T) {
	dir := t.TempDir()
	r, err := NewProcessRestart(restartConfig(dir), provisionWorld)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	p := r.Platform()
	c := p.Client()
	ctx := context.Background()

	// --- Generation 1: build up durable state. ---

	// Job A runs to completion and leaves learner logs behind.
	jobA, err := c.Submit(ctx, restartManifest(30))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, jobA, core.StatusCompleted, 30*time.Second)
	linesA, err := c.Logs(ctx, jobA)
	if err != nil || len(linesA) < 4 {
		t.Fatalf("job A logs = %d lines, err=%v; need >= 4", len(linesA), err)
	}
	histA, err := c.Status(ctx, jobA)
	if err != nil {
		t.Fatal(err)
	}

	// A follower consumed half of A's log: its resume token is the first
	// unconsumed offset, which the follower itself holds.
	mid := len(linesA) / 2
	savedNext := linesA[mid].Offset

	// Churn a scratch collection hard enough that oplog compaction (and
	// the reopen after it) raises the retained floor above seq 1.
	scratch := p.Mongo.C("scratch")
	if _, err := scratch.Insert(mongo.Doc{"_id": "doc", "n": 0}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		if err := scratch.UpdateOne(mongo.Filter{"_id": "doc"}, mongo.Update{Set: mongo.Doc{"n": i}}); err != nil {
			t.Fatal(err)
		}
	}

	// A change-stream resume token taken just before job B's writes.
	seqBeforeB := p.Mongo.OplogLen()

	// Job B trains long enough (~seconds of wall time at this
	// compression) to be killed mid-PROCESSING, with a watcher
	// mid-stream on its status.
	jobB, err := c.Submit(ctx, restartManifest(4000))
	if err != nil {
		t.Fatal(err)
	}
	watchCtx, cancelWatch := context.WithCancel(ctx)
	bCh, stopWatch, err := c.WatchStatus(watchCtx, jobB)
	if err != nil {
		t.Fatal(err)
	}
	var watchMu sync.Mutex
	var preEntries []core.StatusEntry
	go func() {
		for e := range bCh {
			watchMu.Lock()
			preEntries = append(preEntries, e)
			watchMu.Unlock()
		}
	}()
	waitFor(t, c, jobB, core.StatusProcessing, 30*time.Second)

	preOplogLen := p.Mongo.OplogLen()
	preLinesB, _ := c.Logs(ctx, jobB)

	// --- The world ends. ---
	p2, err := r.Restart()
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	cancelWatch()
	stopWatch()
	c2 := p2.Client()
	t.Logf("reopen latency: %v", r.ReopenLatency())

	// Job B must have been killed mid-flight, and the recovered store
	// must still say so (non-terminal, at PROCESSING rank).
	recB, err := p2.Jobs.FindOne(mongo.Filter{"_id": jobB})
	if err != nil {
		t.Fatalf("job B not recovered: %v", err)
	}
	if st, _ := recB["status"].(string); core.JobStatus(st).Terminal() {
		t.Fatalf("job B recovered as terminal %q — restart missed the mid-flight window", st)
	}

	// Oplog state survived: the sequence resumed (the floor's rise past
	// 1 is checked by the pre-floor resume below). The recovered length is never behind the pre-crash one, but p2's
	// recovery scan starts inside NewPlatform and may already have
	// appended job B's re-deploy on top, so exactness is checked on the
	// pre-crash tail instead: job B's last write still sits at its Seq.
	if got := p2.Mongo.OplogLen(); got < preOplogLen {
		t.Fatalf("recovered OplogLen %d, want >= %d", got, preOplogLen)
	}
	csTail := p2.Mongo.Watch("jobs", preOplogLen-1)
	if ev := <-csTail.Events(); ev.Seq != preOplogLen || ev.ID != jobB {
		t.Fatalf("recovered oplog tail = Seq %d (%s %s), want job B's pre-crash write at Seq %d", ev.Seq, ev.Kind, ev.ID, preOplogLen)
	}
	csTail.Cancel()

	// Job A's record and full status history survived.
	replyA, err := c2.Status(ctx, jobA)
	if err != nil {
		t.Fatalf("job A not recovered: %v", err)
	}
	if replyA.Status != core.StatusCompleted || len(replyA.History) != len(histA.History) {
		t.Fatalf("job A recovered as %s with %d history entries, want COMPLETED with %d",
			replyA.Status, len(replyA.History), len(histA.History))
	}

	// Job A's learner log survived byte for byte: same lines, same
	// offsets.
	linesA2, err := c2.Logs(ctx, jobA)
	if err != nil {
		t.Fatal(err)
	}
	if len(linesA2) != len(linesA) {
		t.Fatalf("job A recovered %d log lines, want %d", len(linesA2), len(linesA))
	}
	for i := range linesA {
		if linesA2[i].Offset != linesA[i].Offset || linesA2[i].Text != linesA[i].Text {
			t.Fatalf("job A line %d diverged after restart: %+v vs %+v", i, linesA2[i], linesA[i])
		}
	}

	// FollowLogsFrom resumes at the exact saved offset: no duplicate, no
	// missing line.
	want := linesA[mid:]
	followCtx, cancelFollow := context.WithTimeout(ctx, 10*time.Second)
	var got []core.LogLine
	err = c2.FollowLogsFrom(followCtx, jobA, savedNext, func(l core.LogLine) {
		got = append(got, l)
		if len(got) == len(want) {
			cancelFollow()
		}
	})
	cancelFollow()
	if err != nil {
		t.Fatalf("FollowLogsFrom: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed follow got %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Offset != want[i].Offset || got[i].Text != want[i].Text {
			t.Fatalf("resumed line %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// A change stream whose token predates the recovered floor gets an
	// explicit resync marker — never a silent gap.
	csOld := p2.Mongo.Watch("scratch", 1)
	if ev := <-csOld.Events(); ev.Kind != "resync" {
		t.Fatalf("pre-floor resume delivered Kind %q first, want resync", ev.Kind)
	}
	csOld.Cancel()

	// A change stream resumed from a retained token resumes by Seq: no
	// resync, strictly increasing, and it observes job B's insert.
	csB := p2.Mongo.Watch("jobs", seqBeforeB)
	sawB := false
	last := seqBeforeB
	for !sawB {
		select {
		case ev := <-csB.Events():
			if ev.Kind == "resync" {
				t.Fatalf("retained-token resume delivered resync (token %d)", seqBeforeB)
			}
			if ev.Seq <= last {
				t.Fatalf("change stream Seq went backwards: %d after %d", ev.Seq, last)
			}
			last = ev.Seq
			if ev.ID == jobB && ev.Kind == "insert" {
				sawB = true
			}
		case <-time.After(10 * time.Second):
			t.Fatal("change stream never delivered job B's insert")
		}
	}
	csB.Cancel()

	// WatchStatus on the recovered job refills from the recovered job
	// document, then follows the redeploy live.
	wCtx, wCancel := context.WithTimeout(ctx, 60*time.Second)
	defer wCancel()
	ch2, stop2, err := c2.WatchStatus(wCtx, jobB)
	if err != nil {
		t.Fatalf("WatchStatus after restart: %v", err)
	}
	defer stop2()

	// The LCM recovery scan must redeploy the mid-flight job to
	// completion (it lost its Guardian, learners and volume with the
	// process).
	waitFor(t, c2, jobB, core.StatusCompleted, 60*time.Second)

	var postEntries []core.StatusEntry
	for e := range ch2 {
		postEntries = append(postEntries, e)
	}
	if len(postEntries) == 0 {
		t.Fatal("post-restart watch delivered no entries")
	}
	if lastE := postEntries[len(postEntries)-1]; lastE.Status != core.StatusCompleted {
		t.Fatalf("post-restart watch ended on %s, want COMPLETED", lastE.Status)
	}

	// The watcher that was mid-stream when the world ended saw a prefix
	// of B's history; the recovered history must extend it, not rewrite
	// it.
	watchMu.Lock()
	pre := append([]core.StatusEntry(nil), preEntries...)
	watchMu.Unlock()
	replyB, err := c2.Status(ctx, jobB)
	if err != nil {
		t.Fatal(err)
	}
	if len(replyB.History) < len(pre) {
		t.Fatalf("recovered history (%d) shorter than what a pre-restart watcher saw (%d)",
			len(replyB.History), len(pre))
	}
	for i := range pre {
		if replyB.History[i].Status != pre[i].Status {
			t.Fatalf("history[%d] rewritten across restart: %s vs %s",
				i, replyB.History[i].Status, pre[i].Status)
		}
	}

	// Job B's learner-log offsets survived and were never reused: the
	// pre-restart lines are an exact prefix, and every offset after them
	// is fresh and strictly increasing.
	linesB, err := c2.Logs(ctx, jobB)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range preLinesB {
		if i >= len(linesB) || linesB[i].Offset != l.Offset || linesB[i].Text != l.Text {
			t.Fatalf("job B pre-restart line %d not a prefix of the recovered log", i)
		}
	}
	for i := 1; i < len(linesB); i++ {
		if linesB[i].Offset <= linesB[i-1].Offset {
			t.Fatalf("job B log offsets not strictly increasing at %d: %d then %d",
				i, linesB[i-1].Offset, linesB[i].Offset)
		}
	}

	// The oplog is the one durable copy of job status history: DataDir
	// holds it and the learner logs, nothing else — and a log directory
	// holds segments and nothing else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"learner-logs", "mongo-oplog"}; !slices.Equal(names, want) {
		t.Fatalf("DataDir holds %v, want %v", names, want)
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && !strings.HasSuffix(path, ".seg") {
			return fmt.Errorf("DataDir holds non-segment file %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every job's lines share one learner log: learner-logs/ holds
	// segments and no per-job subdirectory, and its segment count
	// follows line volume (one per boot, one per 1024-record roll, one
	// of slack for a roll racing the count), not the number of jobs.
	segs, err := os.ReadDir(filepath.Join(dir, "learner-logs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range segs {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), ".seg") {
			t.Fatalf("learner-logs/ holds %s, want only .seg files", e.Name())
		}
	}
	total := len(p2.Metrics.LogsFrom(jobA, 0)) + len(p2.Metrics.LogsFrom(jobB, 0))
	if len(segs) == 0 || len(segs) > 2+total/1024+1 {
		t.Fatalf("learner-logs/ holds %d segments for %d lines, want 1..%d", len(segs), total, 2+total/1024+1)
	}
}

// TestRestartTornTailLearnerLog reuses commitlog.FaultStore corruption
// injection under the real DataDir file layout: a byte of a learner-log
// segment frame is flipped at write time, the platform restarts, and
// recovery must keep exactly the strict prefix before the torn frame,
// with no recovered offset ever reassigned. Every job's lines share the
// one learner log, so the prefix holds across jobs: a second job's
// lines that land after the tear are lost with it.
func TestRestartTornTailLearnerLog(t *testing.T) {
	dir := t.TempDir()
	const jobX, jobY = "jobX", "jobY"

	var mu sync.Mutex
	var fault *commitlog.FaultStore
	cfg := restartConfig(dir)
	cfg.StoreWrapper = func(name string, s commitlog.SegmentStore) commitlog.SegmentStore {
		if name != "learner-logs" {
			return s
		}
		f := commitlog.NewFaultStore(s, -1) // never crash; corruption only
		mu.Lock()
		fault = f
		mu.Unlock()
		return f
	}

	p, err := core.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			p.Stop()
		}
	}()
	appendLine := func(p *core.Platform, jobID, text string) {
		p.Metrics.AppendLog(jobID, 0, time.Now(), []byte(text+"\n"))
	}

	// 50 intact lines of job X, with job Y's first 5 interleaved.
	for i := 1; i <= 50; i++ {
		appendLine(p, jobX, fmt.Sprintf("x-%03d", i))
		if i%10 == 0 {
			appendLine(p, jobY, fmt.Sprintf("y-%03d", i/10))
		}
	}

	// Corrupt a byte 10 positions into the NEXT write: line 51's frame is
	// torn on disk; everything after it in the log — X's 52..60 and Y's
	// post-tear lines — is unreachable past the tear.
	mu.Lock()
	if fault == nil {
		t.Fatal("StoreWrapper never saw the learner log store")
	}
	fault.CorruptAt(fault.Written()+10, 0xFF)
	mu.Unlock()
	for i := 51; i <= 60; i++ {
		appendLine(p, jobX, fmt.Sprintf("x-%03d", i))
		appendLine(p, jobY, fmt.Sprintf("y-post-%03d", i))
	}
	if n := len(p.Metrics.LogsFrom(jobY, 0)); n != 15 {
		t.Fatalf("job Y holds %d lines before the restart, want 15", n)
	}

	p.Stop()
	stopped = true

	// Reopen the same DataDir without the wrapper: recovery reads the
	// corrupted bytes the FaultStore let through to the real files.
	cfg2 := restartConfig(dir)
	p2, err := core.NewPlatform(cfg2)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer p2.Stop()

	checkPrefix := func(jobID, format string, n int) []core.LogLine {
		t.Helper()
		lines := p2.Metrics.LogsFrom(jobID, 0)
		if len(lines) != n {
			t.Fatalf("recovered %d lines of %s, want exactly the %d before the torn frame", len(lines), jobID, n)
		}
		for i, l := range lines {
			// Learner-log offsets are 0-based per job.
			wantText := fmt.Sprintf(format, i+1)
			if l.Text != wantText || l.Offset != uint64(i) {
				t.Fatalf("recovered %s line %d = (%d, %q), want (%d, %q) — not a strict prefix",
					jobID, i, l.Offset, l.Text, i, wantText)
			}
		}
		return lines
	}
	lines := checkPrefix(jobX, "x-%03d", 50)
	checkPrefix(jobY, "y-%03d", 5)

	// No recovered offset is ever reassigned: a fresh append lands past
	// the recovered tail.
	appendLine(p2, jobX, "post-recovery")
	all := p2.Metrics.LogsFrom(jobX, 0)
	fresh := all[len(all)-1]
	if fresh.Text != "post-recovery" || fresh.Offset <= lines[len(lines)-1].Offset {
		t.Fatalf("post-recovery append got offset %d, want > %d (no reuse of recovered offsets)",
			fresh.Offset, lines[len(lines)-1].Offset)
	}
}

// TestRestartEmptyDataDir: reopening a DataDir that was never written
// is a clean empty platform (and a second boot of the same empty dir is
// too).
func TestRestartEmptyDataDir(t *testing.T) {
	dir := t.TempDir()
	r, err := NewProcessRestart(restartConfig(dir), provisionWorld)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	p2, err := r.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p2.Jobs.Find(nil, mongo.FindOpts{})); n != 0 {
		t.Fatalf("empty DataDir recovered %d jobs", n)
	}
	if got := p2.Mongo.OplogLen(); got != 0 {
		t.Fatalf("empty DataDir OplogLen = %d", got)
	}
}
