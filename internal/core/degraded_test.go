package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/mongo"
)

// TestDegradedModeServesReadsShedsSubmits is the end-to-end pin for
// graceful degradation (ISSUE acceptance): with the metadata store's
// breaker open, status and watch reads serve from the job document's
// image in the oplog (flagged Degraded) and submissions are shed with a
// retryable ErrDegraded — then everything recovers once the store heals
// and the breaker's open window elapses.
func TestDegradedModeServesReadsShedsSubmits(t *testing.T) {
	p := newTestPlatform(t, nil)
	c := p.Client()
	ctx := context.Background()

	// A job completes while the store is healthy.
	jobID, err := c.Submit(ctx, testManifest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, c, jobID, StatusCompleted, 20*time.Second)

	// Outage: the primary stops answering. The first failing submit's
	// retries trip the breaker (threshold 3 <= the policy's 3 attempts),
	// so degradation is immediate and subsequent submits shed fast.
	p.Mongo.SetUnavailable(true)
	if _, err := c.Submit(ctx, testManifest()); err == nil {
		t.Fatal("submit succeeded while the metadata store is down")
	} else if !IsDegraded(err) {
		t.Fatalf("submit error not degraded-retryable: %v", err)
	}
	if !p.Degraded() {
		t.Fatal("platform not degraded after breaker tripped")
	}
	// Shed path: breaker open, the submit is rejected up front.
	if _, err := c.Submit(ctx, testManifest()); !IsDegraded(err) {
		t.Fatalf("shed submit error = %v, want degraded", err)
	}

	// Status reads serve the oplog image's history, flagged Degraded.
	reply, err := c.Status(ctx, jobID)
	if err != nil {
		t.Fatalf("degraded status read failed: %v", err)
	}
	if !reply.Degraded {
		t.Fatal("status reply not flagged Degraded")
	}
	if reply.Status != StatusCompleted {
		t.Fatalf("degraded status = %s, want %s", reply.Status, StatusCompleted)
	}
	if len(reply.History) == 0 {
		t.Fatal("degraded status reply carries no history")
	}

	// List has no oplog image to fall back on: it must say so with the
	// retryable error, never answer "no jobs".
	if recs, err := c.List(ctx, "alice"); !IsDegraded(err) {
		t.Fatalf("List during the outage = %d jobs, err %v; want the degraded-retryable error", len(recs), err)
	}

	// Watch reads work too: the stream fills from the same oplog image,
	// in order through the terminal entry.
	wch, wcancel, err := c.WatchStatus(ctx, jobID)
	if err != nil {
		t.Fatalf("degraded WatchStatus: %v", err)
	}
	defer wcancel()
	var last JobStatus
	n := 0
	for e := range wch {
		last = e.Status
		n++
	}
	if last != StatusCompleted || n < 3 {
		t.Fatalf("degraded watch delivered %d entries ending %s, want full history ending %s", n, last, StatusCompleted)
	}

	// Heal. Once the breaker's open window elapses, a half-open probe
	// succeeds and submissions flow again.
	p.Mongo.SetUnavailable(false)
	deadline := time.Now().Add(5 * time.Second)
	var job2 string
	for {
		job2, err = c.Submit(ctx, testManifest())
		if err == nil {
			break
		}
		if !IsDegraded(err) {
			t.Fatalf("post-heal submit failed non-degraded: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered after heal: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitStatus(t, c, job2, StatusCompleted, 20*time.Second)

	// Healed replies are no longer flagged.
	reply, err = c.Status(ctx, job2)
	if err != nil || reply.Degraded {
		t.Fatalf("post-heal status degraded=%v err=%v, want clean read", reply.Degraded, err)
	}

	if recs, err := c.List(ctx, "alice"); err != nil || len(recs) != 2 {
		t.Fatalf("post-heal List = %d jobs, err %v; want both jobs", len(recs), err)
	}

	// The degraded window was observable on the platform counters.
	if got := p.Obs.CounterValue("api.degraded_sheds"); got < 2 {
		t.Fatalf("api.degraded_sheds = %d, want >= 2", got)
	}
	if got := p.Obs.CounterValue("api.degraded_reads"); got < 1 {
		t.Fatalf("api.degraded_reads = %d, want >= 1", got)
	}
}

// TestDeadOplogShedsSubmissions is the platform end of "acknowledged ⇒
// durable": when the metadata store's oplog stops taking writes (a
// FaultStore crash point under the real DataDir layout), submissions
// must shed with the retryable degraded error — never be acknowledged
// into a log that lost them — and a restart holds every job that was
// acknowledged.
func TestDeadOplogShedsSubmissions(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t, func(c *Config) {
		c.DataDir = dir
		c.StoreWrapper = func(name string, s commitlog.SegmentStore) commitlog.SegmentStore {
			if name != dirMongoOplog {
				return s
			}
			return commitlog.NewFaultStore(s, 16<<10) // a handful of jobs in
		}
	})
	c := p.Client()
	var acked []string
	var shed error
	for i := 0; i < 200; i++ {
		jobID, err := c.Submit(context.Background(), testManifest())
		if err != nil {
			shed = err
			break
		}
		acked = append(acked, jobID)
	}
	if !IsDegraded(shed) {
		t.Fatalf("submit on a dead oplog: err = %v after %d acknowledged, want the degraded-retryable error", shed, len(acked))
	}
	if len(acked) == 0 {
		t.Fatal("crash point hit before any submission was acknowledged")
	}
	p.Stop()

	p2 := newTestPlatform(t, func(c *Config) { c.DataDir = dir })
	for _, jobID := range acked {
		if _, err := p2.Jobs.FindOne(mongo.Filter{"_id": jobID}); err != nil {
			t.Fatalf("acknowledged job %s after restart: %v", jobID, err)
		}
	}
}

// TestDegradedStatusServesFullHistory pins where a degraded status read
// comes from: the job document's newest image in the oplog, which holds
// the whole history however many transitions other jobs published since.
// A read from a key-compacted window of recent transitions would return
// the job's terminal entry alone.
func TestDegradedStatusServesFullHistory(t *testing.T) {
	p := newTestPlatform(t, func(c *Config) {
		c.TimeCompression = 0
		c.StartDelay = func(string) time.Duration { return 0 }
	})
	p.NFS.BaseLatency = 0
	if err := p.Store.Put("datasets", "tiny/shard-0", make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	c := p.Client()
	ctx := context.Background()
	jobID, _, err := watchOneJob(c)
	if err != nil {
		t.Fatal(err)
	}

	// 8 segments of 256 transitions from further jobs.
	var published atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for published.Load() < 8*256 {
				_, got, err := watchOneJob(c)
				if err != nil {
					t.Error(err)
					return
				}
				published.Add(int64(len(got)))
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	recs, err := c.List(ctx, "")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var want []StatusEntry
	for _, rec := range recs {
		if rec.ID == jobID {
			want = rec.History
		}
	}
	if len(want) < 3 {
		t.Fatalf("%s: List history = %+v, want a whole lifecycle", jobID, want)
	}

	p.Mongo.SetUnavailable(true)
	reply, err := c.Status(ctx, jobID)
	if err != nil {
		t.Fatalf("degraded Status: %v", err)
	}
	if !reply.Degraded {
		t.Fatal("status reply during the outage not flagged Degraded")
	}
	if len(reply.History) != len(want) {
		t.Fatalf("degraded history has %d entries, List had %d: %+v", len(reply.History), len(want), reply.History)
	}
	for i, h := range want {
		got := reply.History[i]
		if got.Status != h.Status || !got.Time.Equal(h.Time) || got.Message != h.Message {
			t.Fatalf("degraded history entry %d = %+v, List had %+v", i+1, got, h)
		}
	}
	if reply.Status != want[len(want)-1].Status {
		t.Fatalf("degraded status = %s, want %s", reply.Status, want[len(want)-1].Status)
	}
}
