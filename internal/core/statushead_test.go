package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/rpc"
)

// slowStore delays every append by d while armed, and reports each
// delayed append's start on started.
type slowStore struct {
	commitlog.SegmentStore
	d       time.Duration
	armed   atomic.Bool
	started chan struct{}
}

func (s *slowStore) Append(base uint64, data []byte) (int, error) {
	if s.armed.Load() {
		select {
		case s.started <- struct{}{}:
		default:
		}
		time.Sleep(s.d)
	}
	return s.SegmentStore.Append(base, data)
}

// newIdlePlatform boots a platform with no worker nodes: its jobs stay
// PENDING, since no Guardian pod can run, so a test drives their status
// by hand.
func newIdlePlatform(t *testing.T, mutate func(*Config)) *Platform {
	t.Helper()
	cfg := Config{Seed: 42, PollInterval: 2 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	t.Cleanup(p.Stop)
	return p
}

func submitN(t *testing.T, c *Client, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		var err error
		if ids[i], err = c.Submit(context.Background(), testManifest()); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	return ids
}

// TestStatusWritesHoldNoPlatformLock pins that a job's status head is
// the only lock its transition takes. Every oplog append is delayed by
// d, and K jobs each write a transition: the oplog serialises the
// appends, so the writes take K·d in all. Meanwhile K other jobs each
// make a transition that needs no write — a no-op and an illegal move —
// and those finish in well under d. Under one platform-wide status
// lock held across each write they would wait for the writes ahead of
// them: d at least, K·d at most.
func TestStatusWritesHoldNoPlatformLock(t *testing.T) {
	const k, d = 4, 50 * time.Millisecond
	slow := &slowStore{d: d, started: make(chan struct{}, 1)}
	p := newIdlePlatform(t, func(c *Config) {
		c.StoreWrapper = func(name string, s commitlog.SegmentStore) commitlog.SegmentStore {
			if name != dirMongoOplog {
				return s
			}
			slow.SegmentStore = s
			return slow
		}
	})
	ids := submitN(t, p.Client(), 2*k)
	writers, others := ids[:k], ids[k:]

	slow.armed.Store(true)
	var wg sync.WaitGroup
	for _, id := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.setJobStatus(id, StatusDeploying, "slow write"); err != nil {
				t.Errorf("%s: %v", id, err)
			}
		}()
	}
	<-slow.started // a write is in the store

	start := time.Now()
	var quick sync.WaitGroup
	for _, id := range others {
		quick.Add(1)
		go func() {
			defer quick.Done()
			if err := p.setJobStatus(id, StatusPending, "no-op"); err != nil {
				t.Errorf("%s: no-op transition: %v", id, err)
			}
			if err := p.setJobStatus(id, StatusResumed, "illegal"); err == nil {
				t.Errorf("%s: PENDING -> RESUMED accepted", id)
			}
		}()
	}
	quick.Wait()
	elapsed := time.Since(start)
	wg.Wait()
	slow.armed.Store(false)
	if elapsed > d/2 {
		t.Fatalf("%d transitions without a write took %v behind %d slow writes of %v each, want well under %v",
			2*k, elapsed, k, d, d)
	}
	for _, id := range writers {
		if s, err := p.jobStatus(id); err != nil || s != StatusDeploying {
			t.Fatalf("%s: status %s (err %v), want DEPLOYING", id, s, err)
		}
	}
}

// TestRefusedStatusWriteLeavesNoStaleHead pins that a write whose
// outcome is unknown drops the job's head: the next transition re-reads
// the document. Here the refused write is applied behind the platform's
// back, as a write that landed after all would be, and the next
// transition must publish the Seq after it.
func TestRefusedStatusWriteLeavesNoStaleHead(t *testing.T) {
	p := newIdlePlatform(t, nil)
	jobID := submitN(t, p.Client(), 1)[0]
	events, cancel := p.bus.subscribe(jobID, 16)
	defer cancel()

	p.Mongo.SetUnavailable(true)
	if err := p.setJobStatus(jobID, StatusDeploying, "refused"); err == nil {
		t.Fatal("a transition succeeded while the store was down")
	}
	p.headsMu.Lock()
	_, stale := p.heads[jobID]
	p.headsMu.Unlock()
	if stale {
		t.Fatal("a refused write left the job's head in place")
	}
	p.Mongo.SetUnavailable(false)
	now := p.clock.Now().Format(time.RFC3339Nano)
	if err := p.Jobs.UpdateOne(mongo.Filter{"_id": jobID}, mongo.Update{
		Set:  mongo.Doc{"status": string(StatusDeploying)},
		Push: map[string]any{"history": map[string]any{"status": string(StatusDeploying), "time": now, "message": "landed"}},
	}); err != nil {
		t.Fatal(err)
	}

	// The store's breaker may still be open: retry until it admits the
	// transition.
	waitUntil(t, "the transition after the outage", 5*time.Second, func() bool {
		err := p.setJobStatus(jobID, StatusDownloading, "after the outage")
		if err != nil && !mongoOutageErr(err) {
			t.Fatalf("transition after the outage: %v", err)
		}
		return err == nil
	})
	select {
	case ev := <-events:
		if ev.Seq != 3 || ev.Entry.Status != StatusDownloading {
			t.Fatalf("published Seq %d %s, want Seq 3 DOWNLOADING", ev.Seq, ev.Entry.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no transition published")
	}
}

// TestWatchStatusChecksExistenceOnItsStream pins the one round trip a
// watch opens with: WatchStatus on an unknown job fails before it
// returns, and on a known job it makes no unary call — the stream's
// first item is the existence check.
func TestWatchStatusChecksExistenceOnItsStream(t *testing.T) {
	p := newIdlePlatform(t, nil)
	c := p.Client()
	ctx := context.Background()
	if _, _, err := c.WatchStatus(ctx, "training-999999"); !errors.As(err, new(*rpc.RemoteError)) {
		t.Fatalf("WatchStatus on an unknown job: err = %v, want the server's error", err)
	}
	jobID := submitN(t, c, 1)[0]
	calls := p.Obs.CounterValue("rpc.calls")
	ch, cancel, err := c.WatchStatus(ctx, jobID)
	if err != nil {
		t.Fatalf("WatchStatus: %v", err)
	}
	defer cancel()
	if e := <-ch; e.Status != StatusPending {
		t.Fatalf("first entry %s, want PENDING", e.Status)
	}
	if n := p.Obs.CounterValue("rpc.calls") - calls; n != 0 {
		t.Fatalf("WatchStatus made %d unary calls, want 0", n)
	}
}

// TestDegradedWatchWithoutImageFails pins the degraded half of the
// existence check: with the store down and no oplog image of the job,
// the watch's first fill fails with the degraded-retryable error, as a
// status read does.
func TestDegradedWatchWithoutImageFails(t *testing.T) {
	p := newIdlePlatform(t, nil)
	p.Mongo.SetUnavailable(true)
	if _, _, err := p.Client().WatchStatus(context.Background(), "training-999999"); !IsDegraded(err) {
		t.Fatalf("degraded WatchStatus with no oplog image: err = %v, want the degraded error", err)
	}
}
