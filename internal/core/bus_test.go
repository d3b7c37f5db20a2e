package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// publishJob publishes a whole six-transition lifecycle for jobID.
func publishJob(b *statusBus, jobID string) {
	for seq, st := range []JobStatus{StatusPending, StatusDeploying, StatusDownloading,
		StatusProcessing, StatusStoring, StatusCompleted} {
		b.Publish(StatusEvent{JobID: jobID, Seq: seq + 1, Status: st, Entry: StatusEntry{Status: st}})
	}
}

// TestReplayJobCostFollowsTheJobNotTheLog pins the cost of the fill on a
// full bus log (all 8 sealed segments in place, thousands of records
// appended): a replay
// allocates in proportion to the events it returns, a read of a job the
// log can no longer answer for allocates nothing, and the tracking map
// that makes both true stays bounded by what is replayable rather than
// by how many jobs ever finished.
func TestReplayJobCostFollowsTheJobNotTheLog(t *testing.T) {
	b := newMemBus(t)
	const jobs = 1000 // 6000 publishes, 23 segments sealed
	for i := 0; i < jobs; i++ {
		publishJob(b, fmt.Sprintf("job-%04d", i))
	}
	if n := b.log.SegmentCount(); n != 8+1 {
		t.Fatalf("bus log has %d segments, want all 8 sealed ones and the active one", n)
	}
	if n := len(b.first); n > busSegmentRecords {
		t.Fatalf("bus tracks %d jobs after %d finished; tracking must follow the replayable window, not the job count", n, jobs)
	}

	newest := fmt.Sprintf("job-%04d", jobs-1)
	evs, contiguous := b.ReplayJob(newest, 1)
	if !contiguous || len(evs) != 6 {
		t.Fatalf("ReplayJob(newest, 1) = %d events, contiguous=%v; want 6, true", len(evs), contiguous)
	}
	// 6 events grow a slice 1→2→4→8: four allocations, however long the log.
	if a := testing.AllocsPerRun(50, func() { b.ReplayJob(newest, 1) }); a > 6 {
		t.Fatalf("ReplayJob of a 6-event job on a %d-record log allocates %.0f times, want <= 6", b.log.Len(), a)
	}

	// A job finished long ago: compaction kept only its terminal event.
	// The healthy read must learn that from the map, not from the log.
	if evs, contiguous := b.ReplayJob("job-0000", 1); contiguous || len(evs) != 0 {
		t.Fatalf("ReplayJob(compacted job) = %d events, contiguous=%v; want an untracked miss", len(evs), contiguous)
	}
	if a := testing.AllocsPerRun(50, func() { b.ReplayJob("job-0000", 1) }); a != 0 {
		t.Fatalf("ReplayJob of an untracked job allocates %.0f times, want 0", a)
	}
	// The degraded read still finds what compaction left of it.
	if evs := b.Retained("job-0000", 1); len(evs) != 1 || evs[0].Status != StatusCompleted {
		t.Fatalf("Retained(compacted job) = %+v, want its terminal event", evs)
	}
}

// TestReplayJobTracksLongRunningJob: a job whose early transitions were
// compacted away is tracked again from its next transition on, so a
// reconnecting watcher resumes from the log while a from-the-start read
// is (correctly) sent to MongoDB.
func TestReplayJobTracksLongRunningJob(t *testing.T) {
	b := newMemBus(t)
	b.Publish(StatusEvent{JobID: "long", Seq: 1, Status: StatusPending})
	b.Publish(StatusEvent{JobID: "long", Seq: 2, Status: StatusDeploying})
	for i := 0; i < 100; i++ { // seal and compact the segment holding Seq 1-2
		publishJob(b, fmt.Sprintf("churn-%03d", i))
	}
	if _, contiguous := b.ReplayJob("long", 1); contiguous {
		t.Fatal("ReplayJob(long, 1) claims completeness after Seq 1 was compacted away")
	}
	b.Publish(StatusEvent{JobID: "long", Seq: 3, Status: StatusProcessing})
	b.Publish(StatusEvent{JobID: "long", Seq: 4, Status: StatusStoring})
	if evs, contiguous := b.ReplayJob("long", 3); !contiguous || len(evs) != 2 {
		t.Fatalf("ReplayJob(long, 3) = %d events, contiguous=%v; want 2, true", len(evs), contiguous)
	}
	if _, contiguous := b.ReplayJob("long", 1); contiguous {
		t.Fatal("ReplayJob(long, 1) claims completeness across the compacted front")
	}
}

// TestStreamLogsCancelRacesAppendLog pins the log fan-out against its
// subscribers' cancels: a cancel edits the subscriber slice in place and
// closes the channel, so a fan-out outside the service lock could send
// on a closed channel (a panic even under select/default) or read a
// slice being shifted under it. Run under -race.
func TestStreamLogsCancelRacesAppendLog(t *testing.T) {
	m := NewMetricsService(nil)
	stop := make(chan struct{})
	appender := make(chan struct{})
	go func() {
		defer close(appender)
		for {
			select {
			case <-stop:
				return
			default:
				m.AppendLog(LogLine{JobID: "j", Text: "line"})
			}
		}
	}()
	var followers sync.WaitGroup
	for f := 0; f < 4; f++ {
		followers.Add(1)
		go func() {
			defer followers.Done()
			for i := 0; i < 2000; i++ {
				_, cancel := m.StreamLogs("j")
				cancel()
			}
		}()
	}
	followers.Wait()
	close(stop)
	<-appender
}

// TestWatchDeliversEveryFastJob pins the "lost wake-up on the watch
// path" lead of bench/README.md: jobs that finish about a millisecond
// after submit, every ticker stretched so no safety tick can rescue a
// stream that missed an event. Every WatchStatus must deliver the full
// history, in order, and close on the terminal entry.
func TestWatchDeliversEveryFastJob(t *testing.T) {
	jobs := 600
	if testing.Short() {
		jobs = 150
	}
	p := newTestPlatform(t, func(c *Config) {
		c.PollInterval = 30 * time.Second
		c.SchedulerInterval = time.Minute
		c.ResyncInterval = time.Minute
		c.HeartbeatInterval = 2 * time.Minute
		c.NodeGracePeriod = 10 * time.Minute
		c.TimeCompression = 0
		c.StartDelay = func(string) time.Duration { return 0 }
		c.DataDir = t.TempDir() // the lead was seen on the durable arm
	})
	p.NFS.BaseLatency = 0
	if err := p.Store.Put("datasets", "tiny/shard-0", make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	c := p.Client()

	const clients = 2 // closed loop, as in the benchmark that met the hang
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		watched = map[string][]StatusEntry{}
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs/clients; i++ {
				jobID, got, err := watchOneJob(c)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				watched[jobID] = got
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The watch equals the history MongoDB holds, entry for entry.
	recs, err := c.List(context.Background(), "")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(recs) != len(watched) {
		t.Fatalf("List holds %d jobs, %d were watched", len(recs), len(watched))
	}
	for _, rec := range recs {
		got := watched[rec.ID]
		if len(got) != len(rec.History) {
			t.Fatalf("%s: watch delivered %d transitions, history has %d", rec.ID, len(got), len(rec.History))
		}
		for i, h := range rec.History {
			if got[i].Status != h.Status || !got[i].Time.Equal(h.Time) {
				t.Fatalf("%s: transition %d is %s on the watch, %s in history", rec.ID, i+1, got[i].Status, h.Status)
			}
		}
	}
}

// watchOneJob submits a job and watches it to its terminal entry.
func watchOneJob(c *Client) (string, []StatusEntry, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m := testManifest()
	m.DataPrefix, m.Iterations, m.CheckpointEvery = "tiny/", 2, 0
	jobID, err := c.Submit(ctx, m)
	if err != nil {
		return "", nil, fmt.Errorf("Submit: %w", err)
	}
	ch, stop, err := c.WatchStatus(ctx, jobID)
	if err != nil {
		return "", nil, fmt.Errorf("WatchStatus(%s): %w", jobID, err)
	}
	defer stop()
	var got []StatusEntry
	for e := range ch {
		got = append(got, e)
	}
	if len(got) == 0 || !got[len(got)-1].Status.Terminal() {
		return "", nil, fmt.Errorf("%s: watch closed after %d entries without a terminal one (lost wake-up): %+v", jobID, len(got), got)
	}
	return jobID, got, nil
}
