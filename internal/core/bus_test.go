package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

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
