package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
	"github.com/ffdl/ffdl/internal/mongo"
)

// TestStreamLogsCancelRacesAppendLog pins the learner-log fan-out against
// its subscribers' cancels: a cancel edits the subscriber slice in place,
// closes the channel and may forget the job's key, so a publish outside
// the fan-out's lock could send on a closed channel (a panic even under
// select/default) or read a slice being shifted under it. Run under
// -race.
func TestStreamLogsCancelRacesAppendLog(t *testing.T) {
	m := openMetrics(t, commitlog.NewMemStore())
	stop := make(chan struct{})
	appender := make(chan struct{})
	go func() {
		defer close(appender)
		for {
			select {
			case <-stop:
				return
			default:
				m.AppendLog("j", 0, time.Time{}, []byte("line\n"))
			}
		}
	}()
	var followers sync.WaitGroup
	for f := 0; f < 4; f++ {
		followers.Add(1)
		go func() {
			defer followers.Done()
			for i := 0; i < 2000; i++ {
				_, cancel := m.live.subscribe("j", m.live.buf)
				cancel()
			}
		}()
	}
	followers.Wait()
	close(stop)
	<-appender
}

// TestFollowForgetsEveryJob pins the fan-outs' cleanup: a follow that
// ends leaves no key behind, so a process that follows many jobs over
// its life does not grow either fan-out.
func TestFollowForgetsEveryJob(t *testing.T) {
	p := newTestPlatform(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // each follow subscribes, fills, and then sees ctx done
	send := func(any) error { return nil }
	for i := 0; i < 1000; i++ {
		jobID := fmt.Sprintf("followed-%d", i)
		if err := p.apis[0].handleLogs(ctx, LogsArgs{JobID: jobID, Follow: true}, send); err != nil {
			t.Fatalf("handleLogs(%s): %v", jobID, err)
		}
		// No such job: the watch's first fill fails after it subscribed.
		if err := p.apis[0].handleWatch(ctx, WatchArgs{JobID: jobID}, send); err == nil {
			t.Fatalf("handleWatch(%s) on a job with no document succeeded", jobID)
		}
	}
	if n := jobKeys(p.Metrics.live); n != 0 {
		t.Fatalf("learner-log fan-out holds %d job keys after every follow ended", n)
	}
	if n := jobKeys(p.bus); n != 0 {
		t.Fatalf("status bus holds %d job keys after every watch ended", n)
	}
}

// TestFanoutClosesOverflowingSubscriber pins the fan-out's gap signal:
// a subscriber whose buffer is full is closed and unregistered, after
// the items it holds, instead of being handed a gap. Every other
// subscriber gets every item, and no publish blocks.
func TestFanoutClosesOverflowingSubscriber(t *testing.T) {
	f := newFanout[LogLine](4)
	slow, cancelSlow := f.subscribe("j", 2)
	fast, cancelFast := f.subscribe("j", 8)
	all, cancelAll := f.subscribe("", 16)
	defer cancelAll()
	lone, cancelLone := f.subscribe("k", 1)
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < 8; i++ {
			f.publish("j", LogLine{JobID: "j", Offset: uint64(i)})
		}
		f.publish("k", LogLine{JobID: "k", Offset: 0})
		f.publish("k", LogLine{JobID: "k", Offset: 1})
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber")
	}
	drain := func(ch <-chan LogLine) (offsets []uint64, closed bool) {
		for {
			select {
			case l, ok := <-ch:
				if !ok {
					return offsets, true
				}
				offsets = append(offsets, l.Offset)
			default:
				return offsets, false
			}
		}
	}
	if got, closed := drain(slow); fmt.Sprint(got) != "[0 1]" || !closed {
		t.Fatalf("overflowing subscriber got %v (closed %v), want [0 1] and a close", got, closed)
	}
	if got, closed := drain(lone); fmt.Sprint(got) != "[0]" || !closed {
		t.Fatalf("overflowing lone subscriber got %v (closed %v), want [0] and a close", got, closed)
	}
	if got, closed := drain(fast); fmt.Sprint(got) != "[0 1 2 3 4 5 6 7]" || closed {
		t.Fatalf("subscriber with room got %v (closed %v), want every item and no close", got, closed)
	}
	if got, closed := drain(all); fmt.Sprint(got) != "[0 1 2 3 4 5 6 7 0 1]" || closed {
		t.Fatalf("every-job subscriber got %v (closed %v), want every item and no close", got, closed)
	}
	// The closed subscribers are unregistered: "k" is forgotten, "j"
	// holds only the subscriber with room, and a cancel after a close
	// does nothing.
	if n := jobKeys(f); n != 1 {
		t.Fatalf("fan-out holds %d job keys, want 1 (j)", n)
	}
	cancelSlow()
	cancelLone()
	f.mu.Lock()
	held := len(f.subs["j"])
	f.mu.Unlock()
	if held != 1 {
		t.Fatalf(`"j" holds %d subscribers, want 1`, held)
	}
	cancelFast()
	if n := jobKeys(f); n != 0 {
		t.Fatalf("fan-out holds %d job keys after every cancel, want 0", n)
	}
}

// jobKeys counts the per-job keys a fan-out holds; "" (every job) is
// the LCM's and the tenancy pump's.
func jobKeys[T any](f *fanout[T]) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.subs)
	if _, ok := f.subs[""]; ok {
		n--
	}
	return n
}

// followedStream drives one stream of the follow protocol from a test.
// open writes the stream's one backlog item, at position first, and
// returns add, which writes n more items to the durable copy and
// publishes each on the fan-out (the last one ending the stream when end
// is set and the stream has ending items), and serve, the API handler.
type followedStream struct {
	first uint64
	buf   func(p *Platform) int // the follower's subscription buffer
	ends  bool                  // the stream ends at an item, not only with ctx
	open  func(t *testing.T, p *Platform) (add func(n int, end bool), serve func(ctx context.Context, send func(any) error) error)
}

var (
	logsStream = followedStream{first: 0, buf: func(p *Platform) int { return p.Metrics.live.buf }, open: func(t *testing.T, p *Platform) (func(int, bool), func(context.Context, func(any) error) error) {
		const jobID = "gap-job"
		add := func(n int, _ bool) {
			for i := 0; i < n; i++ {
				p.Metrics.AppendLog(jobID, 0, time.Time{}, []byte("line\n"))
			}
		}
		add(1, false)
		return add, func(ctx context.Context, send func(any) error) error {
			return p.apis[0].handleLogs(ctx, LogsArgs{JobID: jobID, Follow: true}, send)
		}
	}}
	watchStream = followedStream{first: 1, buf: func(p *Platform) int { return p.bus.buf }, ends: true, open: func(t *testing.T, p *Platform) (func(int, bool), func(context.Context, func(any) error) error) {
		// The history is written straight to the job document, as another
		// replica would, in statuses the LCM's recovery scan skips.
		const jobID = "training-gap"
		entry := func(st JobStatus) map[string]any {
			return map[string]any{"status": string(st), "time": p.clock.Now().Format(time.RFC3339Nano), "message": "m"}
		}
		if _, err := p.Jobs.Insert(mongo.Doc{
			"_id": jobID, "name": "gap", "user": "carol",
			"status": string(StatusQueued), "history": []any{entry(StatusQueued)},
		}); err != nil {
			t.Fatal(err)
		}
		seq := 1
		add := func(n int, end bool) {
			for i := 0; i < n; i++ {
				st := StatusHalted
				if end && i == n-1 {
					st = StatusCompleted
				}
				if err := p.Jobs.UpdateOne(mongo.Filter{"_id": jobID}, mongo.Update{
					Set: mongo.Doc{"status": string(st)}, Push: map[string]any{"history": entry(st)},
				}); err != nil {
					t.Fatal(err)
				}
				seq++
				p.bus.publish(jobID, StatusEvent{JobID: jobID, StatusItem: StatusItem{Seq: seq, Entry: StatusEntry{Status: st}}})
			}
		}
		return add, func(ctx context.Context, send func(any) error) error {
			return p.apis[0].handleWatch(ctx, WatchArgs{JobID: jobID}, send)
		}
	}}
)

// The four tests below run both streams through the follower's
// adversarial schedule, one body for both (testFollowRefill): the stream
// stalls on its backlog item while a burst three times its buffer is
// published, so the fan-out closes the subscription. Every position
// arrives exactly once, in order, and a watch ends at its terminal item.
// PollInterval is a minute, so no timer can stand in for the close.

// TestFollowLogsRefillsOverflowGap pins the close rule on a log follow:
// the follower drains what its buffer held, re-subscribes and fills the
// rest of the burst, then streams the line published after it.
func TestFollowLogsRefillsOverflowGap(t *testing.T) { testFollowRefill(t, logsStream, false) }

// TestFollowLogsRefillsDroppedTail is the tail case on a log follow: no
// line follows the burst, so the fill after the close must deliver the
// burst's tail.
func TestFollowLogsRefillsDroppedTail(t *testing.T) { testFollowRefill(t, logsStream, true) }

// TestWatchRefillsOverflowGap is the gap case on a status watch.
func TestWatchRefillsOverflowGap(t *testing.T) { testFollowRefill(t, watchStream, false) }

// TestWatchRefillsDroppedTerminal is the tail case on a status watch:
// the burst ends in the terminal event, which the fill after the close
// must deliver before the stream ends.
func TestWatchRefillsDroppedTerminal(t *testing.T) { testFollowRefill(t, watchStream, true) }

// testFollowRefill runs s through the schedule. In the gap case (tail
// unset) one more item follows the burst.
func testFollowRefill(t *testing.T, s followedStream, tail bool) {
	p := newTestPlatform(t, func(c *Config) { c.PollInterval = time.Minute })
	add, serve := s.open(t, p)
	buf := s.buf(p)
	burst := 3 * buf
	entered, gate := make(chan struct{}), make(chan struct{})
	got := make(chan uint64, 2*burst) // every position sent, so send never blocks past the gate
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		first := true
		done <- serve(ctx, func(item any) error {
			if first {
				// Blocking on the backlog item proves the subscription
				// exists, and stalls the drain.
				first = false
				close(entered)
				<-gate
			}
			got <- item.(streamItem).position()
			return nil
		})
	}()
	<-entered
	add(burst, tail)
	close(gate)

	next := s.first
	recv := func(upTo uint64) {
		t.Helper()
		for ; next <= upTo; next++ {
			select {
			case pos := <-got:
				if pos != next {
					t.Fatalf("follower sent position %d, want %d", pos, next)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("follower stalled at position %d, want through %d", next, upTo)
			}
		}
	}
	last := s.first + uint64(burst)
	if !tail {
		recv(s.first + uint64(buf)) // the backlog item and what the buffer held
		add(1, true)
		last++
	}
	recv(last)
	if !s.ends {
		cancel()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follower: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("stream did not end after position %d", last)
	}
	select {
	case pos := <-got:
		t.Fatalf("follower sent position %d past the last, %d", pos, last)
	default:
	}
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

// TestFollowJoinsBetweenRecords pins the learner log's follow seam now
// that lines reach the fan-out only while a follow listens: a follow
// that subscribes between two records — the first appended with nobody
// listening, the second appended once the follow has subscribed or
// racing its subscribe — gets every line of both exactly once, in
// offset order.
func TestFollowJoinsBetweenRecords(t *testing.T) {
	p := newTestPlatform(t, nil)
	texts := []string{"a0", "a1", "a2", "b3", "b4", "b5", "b6"}
	for trial := 0; trial < 200; trial++ {
		jobID := fmt.Sprintf("seam-%d", trial)
		p.Metrics.AppendLog(jobID, 0, time.Time{}, []byte("a0\na1\na2\n"))
		ctx, cancel := context.WithCancel(context.Background())
		// Room for every line twice, so a follow that sent a line again
		// never blocks before the check below sees it.
		got := make(chan LogLine, 2*len(texts))
		done := make(chan error, 1)
		go func() {
			done <- p.apis[0].handleLogs(ctx, LogsArgs{JobID: jobID, Follow: true}, func(it any) error {
				got <- it.(LogItem).Line
				return nil
			})
		}()
		for trial%2 == 0 && !p.Metrics.live.listening(jobID) {
			runtime.Gosched()
		}
		p.Metrics.AppendLog(jobID, 1, time.Time{}, []byte("b3\nb4\nb5\nb6\n"))
		for i, text := range texts {
			select {
			case l := <-got:
				if l.Offset != uint64(i) || l.Text != text || l.Learner != min(i/3, 1) {
					t.Fatalf("trial %d: line %d = (%d, %q, learner %d), want (%d, %q, learner %d)",
						trial, i, l.Offset, l.Text, l.Learner, i, text, min(i/3, 1))
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("trial %d: follow delivered %d of %d lines", trial, i, len(texts))
			}
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("trial %d: handleLogs: %v", trial, err)
		}
		select {
		case l := <-got:
			t.Fatalf("trial %d: follow delivered line %d again", trial, l.Offset)
		default:
		}
	}
}
