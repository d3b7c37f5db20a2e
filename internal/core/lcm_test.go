package core

import (
	"context"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/sim"
)

// newFakeClockPlatform boots a platform on fc with one 4-GPU node. The
// caller decides whether the clock moves until cleanup, which advances
// it so that pods waiting on it can stop.
func newFakeClockPlatform(t *testing.T, fc *sim.FakeClock, mutate func(*Config)) *Platform {
	t.Helper()
	t.Cleanup(fc.StopAutoAdvance)
	cfg := Config{
		Clock:             fc,
		Seed:              13,
		PollInterval:      50 * time.Millisecond,
		RendezvousTimeout: 10 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	t.Cleanup(p.Stop)
	t.Cleanup(func() { fc.StartAutoAdvance(time.Millisecond) })
	p.AddNode("node0", "K80", 4, 32, 256<<10)
	p.Store.EnsureBucket("datasets")
	if err := p.Store.Put("datasets", "mnist/shard-0", make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	return p
}

// guardianOf returns the job's Guardian kube Job.
func guardianOf(p *Platform, jobID string) (*kube.Job, bool) {
	obj, ok := p.Kube.Store().Get(kube.KindJob, guardianJobName(jobID))
	if !ok {
		return nil, false
	}
	j, ok := obj.(*kube.Job)
	return j, ok
}

// allJobSubscribers counts the status bus's "" subscribers.
func allJobSubscribers(p *Platform) int {
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	return len(p.bus.subs[""])
}

// TestLCMScansWhenItsBusSubscriptionCloses pins the recovery loop's gap
// signal on a clock that never moves: a job persisted PENDING with no
// bus event is not deployed while the LCM's subscription is open, and is
// deployed by the scan that follows the subscription's close. No tick
// stands behind the close.
func TestLCMScansWhenItsBusSubscriptionCloses(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, nil)
	start := fc.Now()
	// Open admission: the LCM is the only subscriber to every job.
	waitUntil(t, "the LCM subscribes", 5*time.Second, func() bool { return allJobSubscribers(p) == 1 })
	pending := func(jobID string) {
		p.bus.publish(jobID, StatusEvent{JobID: jobID, StatusItem: StatusItem{Seq: 1, Entry: StatusEntry{Status: StatusPending}}})
	}
	// The loop handles events after its boot scan, so a deployed marker
	// shows the boot scan is over.
	pending("training-marker-1")
	waitUntil(t, "the first marker's guardian", 5*time.Second, func() bool { _, ok := guardianOf(p, "training-marker-1"); return ok })

	const jobID = "training-silent"
	if _, err := p.Jobs.Insert(mongo.Doc{
		"_id": jobID, "name": "silent", "user": "carol", "status": string(StatusPending),
		"history": []any{map[string]any{"status": string(StatusPending), "time": start.Format(time.RFC3339Nano), "message": "m"}},
	}); err != nil {
		t.Fatal(err)
	}
	pending("training-marker-2")
	waitUntil(t, "the second marker's guardian", 5*time.Second, func() bool { _, ok := guardianOf(p, "training-marker-2"); return ok })
	if _, ok := guardianOf(p, jobID); ok {
		t.Fatal("a job with no PENDING event was deployed while the LCM's subscription was open")
	}

	// Close the LCM's subscription as a full buffer would.
	p.bus.mu.Lock()
	p.bus.unsubscribeLocked("", 0)
	p.bus.mu.Unlock()
	waitUntil(t, "the scan after the close deploys the job", 5*time.Second, func() bool { _, ok := guardianOf(p, jobID); return ok })
	waitUntil(t, "the LCM re-subscribes", 5*time.Second, func() bool { return allJobSubscribers(p) == 1 })
	if !fc.Now().Equal(start) {
		t.Fatalf("the clock moved %v", fc.Since(start))
	}
}

// TestLCMResurrectsFailedGuardianOnWatch pins resurrection on the kube
// Job watch: a live job whose Guardian Job kube marks Failed gets a
// fresh Guardian, with no scan and no tick behind it.
func TestLCMResurrectsFailedGuardianOnWatch(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, nil)
	start := fc.Now()
	jobID, err := p.Client().Submit(context.Background(), testManifest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitUntil(t, "the guardian", 5*time.Second, func() bool { _, ok := guardianOf(p, jobID); return ok })

	// The Guardian never started: the clock stands still. Mark its Job
	// as kube does when the restart backoff runs out.
	p.Kube.Store().UpdateJob(guardianJobName(jobID), func(j *kube.Job) { j.Failed = true })
	waitUntil(t, "the resurrection", 5*time.Second, func() bool {
		j, ok := guardianOf(p, jobID)
		return ok && !j.Failed && p.Obs.CounterValue("lcm.guardian_resurrections") == 1
	})
	if !fc.Now().Equal(start) {
		t.Fatalf("the clock moved %v", fc.Since(start))
	}
}

// TestRunningJobsCostNoTicks pins the steady state of running jobs on a
// FakeClock, with tenancy off and on: an idle platform's only clock
// waiters are the kube's, so the LCM and the tenant dispatcher hold
// none; a running job adds only its learner's, so its Guardian holds
// none; opening a WatchStatus and a FollowLogs on every running job adds
// none; and ten PollInterval*10 periods cost no MongoDB op, no Guardian
// evaluation and no dispatcher resync.
func TestRunningJobsCostNoTicks(t *testing.T) {
	t.Run("tenancy off", func(t *testing.T) { testRunningJobsCostNoTicks(t, nil) })
	t.Run("tenancy on", func(t *testing.T) { testRunningJobsCostNoTicks(t, aliceTenancy) })
}

func testRunningJobsCostNoTicks(t *testing.T, tenancy func(*Config)) {
	const jobs = 3
	fc := sim.NewFakeClock(time.Unix(0, 0))
	p := newFakeClockPlatform(t, fc, func(c *Config) {
		c.TimeCompression = 1e-3
		// Each period is advanced in one step, so node leases must
		// outlast all ten.
		c.HeartbeatInterval = 2 * time.Minute
		c.NodeGracePeriod = 10 * time.Minute
		if tenancy != nil {
			tenancy(c)
		}
	})
	const kubeWaiters = 2 // the lease renewal loop and the node controller
	if n := quiescentWaiters(fc); n != kubeWaiters {
		t.Fatalf("an idle platform holds %d clock waiters, want the kube's %d", n, kubeWaiters)
	}

	fc.StartAutoAdvance(5 * time.Millisecond)
	c := p.Client()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ids := make([]string, jobs)
	for i := range ids {
		m := testManifest()
		m.DataPrefix, m.Iterations, m.CheckpointEvery = "mnist/", 1<<30, 0
		id, err := c.Submit(ctx, m)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
		st, err := c.WaitForStatus(wctx, id, StatusProcessing, p.cfg.PollInterval)
		wcancel()
		if err != nil || st != StatusProcessing {
			t.Fatalf("%s reached %s (err %v), want PROCESSING", id, st, err)
		}
	}
	fc.StopAutoAdvance()
	// Each learner sleeps out one training iteration; no control-plane
	// component holds a timer for a running job.
	running := quiescentWaiters(fc)
	if running != kubeWaiters+jobs {
		t.Fatalf("%d clock waiters with %d jobs running, want the kube's %d and one per learner", running, jobs, kubeWaiters)
	}

	lines := make(chan struct{}, 1024)
	for _, id := range ids {
		ch, stop, err := c.WatchStatus(ctx, id)
		if err != nil {
			t.Fatalf("WatchStatus(%s): %v", id, err)
		}
		defer stop()
		for e := range ch {
			if e.Status == StatusProcessing {
				break // the backlog is delivered: the follow is live
			}
		}
		go c.FollowLogs(ctx, id, func(LogLine) { //nolint:errcheck // ends with ctx
			select {
			case lines <- struct{}{}:
			default:
			}
		})
		<-lines // the log backlog is delivered
	}
	if n := quiescentWaiters(fc); n != running {
		t.Fatalf("%d clock waiters with every job followed, %d without", n, running)
	}

	ops := func() int64 {
		h, _ := p.Obs.Snapshot().Histogram("mongo.op_latency")
		return int64(h.Count)
	}
	resyncs := func() uint64 {
		if p.Dispatcher == nil {
			return 0
		}
		return p.Dispatcher.Stats().Resyncs
	}
	ops0, checks0, resyncs0 := ops(), p.Obs.CounterValue("guardian.checks"), resyncs()
	for i := 0; i < 10; i++ {
		fc.Advance(p.cfg.PollInterval * 10)
		quiescentWaiters(fc)
	}
	if n := ops() - ops0; n != 0 {
		t.Fatalf("ten PollInterval*10 periods of running jobs cost %d MongoDB ops, want 0", n)
	}
	if n := p.Obs.CounterValue("guardian.checks") - checks0; n != 0 {
		t.Fatalf("ten PollInterval*10 periods of running jobs cost %d Guardian evaluations, want 0", n)
	}
	if n := resyncs() - resyncs0; n != 0 {
		t.Fatalf("ten PollInterval*10 periods of running jobs cost %d dispatcher resyncs, want 0", n)
	}
	for _, id := range ids {
		if r, err := c.Status(ctx, id); err != nil || r.Status != StatusProcessing {
			t.Fatalf("%s is %s (err %v) after the periods, want PROCESSING", id, r.Status, err)
		}
	}
}

// quiescentWaiters waits until fc's waiter count holds still for 50ms
// of wall time and returns it.
func quiescentWaiters(fc *sim.FakeClock) int {
	n := fc.WaiterCount()
	for still := 0; still < 10; {
		time.Sleep(5 * time.Millisecond)
		if m := fc.WaiterCount(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestDeployRetriesBackOff pins the Guardian's pause before a deploy
// retry: a jittered 5–15 PollIntervals on the platform clock before the
// first, and a stopped pod ends the wait at once, leaving no clock
// waiter behind.
func TestDeployRetriesBackOff(t *testing.T) {
	fc := sim.NewFakeClock(time.Unix(0, 0))
	pi := 50 * time.Millisecond
	p := &Platform{clock: fc, cfg: Config{Seed: 13, PollInterval: pi}}
	base := fc.WaiterCount()
	stop := make(chan struct{})
	rng := sim.NewRNG(13)

	done := make(chan bool, 1)
	go func() { done <- p.deployRetryWait(stop, 0, rng) }()
	waitUntil(t, "the retry's timer", time.Second, func() bool { return fc.WaiterCount() == base+1 })
	fc.Advance(5*pi - time.Nanosecond)
	select {
	case <-done:
		t.Fatal("the retry ran before 5 PollIntervals")
	case <-time.After(20 * time.Millisecond):
	}
	fc.Advance(10 * pi)
	if !<-done {
		t.Fatal("the pause reported a stop")
	}

	go func() { done <- p.deployRetryWait(stop, 1, rng) }()
	waitUntil(t, "the second retry's timer", time.Second, func() bool { return fc.WaiterCount() == base+1 })
	close(stop)
	if <-done {
		t.Fatal("a stopped pod kept waiting")
	}
	if n := fc.WaiterCount(); n != base {
		t.Fatalf("%d clock waiters after the stop, want %d", n, base)
	}
}
