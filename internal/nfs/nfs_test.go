package nfs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

func fastProvisioner() *Provisioner {
	p := NewProvisioner(sim.NewRealClock(), sim.NewRNG(1))
	p.BaseLatency = 0
	p.LoadPenalty = 0
	return p
}

func TestVolumeReadWrite(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile("learner0/exit", []byte("0")); err != nil {
		t.Fatal(err)
	}
	data, err := v.ReadFile("learner0/exit")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "0" {
		t.Fatalf("data = %q", data)
	}
	if _, err := v.ReadFile("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestVolumeAppendAndExists(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AppendFile("logs/learner0.log", []byte("line1\n")); err != nil {
		t.Fatal(err)
	}
	if err := v.AppendFile("logs/learner0.log", []byte("line2\n")); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile("status/learner0", []byte("RUNNING")); err != nil {
		t.Fatal(err)
	}
	data, _ := v.ReadFile("logs/learner0.log")
	if string(data) != "line1\nline2\n" {
		t.Fatalf("log = %q", data)
	}
	for _, path := range []string{"logs/learner0.log", "status/learner0"} {
		if !v.Exists(path) {
			t.Fatalf("%s missing", path)
		}
	}
	if v.Exists("logs/learner1.log") {
		t.Fatal("never-written file exists")
	}
}

func TestVolumeWatchDeliversWrites(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	ch := v.Watch()
	if err := v.WriteFile("learner0/exit", []byte("137")); err != nil {
		t.Fatal(err)
	}
	select {
	case path := <-ch:
		if path != "learner0/exit" {
			t.Fatalf("path = %q", path)
		}
	case <-time.After(time.Second):
		t.Fatal("watch event not delivered")
	}
}

func TestReleaseInvalidatesVolume(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	ch := v.Watch()
	p.Release(v)
	if err := v.WriteFile("x", nil); !errors.Is(err, ErrReleased) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := v.ReadFile("x"); !errors.Is(err, ErrReleased) {
		t.Fatalf("read err = %v", err)
	}
	if _, open := <-ch; open {
		t.Fatal("watch channel not closed on release")
	}
}

// TestWatchAfterReleaseIsClosed pins that a consumer subscribing after
// teardown (a helper or learner still starting when the job is torn
// down) sees the release at once instead of waiting on a channel that
// never closes, and that the released volume keeps no watcher.
func TestWatchAfterReleaseIsClosed(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	p.Release(v)
	ch := v.Watch()
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("watch on a released volume delivered a path")
		}
	default:
		t.Fatal("watch on a released volume returned an open channel")
	}
	v.mu.Lock()
	n := len(v.watchers)
	v.mu.Unlock()
	if n != 0 {
		t.Fatalf("released volume registered %d watchers", n)
	}
	v.Unwatch(ch) // not registered: must not panic
}

// TestUnwatchLeavesNoWatcher pins the unsubscribe contract a restarting
// helper relies on: Watch/Unwatch cycles leave no watcher behind, an
// unwatched channel is closed and receives nothing further, and
// Unwatch after Release is a no-op rather than a second close.
func TestUnwatchLeavesNoWatcher(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	// Learners keep writing while helper incarnations come and go.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := v.AppendFile("learners/0/stdout.log", []byte("x\n")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		ch := v.Watch()
		v.Unwatch(ch)
		for range ch { // drains what arrived before Unwatch, then ends
		}
	}
	close(stop)
	wg.Wait()
	v.mu.Lock()
	n := len(v.watchers)
	v.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d watchers left after 100 Watch/Unwatch cycles", n)
	}

	// Writes after Unwatch neither block nor reach the old channel, and
	// a live watcher still hears them.
	gone, live := v.Watch(), v.Watch()
	v.Unwatch(gone)
	for i := 0; i < 200; i++ { // more than a channel's buffer
		if err := v.WriteFile("learners/0/status", []byte("RUNNING")); err != nil {
			t.Fatal(err)
		}
	}
	if path, open := <-gone; open {
		t.Fatalf("unwatched channel received %q", path)
	}
	if path := <-live; path != "learners/0/status" {
		t.Fatalf("live watcher got %q", path)
	}

	p.Release(v)
	v.Unwatch(live) // already closed by Release: must not panic
	v.Unwatch(gone)
}

func TestProvisionLatencyGrowsWithLoad(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	clock.StartAutoAdvance(200 * time.Microsecond)
	defer clock.StopAutoAdvance()
	p := NewProvisioner(clock, sim.NewRNG(1))
	p.BaseLatency = time.Second
	p.LoadPenalty = time.Second

	start := clock.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var maxElapsed time.Duration
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Provision("j"); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if e := clock.Since(start); e > maxElapsed {
				maxElapsed = e
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	// With 5 concurrent provisions the slowest should include load
	// penalty (>= 2s), versus 1s unloaded.
	if maxElapsed < 2*time.Second {
		t.Fatalf("max provisioning latency = %v, want >= 2s under load", maxElapsed)
	}
}

func TestProvisionFailsUnderHeavyLoad(t *testing.T) {
	p := fastProvisioner()
	p.FailureThreshold = 0
	p.FailureSlope = 1.0 // guaranteed failure when over threshold

	// Hold many provisions in flight by blocking on a slow clock.
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Provision("j"); err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failures == 0 {
		t.Fatal("no provisioning failures despite saturation settings")
	}
}

func TestConcurrentVolumeAccess(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := string(rune('a' + w))
			for i := 0; i < 100; i++ {
				if err := v.AppendFile(path, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		data, err := v.ReadFile(string(rune('a' + w)))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 100 {
			t.Fatalf("file %c has %d bytes", 'a'+w, len(data))
		}
	}
}
