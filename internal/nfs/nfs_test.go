package nfs

import (
	"bytes"
	"errors"
	"strconv"
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
	case _, open := <-ch:
		if !open {
			t.Fatal("watch closed instead of waking")
		}
	case <-time.After(time.Second):
		t.Fatal("watch wake-up not delivered")
	}
}

// TestWatchHoldsOneWakeUp pins the watcher's buffer: a burst of writes
// with no receive leaves exactly one wake-up pending, and the rescan
// after receiving it sees the burst's last write.
func TestWatchHoldsOneWakeUp(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	ch := v.Watch()
	for i := 0; i < 1000; i++ {
		if err := v.WriteFile("learners/0/status", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ch); n != 1 {
		t.Fatalf("%d wake-ups pending after 1000 writes, want 1", n)
	}
	<-ch
	select {
	case <-ch:
		t.Fatal("a second wake-up was pending")
	default:
	}
	if data, err := v.ReadFile("learners/0/status"); err != nil || string(data) != "999" {
		t.Fatalf("rescan read %q, %v; want the last write", data, err)
	}
}

// TestReadFileSharesStoredBytes pins the sharing contract: ReadFile
// allocates nothing, and a view reads the same after the file is
// appended to, appended through the view, or replaced.
func TestReadFileSharesStoredBytes(t *testing.T) {
	p := fastProvisioner()
	v, err := p.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	const log = "learners/0/stdout.log"
	if err := v.AppendFile(log, []byte("line1\n")); err != nil {
		t.Fatal(err)
	}
	view, _ := v.ReadFile(log)
	if got := testing.AllocsPerRun(100, func() { view, _ = v.ReadFile(log) }); got != 0 {
		t.Fatalf("ReadFile made %.0f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { v.ReadFile("missing") }); got != 0 { //nolint:errcheck
		t.Fatalf("ReadFile of a missing file made %.0f allocations, want 0", got)
	}
	if cap(view) != len(view) {
		t.Fatalf("view has capacity %d past its length %d", cap(view), len(view))
	}
	_ = append(view, "clobber"...)
	if err := v.AppendFile(log, []byte("line2\n")); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile("learners/0/status", []byte("RUNNING")); err != nil {
		t.Fatal(err)
	}
	status, _ := v.ReadFile("learners/0/status")
	if err := v.WriteFile("learners/0/status", []byte("DONE")); err != nil {
		t.Fatal(err)
	}
	if string(view) != "line1\n" || string(status) != "RUNNING" {
		t.Fatalf("views changed under later writes: %q, %q", view, status)
	}
	if data, _ := v.ReadFile(log); string(data) != "line1\nline2\n" {
		t.Fatalf("log = %q", data)
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
			t.Fatal("watch on a released volume delivered a wake-up")
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
	if _, open := <-gone; open {
		t.Fatal("unwatched channel received a wake-up")
	}
	if _, open := <-live; !open {
		t.Fatal("live watcher closed instead of waking")
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

// FuzzVolumeReadsStayPut checks the volume's sharing and wake-up
// contracts against a model over a fuzz-chosen sequence of writes,
// appends, reads, watches, receives and a release. After every op each
// view ReadFile returned still reads as it did, and each live watcher
// holds exactly one wake-up if any write landed since its last receive
// and none otherwise. A read returns the model's bytes, capped at their
// length; after the release every operation reports it.
func FuzzVolumeReadsStayPut(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0x31, 2, 0x31, 1, 0x42, 2, 0x31, 0, 0x31, 4, 0, 4, 0, 2, 0x31})
	f.Add([]byte{3, 0, 3, 1, 0, 0x20, 4, 1, 1, 0x21, 2, 0x21, 5, 0, 2, 0, 4, 0, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		prov := fastProvisioner()
		v, err := prov.Provision("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		paths := [...]string{"learners/0/status", "learners/0/stdout.log", "learners/1/ready"}
		model := make(map[string][]byte)
		type view struct{ got, want []byte }
		var views []view
		type watcher struct {
			ch      <-chan struct{}
			pending bool
		}
		var watchers []*watcher
		released := false
		wrote := func(err error) {
			if released {
				if !errors.Is(err, ErrReleased) {
					t.Fatalf("write after release: err = %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range watchers {
				w.pending = true
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			path := paths[int(arg)%len(paths)]
			data := bytes.Repeat([]byte{arg}, int(arg>>4))
			switch ops[i] % 6 {
			case 0:
				wrote(v.WriteFile(path, data))
				if !released {
					model[path] = bytes.Clone(data)
				}
			case 1:
				wrote(v.AppendFile(path, data))
				if !released {
					old := model[path]
					model[path] = append(old[:len(old):len(old)], data...)
				}
			case 2:
				got, err := v.ReadFile(path)
				want, exists := model[path]
				switch {
				case released:
					if !errors.Is(err, ErrReleased) {
						t.Fatalf("read after release: err = %v", err)
					}
				case !exists:
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("read of a missing file: err = %v", err)
					}
				case err != nil:
					t.Fatal(err)
				case !bytes.Equal(got, want) || cap(got) != len(got):
					t.Fatalf("read %q (cap %d), want %q", got, cap(got), want)
				default:
					views = append(views, view{got: got, want: bytes.Clone(got)})
				}
			case 3:
				watchers = append(watchers, &watcher{ch: v.Watch()})
			case 4:
				if len(watchers) == 0 {
					continue
				}
				w := watchers[int(arg)%len(watchers)]
				select {
				case _, open := <-w.ch:
					if open && !w.pending {
						t.Fatal("a watcher woke with no write since its last receive")
					}
					if !open && !released {
						t.Fatal("a watcher closed before the release")
					}
					w.pending = false
				default:
					if w.pending || released {
						t.Fatalf("a watcher held no wake-up (released %v)", released)
					}
				}
			case 5:
				prov.Release(v)
				released = true
			}
			for _, vw := range views {
				if !bytes.Equal(vw.got, vw.want) {
					t.Fatalf("a view changed from %q to %q", vw.want, vw.got)
				}
			}
			if released {
				continue
			}
			for _, w := range watchers {
				want := 0
				if w.pending {
					want = 1
				}
				if len(w.ch) != want {
					t.Fatalf("a watcher holds %d wake-ups, want %d", len(w.ch), want)
				}
			}
		}
	})
}
