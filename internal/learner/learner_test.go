package learner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/nfs"
	"github.com/ffdl/ffdl/internal/objstore"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/sim"
)

type fixture struct {
	prov  *nfs.Provisioner
	vol   *nfs.Volume
	store *objstore.Service
	mount *objstore.Mount
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	prov := nfs.NewProvisioner(sim.NewRealClock(), sim.NewRNG(1))
	prov.BaseLatency, prov.LoadPenalty = 0, 0
	vol, err := prov.Provision("job1")
	if err != nil {
		t.Fatal(err)
	}
	store := objstore.New(objstore.Config{})
	store.EnsureBucket("data")
	store.EnsureBucket("results")
	if err := store.Put("data", "train/shard-0", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	return &fixture{prov: prov, vol: vol, store: store, mount: store.NewMount("data", 64<<20)}
}

func (f *fixture) spec(ordinal, learners int) Spec {
	return Spec{
		JobID: "job1", Ordinal: ordinal, Learners: learners,
		Model: perf.ResNet50, Framework: perf.TensorFlow, GPUType: perf.V100,
		GPUs: 1, CPUThreads: 16, BatchSize: 64,
		Iterations: 50, CheckpointEvery: 10,
		Volume: f.vol, Mount: f.mount,
		DataBucket: "data", DataPrefix: "train/",
		ResultStore: f.store, ResultBucket: "results",
		TimeCompression: 0, // no sleeping in tests
	}
}

// waitVolume blocks until cond holds, rescanning after every write
// notification from the volume, and fails the test if it does not hold
// within d. Like the platform's consumers it relies on the volume
// dropping a notification only to a full watcher.
func waitVolume(t *testing.T, vol *nfs.Volume, d time.Duration, what string, cond func() bool) {
	t.Helper()
	writes := vol.Watch()
	defer vol.Unwatch(writes)
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for !cond() {
		select {
		case _, ok := <-writes:
			if !ok {
				t.Fatalf("volume released while waiting for %s", what)
			}
			sim.Coalesce(writes, nil)
		case <-deadline.C:
			t.Fatalf("%s: not within %v", what, d)
		}
	}
}

// runToExit runs a single learner and stops it once its exit file
// appears (as the platform does after the controller observes
// completion).
func runToExit(t *testing.T, p *Process, f *fixture, ordinal int) int {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() { done <- p.Run(stop) }()
	exitPath := fmt.Sprintf("learners/%d/exit", ordinal)
	waitVolume(t, f.vol, 5*time.Second, "exit file", func() bool { return f.vol.Exists(exitPath) })
	close(stop)
	select {
	case code := <-done:
		return code
	case <-time.After(2 * time.Second):
		t.Fatal("learner did not exit after stop")
		return -1
	}
}

// runGang runs n learners of one gang with specs from mk, waits for
// every exit file, stops them all and returns their exit codes.
func runGang(t *testing.T, f *fixture, n int, mk func(ordinal int) Spec) []int {
	t.Helper()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		p := New(mk(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = p.Run(stop)
		}(i)
	}
	waitVolume(t, f.vol, 10*time.Second, "all exit files", func() bool {
		for i := 0; i < n; i++ {
			if !f.vol.Exists(fmt.Sprintf("learners/%d/exit", i)) {
				return false
			}
		}
		return true
	})
	close(stop)
	wg.Wait()
	return codes
}

func TestSingleLearnerLifecycle(t *testing.T) {
	f := newFixture(t)
	p := New(f.spec(0, 1))
	code := runToExit(t, p, f, 0)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := f.vol.ReadFile("learners/0/exit")
	if err != nil || string(data) != "0" {
		t.Fatalf("exit file = %q err=%v", data, err)
	}
	st, _ := f.vol.ReadFile("learners/0/status")
	if string(st) != StatusCompleted {
		t.Fatalf("status = %q", st)
	}
	// Final model stored.
	if _, err := f.store.Head("results", "job1/model/final.bin"); err != nil {
		t.Fatalf("final model missing: %v", err)
	}
	// Logs emitted.
	logData, err := f.vol.ReadFile("learners/0/stdout.log")
	if err != nil || len(logData) == 0 {
		t.Fatal("no logs")
	}
	// Checkpoints written at the configured cadence.
	objs, _ := f.store.List("results", "job1/checkpoints/")
	if len(objs) != 5 {
		t.Fatalf("checkpoints = %d, want 5 (50 iters / every 10)", len(objs))
	}
}

func TestDistributedRendezvousAndCompletion(t *testing.T) {
	f := newFixture(t)
	const n = 3
	codes := runGang(t, f, n, func(i int) Spec { return f.spec(i, n) })
	for i, c := range codes {
		if c != 0 {
			t.Fatalf("learner %d exit = %d", i, c)
		}
	}
}

// TestRendezvousNeedsNoClockAdvance pins that the rendezvous wakes on
// volume writes alone: on a virtual clock nobody advances, a gang of
// four still meets, and no learner leaves a timer behind (an unfired
// timeout waiter would later pull an auto-advancing clock an hour
// forward).
func TestRendezvousNeedsNoClockAdvance(t *testing.T) {
	f := newFixture(t)
	fc := sim.NewFakeClock(time.Unix(0, 0))
	const n = 4
	codes := runGang(t, f, n, func(i int) Spec {
		spec := f.spec(i, n)
		spec.Clock = fc
		spec.RendezvousTimeout = time.Hour
		return spec
	})
	for i, c := range codes {
		data, _ := f.vol.ReadFile(fmt.Sprintf("learners/%d/exit", i))
		if c != 0 || string(data) != "0" {
			t.Fatalf("learner %d exit = %d, exit file %q", i, c, data)
		}
	}
	if w := fc.WaiterCount(); w != 0 {
		t.Fatalf("%d clock waiters left behind", w)
	}
}

// TestRendezvousSurvivesDroppedNotifications floods the volume with
// unrelated writes while a gang of four meets, so each learner's watch
// buffer overflows and drops notifications; the rescan after every
// receive must still see every peer's ready file.
func TestRendezvousSurvivesDroppedNotifications(t *testing.T) {
	f := newFixture(t)
	const n = 4
	const minNoise = 640 // ten times a watcher's buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // stops the writer if the gang fails the test
	noise := make(chan int, 1)
	go func() {
		i := 0
		for ; ; i++ {
			select {
			case <-ctx.Done():
				if i >= minNoise {
					noise <- i
					return
				}
			default:
			}
			if err := f.vol.AppendFile(fmt.Sprintf("noise/%d", i), []byte("x")); err != nil {
				t.Error(err)
				noise <- i
				return
			}
		}
	}()
	codes := runGang(t, f, n, func(i int) Spec {
		spec := f.spec(i, n)
		spec.RendezvousTimeout = 10 * time.Second
		return spec
	})
	cancel()
	if w := <-noise; w < minNoise {
		t.Fatalf("only %d noise writes", w)
	}
	for i, c := range codes {
		if c != 0 {
			t.Fatalf("learner %d exit = %d", i, c)
		}
	}
}

// TestRendezvousOnReleasedVolumeWaitsForStop releases the volume under
// a learner waiting for its missing peer: the closed watch must not
// end the wait (or spin it), and stop still kills the learner promptly.
func TestRendezvousOnReleasedVolumeWaitsForStop(t *testing.T) {
	f := newFixture(t)
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() { done <- New(f.spec(0, 2)).Run(stop) }()
	waitVolume(t, f.vol, 5*time.Second, "ready file", func() bool { return f.vol.Exists("learners/0/ready") })
	f.prov.Release(f.vol)
	// A learner that took the release for a failed rendezvous would
	// idle after it until stop and then report 2, not 137.
	close(stop)
	select {
	case code := <-done:
		if code != 137 {
			t.Fatalf("exit = %d, want 137", code)
		}
	case <-time.After(time.Second):
		t.Fatal("learner did not return within 1s of stop")
	}
}

func TestRendezvousTimeoutWhenPeerMissing(t *testing.T) {
	f := newFixture(t)
	spec := f.spec(0, 2) // 2 learners but only one runs
	spec.RendezvousTimeout = 50 * time.Millisecond
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan int, 1)
	go func() { done <- New(spec).Run(stop) }()
	waitVolume(t, f.vol, 5*time.Second, "rendezvous give-up", func() bool { return f.vol.Exists("learners/0/exit") })
	data, _ := f.vol.ReadFile("learners/0/exit")
	if string(data) != "2" {
		t.Fatalf("exit file = %q, want 2 (rendezvous failure)", data)
	}
}

func TestKillLeavesNoExitFile(t *testing.T) {
	f := newFixture(t)
	spec := f.spec(0, 1)
	spec.Iterations = 1_000_000 // effectively endless
	spec.TimeCompression = 1e-6
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() { done <- New(spec).Run(stop) }()
	// Let it reach PROCESSING, then kill.
	waitVolume(t, f.vol, 5*time.Second, "PROCESSING", func() bool {
		st, err := f.vol.ReadFile("learners/0/status")
		return err == nil && string(st) == StatusProcessing
	})
	close(stop)
	select {
	case code := <-done:
		if code != 137 {
			t.Fatalf("exit = %d, want 137", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kill did not stop learner")
	}
	if f.vol.Exists("learners/0/exit") {
		t.Fatal("killed learner wrote an exit file")
	}
}

func TestResumeFromLatestCheckpoint(t *testing.T) {
	f := newFixture(t)
	// Simulate a previous incarnation's checkpoints.
	for _, iter := range []int{10, 20, 30} {
		key := fmt.Sprintf("job1/checkpoints/ckpt-%09d", iter)
		if err := f.store.Put("results", key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	spec := f.spec(0, 1)
	spec.Iterations = 40
	p := New(spec)
	if got := p.latestCheckpoint(); got != 30 {
		t.Fatalf("latestCheckpoint = %d, want 30", got)
	}
	code := runToExit(t, p, f, 0)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	logData, err := f.vol.ReadFile("learners/0/stdout.log")
	if err != nil {
		t.Fatal(err)
	}
	log := string(logData)
	// Log mentions the resume.
	if !strings.Contains(log, "resuming from checkpoint at iteration 30") {
		t.Fatalf("log missing resume line:\n%s", log)
	}
	// The iteration lines (one every 4) show it trained 31..40, not
	// from 1.
	for iter := 4; iter <= 40; iter += 4 {
		line := fmt.Sprintf("iteration %d/40 ", iter)
		if trained := iter > 30; strings.Contains(log, line) != trained {
			t.Fatalf("log has %q = %v, want %v (resume trains 31..40 only):\n%s", line, !trained, trained, log)
		}
	}
}

func TestCheckpointKeysSortChronologically(t *testing.T) {
	f := newFixture(t)
	p := New(f.spec(0, 1))
	for _, iter := range []int{5, 50, 500, 5000} {
		if err := p.checkpoint(iter); err != nil {
			t.Fatal(err)
		}
	}
	objs, _ := f.store.List("results", "job1/checkpoints/")
	if len(objs) != 4 {
		t.Fatalf("count = %d", len(objs))
	}
	if got := p.latestCheckpoint(); got != 5000 {
		t.Fatalf("latest = %d, want 5000", got)
	}
}

// TestLogLinesMatchFmt pins the learner's stdout lines against the fmt
// verbs they print: over sampled values each line helper writes, prefix
// and newline included, the bytes fmt prints. Once the log scratch has
// room for a line, writing it allocates nothing.
func TestLogLinesMatchFmt(t *testing.T) {
	f := newFixture(t)
	p := New(f.spec(3, 4))
	const prefix = "[job1 learner-3] "
	ints := []int{0, 1, 9, 10, 4096, -7, math.MaxInt64, math.MinInt64}
	floats := []float64{0, 4.0 / 3, 0.00005, 0.99995, 812.25, 1e21, -0.0, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	strs := []string{"", "datasets", "demo/", "δ%d {}"}
	err := errors.New("boom: 50%")
	var want strings.Builder
	for _, n := range ints {
		p.logAt("resuming from checkpoint at iteration ", n, "")
		fmt.Fprintf(&want, prefix+"resuming from checkpoint at iteration %d\n", n)
		p.logAt("checkpoint at ", n, " failed: "+err.Error())
		fmt.Fprintf(&want, prefix+"checkpoint at %d failed: %v\n", n, err)
		for _, x := range floats {
			p.logIteration(n, n/2, x, -x)
			fmt.Fprintf(&want, prefix+"iteration %d/%d loss=%.4f images/sec=%.1f\n", n, n/2, x, -x)
		}
	}
	for _, a := range strs {
		for _, b := range strs {
			p.logs("downloading dataset ", a, "/", b)
			fmt.Fprintf(&want, prefix+"downloading dataset %s/%s\n", a, b)
		}
		p.logs("dataset read ", a, " failed: ", err.Error())
		fmt.Fprintf(&want, prefix+"dataset read %s failed: %v\n", a, err)
		p.logs("final model stored at ", a)
		fmt.Fprintf(&want, prefix+"final model stored at %s\n", a)
	}
	got, rerr := f.vol.ReadFile("learners/3/stdout.log")
	if rerr != nil || string(got) != want.String() {
		t.Fatalf("stdout (%v):\n%s\nwant:\n%s", rerr, got, want.String())
	}
	if n := testing.AllocsPerRun(1000, func() { p.logIteration(49, 50, 4.0/50, 812.5) }); n != 0 {
		t.Fatalf("a progress line made %.0f allocations, want 0", n)
	}
}
