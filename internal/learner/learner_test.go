package learner

import (
	"fmt"
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
	return &fixture{vol: vol, store: store, mount: store.NewMount("data", 64<<20)}
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

// runToExit runs a single learner and stops it once its exit file
// appears (as the platform does after the controller observes
// completion).
func runToExit(t *testing.T, p *Process, f *fixture, ordinal int) int {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() { done <- p.Run(stop) }()
	exitPath := fmt.Sprintf("learners/%d/exit", ordinal)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.vol.Exists(exitPath) {
			close(stop)
			select {
			case code := <-done:
				return code
			case <-time.After(2 * time.Second):
				t.Fatal("learner did not exit after stop")
			}
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	t.Fatal("exit file never appeared")
	return -1
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
	if _, err := f.store.Get("results", "job1/model/final.bin"); err != nil {
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
	var wg sync.WaitGroup
	stops := make([]chan struct{}, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		stops[i] = make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = New(f.spec(i, n)).Run(stops[i])
		}(i)
	}
	// Wait for all exit files, then stop all.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := 0
		for i := 0; i < n; i++ {
			if f.vol.Exists(fmt.Sprintf("learners/%d/exit", i)) {
				ready++
			}
		}
		if ready == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("learners never all completed")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		close(stops[i])
	}
	wg.Wait()
	for i, c := range codes {
		if c != 0 {
			t.Fatalf("learner %d exit = %d", i, c)
		}
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
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.vol.Exists("learners/0/exit") {
			data, _ := f.vol.ReadFile("learners/0/exit")
			if string(data) != "2" {
				t.Fatalf("exit file = %q, want 2 (rendezvous failure)", data)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("learner never gave up on rendezvous")
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := f.vol.ReadFile("learners/0/status")
		if err == nil && string(st) == StatusProcessing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reached PROCESSING")
		}
		time.Sleep(time.Millisecond)
	}
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
