package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/core"
)

// readSweep gives the one-job-at-a-time workloads their read metrics:
// after the measured phase, both clients time Status and Logs on a
// seeded sample of finished jobs and List on each of their users,
// against the tables the phase just filled. Two clients, as in the
// measured phase, keep both cores awake; a lone reader mostly times how
// long an idle core takes to wake. sweep_tenant needs no sweep: its
// clients read beside their writes.
func (r *run) readSweep() {
	ctx, cancel := context.WithTimeout(context.Background(), workloadCap)
	defer cancel()
	per := len(r.samples) / clients
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed + int64(c) + 1))
			for i := 0; i < readSweepOps; i++ {
				// The Lists are spread through the sweep, so the two
				// clients' big replies rarely coincide.
				if i%(readSweepOps/readSweepLists) == 0 {
					r.listUser(ctx, c, c*usersPerClient+rng.Intn(usersPerClient), (c+1)*per)
				}
				s := &r.samples[c*per+rng.Intn(per)]
				if s.failure != "" {
					continue
				}
				r.timedRead(ctx, c, "status", func() error { return r.status(ctx, s) })
				r.logsOf(ctx, c, s)
			}
		}(c)
	}
	wg.Wait()
}

// verify is the correctness gate over every measured job: the watched
// history is a legal chain ending COMPLETED, and it equals the durable
// history the API serves — each transition delivered exactly once, in
// order. The histories come from one List per user, which also checks
// that List(user) returns exactly that user's jobs.
func (r *run) verify(ctx context.Context, client *core.Client) {
	for u := 0; u < users; u++ {
		recs, err := client.List(ctx, userName(u))
		if err == nil && len(recs) == 0 && len(r.byUser[u]) > 0 {
			recs, err = client.List(ctx, userName(u)) // a lost reply, see recoverID
		}
		if err != nil {
			r.problem("List(%s): %v", userName(u), err)
			continue
		}
		durable := make(map[string][]core.StatusEntry, len(recs))
		for _, rec := range recs {
			durable[rec.ID] = rec.History
		}
		for _, i := range r.byUser[u] {
			s := &r.samples[i]
			if s.failure != "" {
				continue
			}
			if err := s.checkChain(); err != nil {
				r.problem("%v", err)
				continue
			}
			h, ok := durable[s.id]
			if !ok {
				r.problem("List(%s) is missing %s", userName(u), s.id)
				continue
			}
			if err := s.matchesHistory(h); err != nil {
				r.problem("%v", err)
			}
		}
	}
}

// quiesce waits for the platform to give back what finished jobs held
// and then checks the conservation invariants.
func (r *run) quiesce() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		alloc, _ := r.p.Kube.GPUUtilization()
		depth := 0
		if d := r.p.Dispatcher; d != nil {
			depth = d.QueueDepth()
		}
		if alloc == 0 && depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			r.problem("after the run %d GPUs are still allocated and %d jobs still queued", alloc, depth)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := r.p.Dispatcher; d != nil {
		if n := d.Stats().Preempted; n != 0 {
			r.problem("tenant.preempted = %d, want 0 (quotas sit above every burst)", n)
		}
	} else if r.w.Burst > 0 {
		r.problem("tenancy workload booted without a dispatcher")
	}
	for _, name := range []string{"resilience.retries", "resilience.shed"} {
		if n := r.p.Obs.CounterValue(name); n != 0 {
			r.problem("%s = %d, want 0 (nothing is injected)", name, n)
		}
	}
}

// reopen is the durable arm's recovery check: stop the platform, boot a
// new one on the same DataDir, and require every measured job back,
// COMPLETED, with the history the watch delivered. It returns the time
// from boot to the last List reply.
func (r *run) reopen() time.Duration {
	start := time.Now()
	p, err := boot(r.w, r.seed, r.dataDir)
	if err != nil {
		r.problem("reopen %s: %v", r.dataDir, err)
		return 0
	}
	defer p.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), workloadCap)
	defer cancel()
	before := len(r.problems)
	r.verify(ctx, p.Client())
	d := time.Since(start)
	for i := before; i < len(r.problems); i++ {
		r.problems[i] = "after reopen: " + r.problems[i]
	}
	return d
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // an unreadable entry only makes the total smaller
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// goroutinesAfterStop is the leak check: goroutines still alive once
// the platform has stopped and finished ones had a moment to exit.
func goroutinesAfterStop() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > 2; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// failedJobs counts measured jobs that did not reach COMPLETED in time.
func (r *run) failedJobs() int {
	n := 0
	for i := range r.samples {
		if r.samples[i].failure != "" {
			n++
		}
	}
	return n
}

// describeFailures lists the first few failed operations of each kind.
func (r *run) describeFailures() []string {
	out := append([]string(nil), r.readFailures...)
	for i := range r.samples {
		if s := &r.samples[i]; s.failure != "" && len(out) < 20 {
			out = append(out, fmt.Sprintf("job %d %q: %s", i, s.id, s.failure))
		}
	}
	return out
}
