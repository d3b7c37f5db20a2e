// Scheduler study: demonstrates §3.5's scheduling deadlock live. The
// same oversubscribed workload runs twice — once with gang scheduling
// disabled (stock pod-at-a-time placement) and once with the BSA gang
// scheduler — and we count partially placed jobs and the GPUs they
// strand.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/ffdl/ffdl"
)

func main() {
	fmt.Println("=== without gang scheduling (stock pod-at-a-time) ===")
	run(false)
	fmt.Println()
	fmt.Println("=== with gang scheduling (BSA) ===")
	run(true)
}

func run(gang bool) {
	cfg := ffdl.Config{
		GangScheduling:  &gang,
		TimeCompression: 1, // jobs effectively run "forever" for this snapshot
		Seed:            1,
	}
	platform, err := ffdl.New(cfg)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer platform.Stop()
	// 4 machines x 2 GPUs: room for exactly two 2Lx2G jobs.
	platform.AddNodes("k80", ffdl.K80, 4, 2)
	if err := platform.SeedDataset("datasets", "d/", 1<<20); err != nil {
		log.Fatalf("seed: %v", err)
	}

	client := platform.Client()
	ctx := context.Background()
	// Submit 4 synchronous jobs needing 2 learners x 2 GPUs each: total
	// demand 16 GPUs against 8 supplied.
	var jobIDs []string
	for i := 0; i < 4; i++ {
		id, err := client.Submit(ctx, ffdl.Manifest{
			Name: fmt.Sprintf("sync-job-%d", i), User: "study",
			Framework: ffdl.TensorFlow, Model: ffdl.ResNet50,
			Learners: 2, GPUsPerLearner: 2, GPUType: ffdl.K80,
			Iterations: 1_000_000,
			DataBucket: "datasets", DataPrefix: "d/",
		})
		if err != nil {
			log.Fatalf("submit: %v", err)
		}
		jobIDs = append(jobIDs, id)
	}
	// Let the scheduler settle.
	time.Sleep(900 * time.Millisecond)

	fully, partial, queued := 0, 0, 0
	deadlockedGPUs := 0
	for _, id := range jobIDs {
		bound := 0
		for _, pod := range platform.Kube.Store().ListPods("learner-" + id + "-") {
			if pod.Status.Node != "" {
				bound++
			}
		}
		switch bound {
		case 2:
			fully++
		case 0:
			queued++
		default:
			partial++
			deadlockedGPUs += bound * 2
		}
	}
	fmt.Printf("jobs fully scheduled: %d, fully queued: %d, PARTIALLY placed (deadlocked): %d\n",
		fully, queued, partial)
	alloc, capacity := platform.GPUUtilization()
	fmt.Printf("GPUs allocated: %d/%d, of which stranded by deadlocked learners: %d\n",
		alloc, capacity, deadlockedGPUs)
	if partial > 0 {
		fmt.Println("-> temporarily deadlocked learners hold GPUs but no job can make progress (paper §3.5)")
	} else {
		fmt.Println("-> every job is either fully running or fully queued: no stranded GPUs")
	}
	for _, id := range jobIDs {
		client.Terminate(ctx, id) //nolint:errcheck
	}
}
