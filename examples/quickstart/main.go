// Quickstart: boot an in-process FfDL platform, submit one training
// job, follow its DL-specific status transitions and print its logs.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/ffdl/ffdl"
)

func main() {
	// Boot the platform: 3-way replicated etcd, metadata store, object
	// storage, kube-like orchestrator, 2 API + 2 LCM replicas.
	platform, err := ffdl.New(ffdl.Config{
		TimeCompression: 1e-4, // replay hours of training in ~100ms
	})
	if err != nil {
		log.Fatalf("boot platform: %v", err)
	}
	defer platform.Stop()

	// Add a small GPU cluster and a synthetic dataset.
	platform.AddNodes("k80", ffdl.K80, 2, 4)
	if err := platform.SeedDataset("datasets", "mnist/", 8<<20); err != nil {
		log.Fatalf("seed dataset: %v", err)
	}

	client := platform.Client()
	ctx := context.Background()

	// A manifest is all FfDL needs (§3.1): code/command, data location,
	// learners and per-learner resources. CPU/memory default to the
	// t-shirt size for the GPU type.
	jobID, err := client.Submit(ctx, ffdl.Manifest{
		Name: "quickstart-vgg", User: "alice",
		Framework: ffdl.Caffe, Model: ffdl.VGG16,
		Command:  "caffe train -solver solver.prototxt",
		Learners: 1, GPUsPerLearner: 1, GPUType: ffdl.K80,
		Iterations: 300, CheckpointEvery: 50,
		DataBucket: "datasets", DataPrefix: "mnist/",
	})
	if err != nil {
		log.Fatalf("submit: %v", err)
	}
	fmt.Printf("submitted job %s\n", jobID)

	// Poll status until terminal, printing each DL-specific transition.
	last := ffdl.JobStatus("")
	for {
		reply, err := client.Status(ctx, jobID)
		if err != nil {
			log.Fatalf("status: %v", err)
		}
		if reply.Status != last {
			last = reply.Status
			fmt.Printf("  status -> %s\n", last)
		}
		if last.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Full status history with timestamps (what users bill/debug from).
	reply, _ := client.Status(ctx, jobID)
	fmt.Println("history:")
	for _, h := range reply.History {
		fmt.Printf("  %s  %-12s %s\n", h.Time.Format("15:04:05.000"), h.Status, h.Message)
	}

	// Training logs, collected by the helper pod's log-collector.
	logs, err := client.Logs(ctx, jobID)
	if err != nil {
		log.Fatalf("logs: %v", err)
	}
	fmt.Printf("collected %d log lines; last 3:\n", len(logs))
	for i := maxInt(0, len(logs)-3); i < len(logs); i++ {
		fmt.Printf("  %s\n", logs[i].Text)
	}

	// The trained model landed in the results bucket.
	if obj, err := platform.Store.Head("ffdl-results", jobID+"/model/final.bin"); err == nil {
		fmt.Printf("trained model stored at ffdl-results/%s (%d bytes)\n", obj.Key, obj.Size)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
