package ffdl

import (
	"context"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/kube"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the README
// quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	p, err := New(Config{Seed: 7, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	p.AddNodes("k80", K80, 2, 4)
	if err := p.SeedDataset("datasets", "mnist/", 2<<20); err != nil {
		t.Fatal(err)
	}
	client := p.Client()
	ctx := context.Background()
	// Subscribe before submitting, so every pod event of the job's
	// teardown reaches the utilization check below.
	pods := p.Kube.Store().Watch(kube.KindPod)
	defer pods.Cancel()
	jobID, err := client.Submit(ctx, Manifest{
		Name: "train-vgg", User: "alice",
		Framework: Caffe, Model: VGG16,
		Learners: 2, GPUsPerLearner: 1, GPUType: K80,
		Iterations: 50, CheckpointEvery: 10,
		DataBucket: "datasets", DataPrefix: "mnist/",
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	status, err := client.WaitForStatus(wctx, jobID, StatusCompleted, 2*time.Millisecond)
	if err != nil || status != StatusCompleted {
		t.Fatalf("status = %v, err = %v", status, err)
	}
	logs, err := client.Logs(ctx, jobID)
	if err != nil || len(logs) == 0 {
		t.Fatalf("logs: %d lines, err %v", len(logs), err)
	}
	// COMPLETED is recorded before teardown releases the pods: re-read
	// utilization on each pod event until every GPU is free.
	for {
		alloc, capacity := p.GPUUtilization()
		if alloc == 0 && capacity == 8 {
			break
		}
		select {
		case <-pods.Events():
		case <-wctx.Done():
			t.Fatalf("utilization = %d/%d, want 0/8", alloc, capacity)
		}
	}
}
