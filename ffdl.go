// Package ffdl is the public API of the FfDL reproduction: a flexible
// multi-tenant deep learning platform (Jayaram et al., MIDDLEWARE '19)
// rebuilt as an in-process Go system over simulated substrates
// (Kubernetes-like orchestration, Raft-replicated etcd, a document
// store, object storage with an s3fs-style mount, and NFS
// volumes).
//
// Quickstart:
//
//	p, err := ffdl.New(ffdl.Config{})
//	if err != nil { ... }
//	defer p.Stop()
//	p.AddNodes("k80", ffdl.K80, 2, 4) // 2 nodes x 4 K80 GPUs
//	p.SeedDataset("datasets", "mnist/", 8<<20)
//
//	client := p.Client()
//	jobID, err := client.Submit(ctx, ffdl.Manifest{
//	    Name: "train-vgg", User: "alice",
//	    Framework: ffdl.Caffe, Model: ffdl.VGG16,
//	    Learners: 2, GPUsPerLearner: 1, GPUType: ffdl.K80,
//	    Iterations: 1000, CheckpointEvery: 100,
//	    DataBucket: "datasets", DataPrefix: "mnist/",
//	})
//	status, err := client.WaitForStatus(ctx, jobID, ffdl.StatusCompleted, 10*time.Millisecond)
//
// To observe every status transition rather than wait for one, stream
// them (Client.WaitForStatus itself rides this stream):
//
//	ch, cancel, err := client.WatchStatus(ctx, jobID)
//	if err != nil { ... }
//	defer cancel()
//	for e := range ch { // PENDING, DEPLOYING, DOWNLOADING, ... in order
//	    fmt.Println(e.Time, e.Status, e.Message)
//	}
//
// # Event-driven control plane
//
// The control plane is reactive, mirroring the production system's
// etcd-watch architecture (§3.3, §3.8): components record state and
// other components watch it, so reaction latency is bounded by event
// propagation, not by any poll interval, and an idle platform is
// quiescent: its kube store emits no watch event. One cluster loop
// renews the live kubelets' node leases, which only the node controller
// reads, and only a Ready flip is written to the store. The tickers
// that remain are that renewal loop and the node controller's grace
// check; a Guardian, the LCM or the tenant dispatcher arms a one-shot
// retry timer only after a call that failed, and no other control loop
// keeps one. The watch chain end to end:
//
//   - learners write status/exit files to the job's shared NFS volume;
//     the helper's controller container wakes on volume writes and
//     mirrors them into etcd;
//   - the per-job Guardian subscribes to the job's etcd prefix
//     (learner statuses, control verbs, the done key) and aggregates
//     into MongoDB on every write;
//   - every MongoDB status transition is published on an in-process
//     status bus that wakes the LCM recovery loop and feeds the API's
//     streaming watch;
//   - the kube-like scheduler, controllers and kubelet host loops wake
//     on API-server watch events (pod added, capacity freed, owner
//     changed);
//   - Client.WatchStatus streams the transitions to users, resuming by
//     history sequence number across API replica crashes so every
//     transition is delivered exactly once, in order.
//
// Neither watch underneath — the etcd watch (internal/etcd.Cluster.Watch)
// nor the kube store watch (internal/kube.Store.Watch) — replays or
// drops silently. Each bounds its buffer and closes the stream when it
// breaks: on overflow, and for etcd on leader failover. The close is
// the gap signal: the consumer re-watches, then re-reads the state the
// stream guards, so consumers can miss events safely.
//
// # Multi-tenancy
//
// With Config.Tenancy set, admission control is a queue, not a gate
// (§3.6): every user has a registry record (tier + GPU quota, managed
// via Client.SetQuota / Client.Tenants), submissions are persisted as
// QUEUED, and an event-driven dispatcher admits them in FCFS order —
// over-quota work opportunistically when entitlements are idle. A
// starved in-quota job preempts: free-tier and over-quota victims are
// checkpointed and halted through the normal HALT path, requeued at
// the head, and resumed from their checkpoints when capacity frees.
// Client.Status reports QUEUED jobs' queue position; `ffdl-bench
// tenant` measures queue delays and preemptions under a mixed
// free/paid workload.
//
// # Durability
//
// With Config.DataDir set (ffdl-server -data-dir), the metadata oplog
// and the learner log live in file-backed commit logs under that
// directory, so job documents with their status history, WatchStatus
// resume points and FollowLogsFrom offsets survive a full process
// restart: stop the platform, boot a new one with the
// same DataDir, and clients resume where they left off. Empty means
// in-memory (tests, benchmarks). See docs/architecture.md
// ("Durability") for the layout and recovery contract.
//
// The package re-exports the platform's user-facing types from
// internal/core and the performance-model vocabulary from internal/perf;
// everything else (scheduling policies, substrates, experiment
// harnesses) lives under internal/ and is exercised through this surface
// or cmd/ffdl-bench.
package ffdl

import (
	"fmt"

	"github.com/ffdl/ffdl/internal/core"
	"github.com/ffdl/ffdl/internal/perf"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/tenant"
)

// Re-exported user-facing types.
type (
	// Manifest describes a training job (§3.1's "natural language" job
	// description: code, data location, learners, resources).
	Manifest = core.Manifest
	// Client is the load-balanced API client (what the CLI wraps).
	Client = core.Client
	// JobStatus is the DL-specific job state.
	JobStatus = core.JobStatus
	// StatusEntry is one timestamped history record (also the element
	// type streamed by Client.WatchStatus).
	StatusEntry = core.StatusEntry
	// JobRecord is a stored job with manifest, status and history.
	JobRecord = core.JobRecord
	// LogLine is one collected learner log line.
	LogLine = core.LogLine
	// Config configures the platform; the zero value is production-like
	// (gang scheduling + pack placement, 2 API / 2 LCM / 3 etcd
	// replicas).
	Config = core.Config
	// TenancyConfig enables the multi-tenant subsystem: queued
	// admission, fair-share dispatch and checkpoint-preemption (§3.6).
	// Set it on Config.Tenancy.
	TenancyConfig = core.TenancyConfig
	// Tenant is one user's registry record: tier plus GPU quota.
	Tenant = tenant.Record
)

// Job statuses.
const (
	StatusQueued      = core.StatusQueued
	StatusPending     = core.StatusPending
	StatusDeploying   = core.StatusDeploying
	StatusDownloading = core.StatusDownloading
	StatusProcessing  = core.StatusProcessing
	StatusStoring     = core.StatusStoring
	StatusCompleted   = core.StatusCompleted
	StatusFailed      = core.StatusFailed
	StatusHalted      = core.StatusHalted
	StatusResumed     = core.StatusResumed
	StatusCanceled    = core.StatusCanceled
)

// GPU types.
const (
	K80  = perf.K80
	P100 = perf.P100
	V100 = perf.V100
)

// Tenant tiers (free-tier jobs are preemptible; paid in-quota jobs can
// preempt).
const (
	TierFree = sched.TierFree
	TierPaid = sched.TierPaid
)

// TierName and ParseTier convert tenant tiers to and from their API
// names ("free", "paid").
var (
	TierName  = tenant.TierName
	ParseTier = tenant.ParseTier
)

// ErrDegraded is the retryable error submissions receive while the
// platform is in read-only degraded mode (metadata-store breaker open).
// Test with IsDegraded, which also matches the error after it has
// crossed the RPC boundary as message text; HTTP gateways map it to
// 503 + Retry-After.
var ErrDegraded = core.ErrDegraded

// IsDegraded reports whether err means "platform degraded, retry later".
func IsDegraded(err error) bool { return core.IsDegraded(err) }

// Frameworks.
const (
	Caffe      = perf.Caffe
	TensorFlow = perf.TensorFlow
)

// Benchmark models.
const (
	VGG16       = perf.VGG16
	ResNet50    = perf.ResNet50
	InceptionV3 = perf.InceptionV3
)

// Platform is a running FfDL instance. It wraps the core platform with
// convenience helpers; the embedded *core.Platform exposes the
// substrates (Kube, Etcd, Mongo, Store, NFS, Metrics) for advanced use
// and fault injection.
type Platform struct {
	*core.Platform
}

// New boots a platform with no worker nodes; add capacity with
// AddNodes.
func New(cfg Config) (*Platform, error) {
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	return &Platform{Platform: p}, nil
}

// AddNodes adds n identical worker machines named "<prefix>-<i>", each
// with the given GPUs and the matching t-shirt CPU/memory provisioning.
func (p *Platform) AddNodes(prefix string, gpuType perf.GPUType, n, gpusPerNode int) {
	size := perf.RecommendSize(1, gpuType)
	for i := 0; i < n; i++ {
		p.AddNode(fmt.Sprintf("%s-%d", prefix, i), string(gpuType), gpusPerNode,
			size.CPU*gpusPerNode+8, int64(size.MemoryGB*gpusPerNode+32)*1024)
	}
}

// SeedDataset creates a bucket holding one synthetic dataset shard of
// the given size under prefix, ready to reference from a Manifest.
func (p *Platform) SeedDataset(bucket, prefix string, bytes int) error {
	p.Store.EnsureBucket(bucket)
	return p.Store.Put(bucket, prefix+"shard-0000", make([]byte, bytes))
}

// GPUUtilization returns (allocated, capacity) GPUs.
func (p *Platform) GPUUtilization() (allocated, capacity int) {
	return p.Kube.GPUUtilization()
}

// Resources constructs a resource vector (exported for custom node
// shapes).
func Resources(milliCPU, memMB int64, gpus int) sched.Resources {
	return sched.Resources{MilliCPU: milliCPU, MemoryMB: memMB, GPUs: gpus}
}
