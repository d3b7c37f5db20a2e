package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/resilience"
	"github.com/ffdl/ffdl/internal/rpc"
	"github.com/ffdl/ffdl/internal/sim"
	"github.com/ffdl/ffdl/internal/tenant"
)

// RPC message types, encoded by internal/rpc's body codec: every field
// is a bool, number, string, slice, pointer, struct or time.Time
// (TestRPCMessageTypesRoundtrip sends each one through a server).

// SubmitArgs submits a job.
type SubmitArgs struct{ Manifest Manifest }

// SubmitReply returns the assigned job id.
type SubmitReply struct{ JobID string }

// JobArgs addresses one job.
type JobArgs struct{ JobID string }

// StatusReply returns status and history. QueuePos is the job's 1-based
// position in the tenant dispatch queue while Status is QUEUED (0
// otherwise, or when tenancy is disabled). Degraded marks a reply the
// metadata store did not answer: Status and History come from the job
// document's newest image in the store's oplog — the complete history as
// of the last acknowledged write — and QueuePos is unavailable.
type StatusReply struct {
	JobID    string
	Status   JobStatus
	QueuePos int
	History  []StatusEntry
	Degraded bool
}

// TenantArgs addresses one tenant.
type TenantArgs struct{ User string }

// TenantReply returns one tenant record plus its live GPU usage.
type TenantReply struct {
	Tenant tenant.Record
	InUse  int
}

// TenantsReply lists tenant records.
type TenantsReply struct{ Tenants []tenant.Record }

// SetTenantArgs installs or updates a tenant record.
type SetTenantArgs struct{ Tenant tenant.Record }

// ListArgs filters jobs by user ("" = all).
type ListArgs struct{ User string }

// ListReply returns job records.
type ListReply struct{ Jobs []JobRecord }

// LogsArgs requests a job's logs; Follow streams live lines.
// FromOffset resumes from a line offset (LogLine.Offset): only lines
// with Offset >= FromOffset are delivered, so a follower can reconnect
// — across client retries or API replica restarts — without missing or
// duplicating lines.
type LogsArgs struct {
	JobID      string
	Follow     bool
	Search     string
	FromOffset uint64
}

// LogItem is one streamed log line; Line.Offset is the resume token.
type LogItem struct{ Line LogLine }

// WatchArgs opens a status watch stream from a history sequence number
// (1-based; FromSeq <= 1 streams the full history first).
type WatchArgs struct {
	JobID   string
	FromSeq int
}

// StatusItem is one streamed status transition. Seq is the transition's
// index in the job's history, letting clients resume across replica
// crashes without missing or duplicating transitions.
type StatusItem struct {
	Seq   int
	Entry StatusEntry
}

// MetricsArgs requests a metrics snapshot.
type MetricsArgs struct{}

// MetricsReply carries one consistent snapshot of every instrument in
// the platform registry (counters, gauges, histograms, collector-
// mirrored subsystem stats).
type MetricsReply struct{ Snapshot obs.Snapshot }

// TraceReply carries one job's trace span tree.
type TraceReply struct{ Trace obs.Trace }

// apiReplica is one instance of the API microservice. The paper runs
// these as a replica set behind the K8s service registry; here each
// replica is an RPC server registered into the shared Registry, with
// crash/restart modeling for Table 3.
type apiReplica struct {
	*replica
	lcm *rpc.Balancer
}

func newAPIReplica(p *Platform, index int) (*apiReplica, error) {
	a := &apiReplica{lcm: rpc.NewBalancer(p.Registry, ServiceLCM)}
	a.replica = &replica{
		p: p, index: index, kind: "api", service: ServiceAPI,
		delay: p.cfg.APIRestartDelay, routes: a.routes,
	}
	a.lcm.Use(p.res.lcm)
	if err := a.start(); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *apiReplica) routes(srv *rpc.Server) {
	srv.Register("API.Submit", SubmitArgs{}, a.handleSubmit)
	srv.Register("API.Status", JobArgs{}, a.handleStatus)
	srv.Register("API.List", ListArgs{}, a.handleList)
	srv.Register("API.Quota", TenantArgs{}, a.handleQuota)
	srv.Register("API.SetQuota", SetTenantArgs{}, a.handleSetQuota)
	srv.Register("API.Tenants", TenantArgs{}, a.handleTenants)
	srv.Register("API.Halt", JobArgs{}, a.control(controlHalt))
	srv.Register("API.Resume", JobArgs{}, a.control(controlResume))
	srv.Register("API.Terminate", JobArgs{}, a.control(controlTerminate))
	srv.Register("API.Metrics", MetricsArgs{}, a.handleMetrics)
	srv.Register("API.Trace", JobArgs{}, a.handleTrace)
	srv.RegisterStream("API.Logs", LogsArgs{}, a.handleLogs)
	srv.RegisterStream("API.Watch", WatchArgs{}, a.handleWatch)
}

// handleSubmit stores metadata durably BEFORE acknowledging: "the API
// layer stores all the metadata in MongoDB before acknowledging the
// request. This ensures that submitted jobs are never lost" (§3.2).
//
// With the tenant subsystem enabled, submissions are not gated here:
// any job from a registered tenant is accepted, persisted as QUEUED,
// and admitted later by the dispatcher — over-capacity work waits in
// the queue instead of being rejected (§3.6). Without it submission is
// open: the job is persisted as PENDING. Either way the API's part ends
// with the bus announcement below — the LCM deploys on the PENDING event.
func (a *apiReplica) handleSubmit(_ context.Context, arg any) (any, error) {
	req := arg.(SubmitArgs)
	m := req.Manifest
	if err := m.Validate(); err != nil {
		return nil, err
	}
	status := StatusPending
	message := "job submitted"
	if a.p.Dispatcher != nil {
		// The tenant lookup rides the mongo edge policy like every other
		// metadata read: a store outage here must shed retryably, not
		// masquerade as "no tenant record".
		var known bool
		if err := a.p.tenantDo(func() error {
			var err error
			_, known, err = a.p.Tenants.Lookup(m.User)
			return err
		}); err != nil {
			if errors.Is(err, ErrDegraded) {
				a.p.Metrics.Inc("api.degraded_sheds")
			}
			return nil, fmt.Errorf("core: tenant lookup: %w", err)
		}
		if !known {
			return nil, fmt.Errorf("core: user %q has no tenant record (set a quota first)", m.User)
		}
		status = StatusQueued
		message = "job queued for admission"
	}
	// Degraded mode sheds submissions up front: with the metadata store's
	// breaker open the insert below could only fail (or queue behind a
	// dead store), and the "never lost after acknowledge" contract (§3.2)
	// forbids acknowledging anything not durably persisted.
	if a.p.Degraded() {
		a.p.Metrics.Inc("api.degraded_sheds")
		return nil, degradedErr(fmt.Errorf("submission shed, breaker open"))
	}
	jobID := a.p.nextJobID()
	now := a.p.clock.Now()
	doc := manifestToDoc(m)
	doc["_id"] = jobID
	doc["status"] = string(status)
	doc["submitted"] = now.Format(time.RFC3339Nano)
	doc["history"] = []any{mongo.Doc{
		"status": string(status), "time": now.Format(time.RFC3339Nano),
		"message": message,
	}}
	if err := a.p.mongoDo(func() error {
		_, err := a.p.Jobs.Insert(doc)
		return err
	}); err != nil {
		if mongoOutageErr(err) {
			a.p.Metrics.Inc("api.degraded_sheds")
			return nil, degradedErr(err)
		}
		return nil, fmt.Errorf("core: persist job: %w", err)
	}
	// Seed the job's status head before the bus announcement:
	// transitions racing in behind the publish find it in place.
	a.p.seedHead(jobID, status)
	// Announce the new job on the status bus: the tenant dispatcher (for
	// QUEUED), the LCM recovery loop (for PENDING) and any WatchStatus
	// subscriber wake immediately.
	a.p.bus.publish(jobID, StatusEvent{JobID: jobID, StatusItem: StatusItem{
		Seq:   1,
		Entry: StatusEntry{Status: status, Time: now, Message: message},
	}})
	return SubmitReply{JobID: jobID}, nil
}

// handleQuota returns one tenant's record and live GPU usage.
func (a *apiReplica) handleQuota(_ context.Context, arg any) (any, error) {
	req := arg.(TenantArgs)
	if a.p.Tenants == nil {
		return nil, errTenancyDisabled
	}
	var rec tenant.Record
	var ok bool
	if err := a.p.tenantDo(func() error {
		var err error
		rec, ok, err = a.p.Tenants.Lookup(req.User)
		return err
	}); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: no tenant record for %q", req.User)
	}
	return TenantReply{Tenant: rec, InUse: a.p.Admission.Usage(req.User)}, nil
}

// handleSetQuota installs or updates a tenant record. The write lands
// in MongoDB first and then goes straight to the dispatcher.
func (a *apiReplica) handleSetQuota(_ context.Context, arg any) (any, error) {
	req := arg.(SetTenantArgs)
	if a.p.Tenants == nil {
		return nil, errTenancyDisabled
	}
	if err := a.p.tenantDo(func() error { return a.p.Tenants.Put(req.Tenant) }); err != nil {
		return nil, err
	}
	a.p.Dispatcher.SetQuota(req.Tenant)
	return TenantReply{Tenant: req.Tenant}, nil
}

// handleTenants lists all tenant records.
func (a *apiReplica) handleTenants(_ context.Context, arg any) (any, error) {
	if a.p.Tenants == nil {
		return nil, errTenancyDisabled
	}
	var recs []tenant.Record
	if err := a.p.tenantDo(func() error {
		var err error
		recs, err = a.p.Tenants.List()
		return err
	}); err != nil {
		return nil, err
	}
	return TenantsReply{Tenants: recs}, nil
}

var errTenancyDisabled = errors.New("core: tenancy is not enabled on this platform")

func (a *apiReplica) handleStatus(_ context.Context, arg any) (any, error) {
	req := arg.(JobArgs)
	reply, err := a.p.statusHistory(req.JobID, 1)
	if err != nil {
		return nil, err
	}
	if reply.Degraded {
		a.p.Metrics.Inc("api.degraded_reads")
	} else if reply.Status == StatusQueued && a.p.Dispatcher != nil {
		reply.QueuePos, _ = a.p.Dispatcher.Position(req.JobID)
	}
	return reply, nil
}

// statusHistory reads a job's current status and its history from Seq
// fromSeq on, from the job document: MongoDB by _id, or, when MongoDB
// does not answer, the document's newest image in the oplog, flagged
// Degraded. Either way the history is complete up to the last
// acknowledged write. When the oplog retains nothing for the job either,
// the read fails with ErrDegraded. Store answers such as not-found are
// errors.
func (p *Platform) statusHistory(jobID string, fromSeq int) (StatusReply, error) {
	doc, err := p.findJob(jobID)
	degraded := false
	if err != nil {
		if !mongoOutageErr(err) {
			return StatusReply{}, fmt.Errorf("core: job %s: %w", jobID, err)
		}
		var ok bool
		if doc, ok = p.Jobs.OplogImage(jobID); !ok {
			return StatusReply{}, fmt.Errorf("core: job %s: %w", jobID, ErrDegraded)
		}
		degraded = true
	}
	rec := docToRecord(doc)
	return StatusReply{
		JobID:    jobID,
		Status:   rec.Status,
		History:  rec.History[min(fromSeq-1, len(rec.History)):],
		Degraded: degraded,
	}, nil
}

func (a *apiReplica) handleList(_ context.Context, arg any) (any, error) {
	req := arg.(ListArgs)
	filter := mongo.Filter{}
	if req.User != "" {
		filter["user"] = req.User
	}
	var docs []mongo.Doc
	if err := a.p.mongoDo(func() error {
		// Find has no error return; nil, as opposed to empty, is how it
		// says the primary is unavailable.
		if docs = a.p.Jobs.Find(filter, mongo.FindOpts{SortBy: "_id"}); docs == nil {
			return mongo.ErrUnavailable
		}
		return nil
	}); err != nil {
		return nil, degradedErr(err)
	}
	reply := ListReply{}
	if len(docs) > 0 {
		reply.Jobs = make([]JobRecord, 0, len(docs))
	}
	for _, d := range docs {
		reply.Jobs = append(reply.Jobs, docToRecord(d))
	}
	return reply, nil
}

// handleMetrics returns one consistent snapshot of the platform's
// metrics registry — counters, gauges, latency histograms and the
// collector-mirrored subsystem stats. This is the RPC behind
// GET /v1/metrics and `ffdl-cli metrics`.
func (a *apiReplica) handleMetrics(_ context.Context, _ any) (any, error) {
	return MetricsReply{Snapshot: a.p.Obs.Snapshot()}, nil
}

// handleTrace returns a job's span tree: its phases from the status
// history, read as Status reads it (the oplog image while the primary
// is out), with the tracer's sub-spans hung under them. A job the
// tracer never saw — evicted, traced on a DisableObs platform or run by
// another process — gets the phases alone.
func (a *apiReplica) handleTrace(_ context.Context, arg any) (any, error) {
	req := arg.(JobArgs)
	reply, err := a.p.statusHistory(req.JobID, 1)
	if err != nil {
		return nil, err
	}
	return TraceReply{Trace: traceFromHistory(req.JobID, reply.History, a.p.Tracer.Subs(req.JobID))}, nil
}

// traceFromHistory builds a job's span tree. Each history entry opens a
// phase child that closes when the next entry lands, and a terminal
// entry closes the root, so the root spans exactly the submit→terminal
// wall time the history records. Each sub-span hangs under the last
// phase that started at or before it (the first phase takes any that
// start before it); one that starts after a terminal entry belongs to
// teardown and is dropped.
func traceFromHistory(jobID string, hist []StatusEntry, subs []*obs.Span) obs.Trace {
	t := obs.Trace{JobID: jobID}
	if len(hist) == 0 {
		return t
	}
	root := &obs.Span{Name: "job " + jobID, Start: hist[0].Time, Children: make([]*obs.Span, len(hist))}
	for i, h := range hist {
		sp := &obs.Span{Name: string(h.Status), Start: h.Time}
		if i+1 < len(hist) {
			sp.End = hist[i+1].Time
		} else if h.Status.Terminal() {
			sp.End, root.End = h.Time, h.Time
		}
		root.Children[i] = sp
	}
	for _, sub := range subs {
		if !root.End.IsZero() && sub.Start.After(root.End) {
			continue
		}
		i := len(hist) - 1
		for i > 0 && hist[i].Time.After(sub.Start) {
			i--
		}
		root.Children[i].Children = append(root.Children[i].Children, sub)
	}
	t.Root = root
	return t
}

// control routes HALT/RESUME/TERMINATE through the LCM.
func (a *apiReplica) control(verb string) rpc.Handler {
	method := map[string]string{
		controlHalt:      "LCM.Halt",
		controlResume:    "LCM.Resume",
		controlTerminate: "LCM.Terminate",
	}[verb]
	return func(ctx context.Context, arg any) (any, error) {
		req := arg.(JobArgs)
		// A user's resume clears a HALTED victim's preemption marker
		// before it goes out, so neither the RESUMED note nor a resync
		// reads the resumed job as a victim owed a halt; a resume that
		// fails marks the victim again.
		cleared := verb == controlResume && a.p.Dispatcher != nil && a.p.clearPreempted(req.JobID)
		err := a.lcm.Call(ctx, method, req, nil)
		if err != nil && cleared {
			a.p.markPreempted(req.JobID, true) //nolint:errcheck // an unmarked victim stays HALTED until its user resumes it
		}
		return nil, err
	}
}

// handleLogs streams a job's collected logs; with Follow it keeps
// streaming live lines ("Reliable streaming of logs from the job,
// irrespective of the stage it is in", §2) through the follow protocol,
// filling from the job's commit log.
func (a *apiReplica) handleLogs(ctx context.Context, arg any, send func(any) error) error {
	req := arg.(LogsArgs)
	sendLine := func(l LogLine) error {
		if req.Search != "" && !strings.Contains(l.Text, req.Search) {
			return nil
		}
		return send(LogItem{Line: l})
	}
	if !req.Follow {
		for _, l := range a.p.Metrics.LogsFrom(req.JobID, req.FromOffset) {
			if err := sendLine(l); err != nil {
				return err
			}
		}
		return nil
	}
	return follow(ctx, a.p.Metrics.live, req.JobID, req.FromOffset,
		func(from uint64) ([]LogLine, error) { return a.p.Metrics.LogsFrom(req.JobID, from), nil },
		sendLine)
}

// handleWatch streams a job's status transitions in history order
// through the follow protocol, filling from statusHistory, and ends the
// stream at a terminal status. A degraded fill is as complete as a
// healthy one; a job the oplog retains nothing for fails the fill with
// ErrDegraded, as it fails a status read.
func (a *apiReplica) handleWatch(ctx context.Context, arg any, send func(any) error) error {
	req := arg.(WatchArgs)
	a.p.Metrics.Inc("watch.refills")
	return follow(ctx, a.p.bus, req.JobID, uint64(max(req.FromSeq, 1)),
		func(from uint64) ([]StatusEvent, error) {
			h, err := a.p.statusHistory(req.JobID, int(from))
			if err != nil {
				return nil, err
			}
			if h.Degraded {
				a.p.Metrics.Inc("watch.degraded_refills")
			}
			evs := make([]StatusEvent, len(h.History))
			for i, e := range h.History {
				evs[i] = StatusEvent{JobID: req.JobID, StatusItem: StatusItem{Seq: int(from) + i, Entry: e}}
			}
			return evs, nil
		},
		func(ev StatusEvent) error { return send(ev.StatusItem) })
}

// Client is the typed client for the FfDL API (the CLI in Fig. 1 talks
// to the same surface).
type Client struct {
	api   *rpc.Balancer
	clock sim.Clock
}

// NewClient returns a client over the given registry, using the wall
// clock for waits and reconnect backoff.
func NewClient(reg *rpc.Registry) *Client {
	return &Client{api: rpc.NewBalancer(reg, ServiceAPI), clock: sim.NewRealClock()}
}

// WithClock rebinds the client's waits to clk (a platform under a
// simulated clock hands its own clock to clients so WaitForStatus and
// watch reconnects do not stall virtual time). It returns the client.
func (c *Client) WithClock(clk sim.Clock) *Client {
	c.clock = clk
	return c
}

// WithResilience installs a client→api resilience policy on the
// client's balancer: transient call failures (every replica briefly
// down, a connection cut mid-dial) retry with backoff instead of
// surfacing. Platform.Client installs the platform's shared policy;
// external constructions may pass their own. It returns the client.
func (c *Client) WithResilience(p *resilience.Policy) *Client {
	c.api.Use(p)
	return c
}

// Submit submits a training job, returning its id.
func (c *Client) Submit(ctx context.Context, m Manifest) (string, error) {
	var reply SubmitReply
	if err := c.api.Call(ctx, "API.Submit", SubmitArgs{Manifest: m}, &reply); err != nil {
		return "", err
	}
	return reply.JobID, nil
}

// Status fetches a job's current status and history.
func (c *Client) Status(ctx context.Context, jobID string) (StatusReply, error) {
	var reply StatusReply
	err := c.api.Call(ctx, "API.Status", JobArgs{JobID: jobID}, &reply)
	return reply, err
}

// List returns jobs, optionally filtered by user.
func (c *Client) List(ctx context.Context, user string) ([]JobRecord, error) {
	var reply ListReply
	if err := c.api.Call(ctx, "API.List", ListArgs{User: user}, &reply); err != nil {
		return nil, err
	}
	return reply.Jobs, nil
}

// Halt checkpoints and stops a job (HALT/RESUME for hyperparameter
// tuning, §3.8).
func (c *Client) Halt(ctx context.Context, jobID string) error {
	return c.api.Call(ctx, "API.Halt", JobArgs{JobID: jobID}, nil)
}

// Resume restarts a halted job from its latest checkpoint.
func (c *Client) Resume(ctx context.Context, jobID string) error {
	return c.api.Call(ctx, "API.Resume", JobArgs{JobID: jobID}, nil)
}

// Terminate cancels a job.
func (c *Client) Terminate(ctx context.Context, jobID string) error {
	return c.api.Call(ctx, "API.Terminate", JobArgs{JobID: jobID}, nil)
}

// Quota returns a tenant's record plus its live GPU usage.
func (c *Client) Quota(ctx context.Context, user string) (tenant.Record, int, error) {
	var reply TenantReply
	if err := c.api.Call(ctx, "API.Quota", TenantArgs{User: user}, &reply); err != nil {
		return tenant.Record{}, 0, err
	}
	return reply.Tenant, reply.InUse, nil
}

// SetQuota installs or updates a tenant record. The quota takes effect
// for queued work as soon as the write commits — raising a quota can
// trigger preemption on behalf of a newly in-quota queued job.
func (c *Client) SetQuota(ctx context.Context, rec tenant.Record) error {
	return c.api.Call(ctx, "API.SetQuota", SetTenantArgs{Tenant: rec}, nil)
}

// Metrics fetches one consistent snapshot of the platform's metrics
// registry. Render it with Snapshot.Prom() for Prometheus text
// exposition, or inspect it programmatically.
func (c *Client) Metrics(ctx context.Context) (obs.Snapshot, error) {
	var reply MetricsReply
	err := c.api.Call(ctx, "API.Metrics", MetricsArgs{}, &reply)
	return reply.Snapshot, err
}

// Trace fetches a job's span tree: the lifecycle phases as children of
// one root span, with etcd-propose and LCM-deploy sub-spans while the
// tracer holds the job's.
func (c *Client) Trace(ctx context.Context, jobID string) (obs.Trace, error) {
	var reply TraceReply
	err := c.api.Call(ctx, "API.Trace", JobArgs{JobID: jobID}, &reply)
	return reply.Trace, err
}

// Tenants lists all tenant records.
func (c *Client) Tenants(ctx context.Context) ([]tenant.Record, error) {
	var reply TenantsReply
	if err := c.api.Call(ctx, "API.Tenants", TenantArgs{}, &reply); err != nil {
		return nil, err
	}
	return reply.Tenants, nil
}

// Logs fetches a job's collected logs.
func (c *Client) Logs(ctx context.Context, jobID string) ([]LogLine, error) {
	return c.logs(ctx, LogsArgs{JobID: jobID})
}

// SearchLogs fetches log lines matching a substring.
func (c *Client) SearchLogs(ctx context.Context, jobID, substr string) ([]LogLine, error) {
	return c.logs(ctx, LogsArgs{JobID: jobID, Search: substr})
}

func (c *Client) logs(ctx context.Context, args LogsArgs) ([]LogLine, error) {
	sr, err := c.api.Stream(ctx, "API.Logs", args)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	var out []LogLine
	for {
		var item LogItem
		err := sr.Recv(&item)
		if errors.Is(err, rpc.ErrStreamDone) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, item.Line)
	}
}

// FollowLogs streams live logs until ctx is cancelled, invoking fn per
// line. Like WatchStatus, the stream transparently reconnects across
// API replica crashes, resuming from the last delivered line's offset —
// the job's log lives in the platform's commit log, not the replica —
// so no line is missed or duplicated end-to-end.
func (c *Client) FollowLogs(ctx context.Context, jobID string, fn func(LogLine)) error {
	return c.FollowLogsFrom(ctx, jobID, 0, fn)
}

// FollowLogsFrom is FollowLogs resuming from a line offset: only lines
// with Offset >= from are delivered. This is the CLI's end-to-end
// resume path — a follower that remembers the last printed offset can
// reconnect after its own restart, not just the replica's, without
// gaps or duplicates. It returns nil once ctx ends.
func (c *Client) FollowLogsFrom(ctx context.Context, jobID string, from uint64, fn func(LogLine)) error {
	resume(ctx, c, "API.Logs", func(next uint64) any {
		return LogsArgs{JobID: jobID, Follow: true, FromOffset: next}
	}, from, nil, func(it LogItem) bool {
		fn(it.Line)
		return true
	})
	return nil
}

// watchRetryDelay paces stream reconnects after an API replica crash.
// Restart delays in this platform are milliseconds (Table 3 scales them
// up explicitly), so a few ms keeps failover latency negligible.
const watchRetryDelay = 5 * time.Millisecond

// WatchStatus streams a job's status transitions, in order and without
// duplicates, starting from the beginning of its history. The returned
// channel closes after the terminal transition is delivered (or when
// ctx/cancel fires); closure without a terminal entry means
// cancellation, never completion. The stream transparently reconnects
// across API replica crashes, resuming from the last delivered
// transition, so every transition is observed exactly once end-to-end,
// whichever API replica serves the stream and whichever replica
// committed the transition. This is the layer-4 contract of
// docs/watch-protocol.md.
//
// The existence check rides the stream's first item: every job's
// history has an entry, so WatchStatus waits for it, and an error the
// server sends in its place — an unknown job, a degraded store that
// holds no image of the job — fails the call. A connection that breaks
// before the first item is reconnected like any later break.
func (c *Client) WatchStatus(ctx context.Context, jobID string) (<-chan StatusEntry, func(), error) {
	wctx, cancel := context.WithCancel(ctx)
	sr, err := c.api.Stream(wctx, "API.Watch", WatchArgs{JobID: jobID, FromSeq: 1})
	if err != nil {
		cancel()
		return nil, nil, err
	}
	// The first entry is the submit's QUEUED or PENDING, never an ending
	// one, so the stream goes on past it.
	var first StatusItem
	switch err := sr.Recv(&first); {
	case err == nil:
		return c.watch(wctx, jobID, first.Seq+1, sr, first.Entry), cancel, nil
	case errors.As(err, new(*rpc.RemoteError)), ctx.Err() != nil:
		sr.Close()
		cancel()
		return nil, nil, err
	}
	sr.Close() // the connection broke before the first item: reconnect
	return c.watch(wctx, jobID, 1, nil), cancel, nil
}

// watch runs a status watch's resume loop from Seq from, on sr when it
// is open there, and returns its channel, which starts with the entries
// already read.
func (c *Client) watch(ctx context.Context, jobID string, from int, sr *rpc.StreamReader, read ...StatusEntry) <-chan StatusEntry {
	// 16 holds a whole job history, so a consumer that reads in bursts
	// does not hold the stream up.
	out := make(chan StatusEntry, 16)
	for _, e := range read {
		out <- e
	}
	go func() {
		defer close(out)
		resume(ctx, c, "API.Watch", func(next uint64) any {
			return WatchArgs{JobID: jobID, FromSeq: int(next)}
		}, uint64(from), sr, func(it StatusItem) bool {
			select {
			case out <- it.Entry:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}

// WaitForStatus blocks until the job's *current* status reaches the
// target (or any terminal status), returning the final observed
// status; past transitions the job has already moved beyond do not
// satisfy the wait. It retries the status read every poll (on the
// client's clock, never the wall clock) until the read answers, then
// rides a status watch opened just past the history that read
// returned, so reaction time is bounded by status propagation, not a
// poll interval.
func (c *Client) WaitForStatus(ctx context.Context, jobID string, target JobStatus, poll time.Duration) (JobStatus, error) {
	reply, err := c.Status(ctx, jobID)
	for err != nil {
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-c.clock.After(poll):
		}
		reply, err = c.Status(ctx, jobID)
	}
	if reply.Status == target || reply.Status.Terminal() {
		return reply.Status, nil
	}
	// A transition racing the status read lands past its history and is
	// still seen. The watch closes only after a terminal entry or once
	// ctx ends.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for e := range c.watch(wctx, jobID, len(reply.History)+1, nil) {
		if e.Status == target || e.Status.Terminal() {
			return e.Status, nil
		}
	}
	return "", ctx.Err()
}
