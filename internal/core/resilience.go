package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/resilience"
	"github.com/ffdl/ffdl/internal/rpc"
)

// This file wires internal/resilience into the platform: one Policy per
// cross-subsystem dependency edge, shared by every caller of that edge
// so each dependency has exactly one breaker. The edges:
//
//   mongo   core → metadata store (reads/writes that can see a
//           primary failover; the breaker drives degraded mode)
//   etcd    core → coordination store (guardian/LCM control keys)
//   lcm     API replicas and the tenant dispatcher → LCM (control
//           verbs, preempt/resume signals)
//   client  external client → API replicas
//
// All policies run on the platform clock, so retry schedules, breaker
// open windows and deadlines are exact virtual time under FakeClock.

// ErrDegraded reports that the platform is running in read-only degraded
// mode: the metadata store's breaker is open, so submissions are shed
// instead of queued behind a dead dependency. The error is retryable —
// clients should back off and resubmit (the HTTP gateway maps it to
// 503 + Retry-After). Status and watch reads keep working while
// degraded, from the job document's newest image in the metadata
// store's oplog; a List, or a Status for a job the oplog retains
// nothing for, sheds with this error too.
var ErrDegraded = errors.New("core: degraded mode: metadata store unavailable, retry later")

// IsDegraded reports whether err is (or wraps) ErrDegraded. Application
// errors cross the RPC boundary as message text (*rpc.RemoteError), so
// the check matches by message too — this is what clients and the HTTP
// gateway use to decide "retry later" vs "hard failure".
func IsDegraded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDegraded) {
		return true
	}
	return strings.Contains(err.Error(), ErrDegraded.Error())
}

// resilienceHub holds the platform's per-edge policies.
type resilienceHub struct {
	mongo  *resilience.Policy
	etcd   *resilience.Policy
	lcm    *resilience.Policy
	client *resilience.Policy
}

// classifyMongo buckets metadata-store errors: ErrUnavailable is the
// failover window (transient, counts against the breaker); anything
// else — not found, duplicate key — is an answer from a healthy store.
func classifyMongo(err error) resilience.Class {
	switch {
	case err == nil:
		return resilience.Terminal
	case errors.Is(err, mongo.ErrUnavailable):
		return resilience.Transient
	default:
		return resilience.Terminal
	}
}

// newResilienceHub builds the per-edge policies. Every duration scales
// with PollInterval so long-virtual-horizon experiments that stretch the
// platform's control loops stretch its recovery behavior with them.
func newResilienceHub(cfg *Config, instruments *obs.Registry) *resilienceHub {
	pi := cfg.PollInterval
	backoff := resilience.Backoff{Base: pi / 2, Cap: pi * 8, Jitter: 0.2}
	return &resilienceHub{
		mongo: resilience.NewPolicy(resilience.Options{
			Name:     "mongo",
			Clock:    cfg.Clock,
			Attempts: 3,
			Backoff:  backoff,
			Classify: classifyMongo,
			// A short failover blip is absorbed by the retries above; a
			// real outage trips the breaker and the API degrades instead
			// of queueing every request behind a dead store. The open
			// window stays modest (a few safety-net ticks) so recovery
			// after a heal is prompt even on stretched-clock runs.
			Breaker: &resilience.BreakerConfig{Threshold: 3, OpenFor: pi * 8},
			Obs:     instruments,
			Seed:    cfg.Seed + 101,
		}),
		etcd: resilience.NewPolicy(resilience.Options{
			Name:     "etcd",
			Clock:    cfg.Clock,
			Attempts: 3,
			Backoff:  backoff,
			// Control-key puts are level-triggered signals (HALT/RESUME/
			// TERMINATE, learner status): re-putting the same value is
			// harmless, so ambiguous outcomes retry.
			RetryAmbiguous: true,
			Breaker:        &resilience.BreakerConfig{Threshold: 5, OpenFor: pi * 8},
			Obs:            instruments,
			Seed:           cfg.Seed + 102,
		}),
		lcm: resilience.NewPolicy(resilience.Options{
			Name:     "lcm",
			Clock:    cfg.Clock,
			Attempts: 4,
			Backoff:  backoff,
			Classify: rpc.ClassifyRPC,
			// Control verbs and preempt/resume signals are idempotent
			// (control keys are level-triggered), so a maybe-executed
			// call is safe to re-issue — and the deadline rescues calls
			// wedged on a dropped request frame.
			RetryAmbiguous: true,
			Deadline:       pi * 10,
			Breaker:        &resilience.BreakerConfig{Threshold: 5, OpenFor: pi * 8},
			Obs:            instruments,
			Seed:           cfg.Seed + 103,
		}),
		client: resilience.NewPolicy(resilience.Options{
			Name:     "client_api",
			Clock:    cfg.Clock,
			Attempts: 4,
			Backoff:  backoff,
			Classify: rpc.ClassifyRPC,
			// Submit is not idempotent across the wire (a retried
			// maybe-executed submit could mint two jobs), so ambiguous
			// outcomes surface to the caller. No breaker either: the
			// client is outside the platform's fault domain and its
			// watch/status loops have their own reconnect logic.
			Obs:  instruments,
			Seed: cfg.Seed + 105,
		}),
	}
}

// mongoDo runs one metadata-store operation under the mongo edge policy:
// transient unavailability is retried with backoff, sustained outage
// trips the breaker and sheds callers fast.
func (p *Platform) mongoDo(op func() error) error {
	return p.res.mongo.Do(context.Background(), func(context.Context) error { return op() })
}

// tenantDo runs one tenant-registry operation under the mongo edge
// policy. A store outage comes back as the retryable degraded error,
// never as a verdict about the tenant.
func (p *Platform) tenantDo(op func() error) error {
	err := p.mongoDo(op)
	if mongoOutageErr(err) {
		return degradedErr(err)
	}
	return err
}

// findJob reads one job document through the mongo edge policy.
func (p *Platform) findJob(jobID string) (mongo.Doc, error) {
	var doc mongo.Doc
	err := p.mongoDo(func() error {
		var err error
		doc, err = p.Jobs.FindOne(mongo.Filter{"_id": jobID})
		return err
	})
	return doc, err
}

// Degraded reports whether the platform is in degraded mode (the
// metadata store's breaker is open): submissions are shed, status and
// watch reads serve from the job documents' images in the oplog.
func (p *Platform) Degraded() bool { return !p.res.mongo.Ready() }

// mongoOutageErr reports whether err means "the metadata store did not
// answer" — a transient unavailability or a breaker shed — as opposed to
// an answer like not-found. These are the errors degraded mode absorbs.
func mongoOutageErr(err error) bool {
	return errors.Is(err, mongo.ErrUnavailable) || resilience.IsShed(err)
}

// degradedErr wraps a metadata-store outage into the retryable
// degraded-mode error.
func degradedErr(err error) error {
	return fmt.Errorf("%w (%v)", ErrDegraded, err)
}
