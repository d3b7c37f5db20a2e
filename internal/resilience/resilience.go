// Package resilience is the platform's unified fault-handling policy
// layer: every cross-subsystem dependency edge (api→lcm, dispatcher→lcm,
// core→mongo, core→etcd, client→api) drives its calls through one
// Policy instead of ad-hoc per-call-site retry loops. A policy combines
//
//   - error classification (transient / terminal / ambiguous),
//   - capped exponential backoff with deterministic jitter, driven by
//     sim.Clock so retry schedules are exact under FakeClock,
//   - a per-Do retry budget and an overall virtual-time deadline
//     (context.WithTimeout is wall-clock, so deadlines here are
//     clock.NewTimer-driven — a wedged dependency is rescued in
//     virtual time, which is what keeps chaos soaks fast and exact),
//   - and a per-dependency circuit breaker (closed → open → half-open)
//     that sheds load fast while the dependency is down instead of
//     queueing doomed work behind it.
//
// Observability: policies expose "resilience.retries" and
// "resilience.shed" counters plus a per-dependency
// "resilience.breaker_state_<name>" gauge (0 closed, 1 open, 2
// half-open) and "resilience.breaker_opens_<name>" trip counter on the
// platform registry (see internal/obs's naming convention).
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sim"
)

// Class buckets an error by how a caller should react to it.
type Class int

// Error classes. Ambiguous is the zero value: an unrecognized error may
// or may not have had a side effect, so only idempotent edges retry it.
const (
	// Ambiguous errors give no evidence either way (an unclassified
	// error, a canceled context): the operation may have executed.
	Ambiguous Class = iota
	// Transient errors are safe to retry: the dependency refused or
	// never received the work (connection closed, no endpoints, an
	// explicit unavailability error).
	Transient
	// Terminal errors are application outcomes — the dependency is
	// healthy and answered "no" (not found, validation, illegal
	// transition). Retrying cannot help.
	Terminal
)

// String names the class for logs and violation reports.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Terminal:
		return "terminal"
	default:
		return "ambiguous"
	}
}

// classified wraps an error with an explicit class; it preserves the
// wrapped chain for errors.Is/As.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Mark attaches a class to an error. Classify on the result (or on any
// error wrapping it) returns the attached class.
func Mark(err error, class Class) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: class}
}

// Classify walks the wrapped chain of err looking for an explicit mark.
// Canceled or deadline-expired contexts are Ambiguous (the operation may
// have run); anything unmarked is Ambiguous too — the conservative
// default, retried only on edges that declare themselves idempotent.
func Classify(err error) Class {
	if err == nil {
		return Terminal // a nil "error" carries no retry signal
	}
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	var sc interface{ Class() Class }
	if errors.As(err, &sc) {
		return sc.Class()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Ambiguous
	}
	return Ambiguous
}

// Backoff is a capped exponential backoff schedule. Delays are
// Base·Mult^attempt, capped at Cap, with ±Jitter fractional
// randomization from the policy's deterministic RNG (so two edges
// retrying against the same dead dependency do not synchronize into
// thundering herds, and a seeded run reproduces the exact schedule).
type Backoff struct {
	Base   time.Duration
	Cap    time.Duration
	Mult   float64
	Jitter float64
}

// Delay computes the wait before retry #attempt (0-based), jittered
// from rng (nil: no jitter).
func (b Backoff) Delay(attempt int, rng *sim.RNG) time.Duration {
	base := b.Base
	if base <= 0 {
		base = time.Millisecond
	}
	mult := b.Mult
	if mult < 1 {
		mult = 2
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= mult
		if b.Cap > 0 && d >= float64(b.Cap) {
			d = float64(b.Cap)
			break
		}
	}
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states, in gauge encoding order.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker
	// open. Default 5.
	Threshold int
	// OpenFor is how long the breaker stays open before admitting a
	// half-open probe, in the policy clock's time. Default 100ms.
	OpenFor time.Duration
	// ProbeSuccesses is how many consecutive half-open successes close
	// the breaker again. Default 1.
	ProbeSuccesses int
}

func (c *BreakerConfig) defaults() {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 100 * time.Millisecond
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 1
	}
}

// breaker is a closed→open→half-open circuit breaker on the policy
// clock. Transient and ambiguous failures count against the threshold;
// terminal (application) errors count as contact — the dependency
// answered, so they reset the failure streak.
type breaker struct {
	cfg   BreakerConfig
	clock sim.Clock

	mu        sync.Mutex
	state     BreakerState
	fails     int
	successes int
	openedAt  time.Time
	probing   bool

	gauge *obs.Gauge
	opens *obs.Counter
}

// allow reports whether a call may proceed. In the open state it flips
// to half-open once OpenFor has elapsed, admitting exactly one probe at
// a time.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clock.Since(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.setStateLocked(BreakerHalfOpen)
		b.successes = 0
		b.probing = true
		return true
	default: // half-open: one probe in flight at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record folds one call outcome into the state machine.
func (b *breaker) record(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if failed {
		b.successes = 0
		b.fails++
		if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.cfg.Threshold) {
			b.setStateLocked(BreakerOpen)
			b.openedAt = b.clock.Now()
			b.fails = 0
			b.opens.Inc()
		}
		return
	}
	b.fails = 0
	if b.state == BreakerHalfOpen {
		b.successes++
		if b.successes >= b.cfg.ProbeSuccesses {
			b.setStateLocked(BreakerClosed)
		}
	}
}

func (b *breaker) setStateLocked(s BreakerState) {
	b.state = s
	b.gauge.Set(int64(s))
}

func (b *breaker) currentState() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Surface open→half-open eligibility without requiring a probe call
	// first, so "recovered enough to try" is observable.
	if b.state == BreakerOpen && b.clock.Since(b.openedAt) >= b.cfg.OpenFor {
		return BreakerHalfOpen
	}
	return b.state
}

// ShedError reports a call rejected without being attempted because the
// dependency's breaker is open. It classifies as Transient: the caller
// may retry later (degraded mode surfaces it as HTTP 503 + Retry-After).
type ShedError struct {
	// Dependency is the policy name whose breaker shed the call.
	Dependency string
	// RetryAfter is the remaining open window — a Retry-After hint.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("resilience: %s breaker open, call shed (retry in %v)", e.Dependency, e.RetryAfter)
}

// Class marks sheds as transient for Classify.
func (e *ShedError) Class() Class { return Transient }

// IsShed reports whether err is (or wraps) a breaker shed.
func IsShed(err error) bool {
	var se *ShedError
	return errors.As(err, &se)
}

// Options configures a Policy.
type Options struct {
	// Name identifies the dependency edge ("core_mongo", "api_lcm", ...)
	// in instrument names and shed errors.
	Name string
	// Clock drives backoff waits and deadlines. Defaults to wall clock.
	Clock sim.Clock
	// Backoff is the retry schedule (zero value: 1ms base, doubling).
	Backoff Backoff
	// Attempts is the per-Do try budget (including the first). Default 3.
	Attempts int
	// Deadline bounds one whole Do in the policy clock's time, rescuing
	// calls wedged on a dependency that never answers (a dropped RPC
	// frame, a quorum-less etcd). 0 = no deadline.
	Deadline time.Duration
	// RetryAmbiguous retries Ambiguous-class errors too. Set it only on
	// idempotent edges, where re-executing a maybe-executed operation is
	// safe.
	RetryAmbiguous bool
	// Classify overrides the package Classify for this edge.
	Classify func(error) Class
	// Breaker enables a circuit breaker with the given tuning. Nil runs
	// the policy breaker-less (retry/backoff/deadline only).
	Breaker *BreakerConfig
	// Obs registers the policy's instruments; nil runs uninstrumented.
	Obs *obs.Registry
	// Seed makes backoff jitter deterministic. Default 1.
	Seed int64
}

// Policy is one dependency edge's resilience policy. Safe for
// concurrent use; a single Policy (and thus a single breaker) is shared
// by every caller of the same dependency.
type Policy struct {
	name           string
	clock          sim.Clock
	backoff        Backoff
	attempts       int
	deadline       time.Duration
	retryAmbiguous bool
	classify       func(error) Class
	brk            *breaker

	rngMu sync.Mutex
	rng   *sim.RNG

	retries *obs.Counter
	shed    *obs.Counter
}

// NewPolicy builds a policy from options.
func NewPolicy(o Options) *Policy {
	if o.Name == "" {
		o.Name = "dep"
	}
	if o.Clock == nil {
		o.Clock = sim.NewRealClock()
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.Classify == nil {
		o.Classify = Classify
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	p := &Policy{
		name:           o.Name,
		clock:          o.Clock,
		backoff:        o.Backoff,
		attempts:       o.Attempts,
		deadline:       o.Deadline,
		retryAmbiguous: o.RetryAmbiguous,
		classify:       o.Classify,
		rng:            sim.NewRNG(o.Seed),
		retries:        o.Obs.Counter("resilience.retries"),
		shed:           o.Obs.Counter("resilience.shed"),
	}
	if o.Breaker != nil {
		cfg := *o.Breaker
		cfg.defaults()
		p.brk = &breaker{
			cfg:   cfg,
			clock: o.Clock,
			gauge: o.Obs.Gauge("resilience.breaker_state_" + o.Name),
			opens: o.Obs.Counter("resilience.breaker_opens_" + o.Name),
		}
	}
	return p
}

// breakerState returns the breaker's current state (BreakerClosed for a
// breaker-less policy).
func (p *Policy) breakerState() BreakerState {
	if p.brk == nil {
		return BreakerClosed
	}
	return p.brk.currentState()
}

// Ready reports whether a call would be admitted right now — false only
// while the breaker is open (degraded mode's fast-path check).
func (p *Policy) Ready() bool {
	if p.brk == nil {
		return true
	}
	return p.brk.currentState() != BreakerOpen
}

// shedError builds the ShedError for a breaker-open rejection.
func (p *Policy) shedError() error {
	retry := time.Millisecond
	if p.brk != nil {
		p.brk.mu.Lock()
		if rem := p.brk.cfg.OpenFor - p.clock.Since(p.brk.openedAt); rem > retry {
			retry = rem
		}
		p.brk.mu.Unlock()
	}
	p.shed.Inc()
	return &ShedError{Dependency: p.name, RetryAfter: retry}
}

// Do runs op under the policy: breaker admission, classification-driven
// retries with capped jittered backoff, a try budget, and a clock-driven
// overall deadline. The op's context is canceled when the deadline
// expires, so calls wedged inside the dependency are rescued in virtual
// time. The last error is returned when the budget or deadline runs out;
// a breaker-open rejection returns a *ShedError without invoking op.
func (p *Policy) Do(ctx context.Context, op func(context.Context) error) error {
	dctx := ctx
	var deadlineFired func() bool
	if p.deadline > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithCancel(ctx)
		defer cancel()
		timer := p.clock.NewTimer(p.deadline)
		defer timer.Stop()
		fired := make(chan struct{})
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-timer.C:
				close(fired)
				cancel()
			case <-stop:
			}
		}()
		deadlineFired = func() bool {
			select {
			case <-fired:
				return true
			default:
				return false
			}
		}
	}

	var lastErr error
	for attempt := 0; attempt < p.attempts; attempt++ {
		if err := dctx.Err(); err != nil {
			// Never return nil without a successful op: a caller whose
			// context died before the first attempt still gets an error.
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		if p.brk != nil && !p.brk.allow() {
			return p.shedError()
		}
		err := op(dctx)
		class := p.classify(err)
		if deadlineFired != nil && deadlineFired() && ctx.Err() == nil && err != nil {
			// The policy deadline (not the caller) canceled the op: the
			// dependency never answered in time. That is a transient
			// dependency failure, whatever error the cancellation
			// surfaced as.
			class = Transient
			err = Mark(fmt.Errorf("resilience: %s deadline %v exceeded: %w", p.name, p.deadline, err), Transient)
		}
		if p.brk != nil {
			// Terminal errors are contact: the dependency answered.
			p.brk.record(err != nil && class != Terminal)
		}
		if err == nil || class == Terminal {
			return err
		}
		lastErr = err
		if class == Ambiguous && !p.retryAmbiguous {
			return err
		}
		if deadlineFired != nil && deadlineFired() {
			return lastErr
		}
		if attempt == p.attempts-1 {
			break
		}
		p.retries.Inc()
		p.rngMu.Lock()
		wait := p.backoff.Delay(attempt, p.rng)
		p.rngMu.Unlock()
		t := p.clock.NewTimer(wait)
		select {
		case <-t.C:
		case <-dctx.Done():
			t.Stop()
			return lastErr
		}
	}
	return lastErr
}
