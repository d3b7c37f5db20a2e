package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sim"
)

var errBoom = errors.New("boom")

func TestClassifyMarkAndDefaults(t *testing.T) {
	if got := Classify(Mark(errBoom, Transient)); got != Transient {
		t.Fatalf("marked transient classified %v", got)
	}
	if got := Classify(Mark(errBoom, Terminal)); got != Terminal {
		t.Fatalf("marked terminal classified %v", got)
	}
	// Wrapping preserves the mark.
	wrapped := errors.Join(errors.New("outer"), Mark(errBoom, Transient))
	if got := Classify(wrapped); got != Transient {
		t.Fatalf("wrapped mark classified %v", got)
	}
	if got := Classify(context.Canceled); got != Ambiguous {
		t.Fatalf("canceled classified %v", got)
	}
	if got := Classify(errBoom); got != Ambiguous {
		t.Fatalf("unmarked classified %v", got)
	}
	if !errors.Is(Mark(errBoom, Transient), errBoom) {
		t.Fatal("Mark broke errors.Is")
	}
}

func TestBackoffCapAndDeterminism(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Mult: 2}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Same seed, same jittered schedule.
	bj := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Mult: 2, Jitter: 0.5}
	a, c := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 5; i++ {
		if d1, d2 := bj.Delay(i, a), bj.Delay(i, c); d1 != d2 {
			t.Fatalf("jitter not deterministic: %v vs %v", d1, d2)
		}
	}
}

// TestRetrySchedulingExactUnderFakeClock pins that Do's backoff waits are
// clock-driven: with a FakeClock and no auto-advance, the retry only
// proceeds when virtual time is advanced, and the elapsed virtual time
// equals the deterministic schedule exactly.
func TestRetrySchedulingExactUnderFakeClock(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	clock.StartAutoAdvance(time.Millisecond)
	defer clock.StopAutoAdvance()
	p := NewPolicy(Options{
		Name:     "dep",
		Clock:    clock,
		Attempts: 3,
		Backoff:  Backoff{Base: 100 * time.Millisecond, Mult: 2},
	})
	start := clock.Now()
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Mark(errBoom, Transient)
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Two backoff waits: 100ms + 200ms of virtual time, exactly.
	if got := clock.Since(start); got != 300*time.Millisecond {
		t.Fatalf("virtual elapsed = %v, want 300ms", got)
	}
}

func TestTerminalErrorsDoNotRetry(t *testing.T) {
	p := NewPolicy(Options{Name: "dep", Attempts: 5})
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Mark(errBoom, Terminal)
	})
	if calls != 1 {
		t.Fatalf("terminal error retried: %d calls", calls)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
}

func TestAmbiguousRetriedOnlyWhenIdempotent(t *testing.T) {
	calls := 0
	p := NewPolicy(Options{Name: "dep", Attempts: 3, Backoff: Backoff{Base: time.Microsecond}})
	_ = p.Do(context.Background(), func(context.Context) error { calls++; return errBoom })
	if calls != 1 {
		t.Fatalf("ambiguous retried on non-idempotent edge: %d calls", calls)
	}
	calls = 0
	p = NewPolicy(Options{Name: "dep", Attempts: 3, RetryAmbiguous: true, Backoff: Backoff{Base: time.Microsecond}})
	_ = p.Do(context.Background(), func(context.Context) error { calls++; return errBoom })
	if calls != 3 {
		t.Fatalf("ambiguous not retried on idempotent edge: %d calls", calls)
	}
}

// TestBreakerLifecycle walks closed → open (shedding) → half-open probe →
// closed on the policy clock, and checks the obs gauge/counters track it.
func TestBreakerLifecycle(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	reg := obs.NewRegistry()
	p := NewPolicy(Options{
		Name:     "mongo",
		Clock:    clock,
		Attempts: 1,
		Obs:      reg,
		Breaker:  &BreakerConfig{Threshold: 3, OpenFor: time.Second},
	})
	fail := func(context.Context) error { return Mark(errBoom, Transient) }
	ok := func(context.Context) error { return nil }

	for i := 0; i < 3; i++ {
		if err := p.Do(context.Background(), fail); !errors.Is(err, errBoom) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if got := p.breakerState(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if reg.Counter("resilience.breaker_opens_mongo").Value() != 1 {
		t.Fatal("breaker open not counted")
	}

	// Open: calls shed without invoking the op.
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error { calls++; return nil })
	if calls != 0 || !IsShed(err) {
		t.Fatalf("open breaker: calls=%d err=%v", calls, err)
	}
	var se *ShedError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("shed error lacks RetryAfter hint: %v", err)
	}
	if Classify(err) != Transient {
		t.Fatal("shed error must classify transient (retryable)")
	}
	if reg.Counter("resilience.shed").Value() != 1 {
		t.Fatal("shed not counted")
	}

	// Still open before OpenFor elapses; half-open after.
	clock.Advance(999 * time.Millisecond)
	if p.Ready() {
		t.Fatal("breaker ready before OpenFor elapsed")
	}
	clock.Advance(time.Millisecond)
	if got := p.breakerState(); got != BreakerHalfOpen {
		t.Fatalf("state after OpenFor = %v, want half-open", got)
	}

	// A failing probe re-opens...
	if err := p.Do(context.Background(), fail); !errors.Is(err, errBoom) {
		t.Fatalf("probe: %v", err)
	}
	if got := p.breakerState(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// ...and a successful probe after another window closes.
	clock.Advance(time.Second)
	if err := p.Do(context.Background(), ok); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := p.breakerState(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if reg.Snapshot().Gauge("resilience.breaker_state_mongo") != int64(BreakerClosed) {
		t.Fatal("gauge does not track closed state")
	}
}

// TestBreakerTerminalErrorsCountAsContact pins that application-level
// errors (the dependency answered "no") reset the failure streak instead
// of tripping the breaker.
func TestBreakerTerminalErrorsCountAsContact(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	p := NewPolicy(Options{
		Name:     "dep",
		Clock:    clock,
		Attempts: 1,
		Breaker:  &BreakerConfig{Threshold: 2, OpenFor: time.Second},
	})
	seq := []Class{Transient, Terminal, Transient, Terminal}
	for _, cl := range seq {
		_ = p.Do(context.Background(), func(context.Context) error { return Mark(errBoom, cl) })
	}
	if got := p.breakerState(); got != BreakerClosed {
		t.Fatalf("interleaved terminal errors tripped breaker: %v", got)
	}
}

// TestDeadlineRescuesWedgedCall pins the core chaos property: an op stuck
// forever on a dead dependency is abandoned after the policy's virtual
// deadline, classified transient, with no FakeClock waiters leaked.
func TestDeadlineRescuesWedgedCall(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	clock.StartAutoAdvance(time.Millisecond)
	defer clock.StopAutoAdvance()
	p := NewPolicy(Options{
		Name:     "lcm",
		Clock:    clock,
		Attempts: 2,
		Deadline: 5 * time.Second,
	})
	start := clock.Now()
	err := p.Do(context.Background(), func(ctx context.Context) error {
		<-ctx.Done() // wedged until the policy deadline cancels us
		return ctx.Err()
	})
	if err == nil || Classify(err) != Transient {
		t.Fatalf("wedged call: err=%v class=%v", err, Classify(err))
	}
	if got := clock.Since(start); got != 5*time.Second {
		t.Fatalf("rescued after %v virtual, want 5s", got)
	}
	deadlineWaiters := func() int {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && clock.WaiterCount() > 0 {
			time.Sleep(time.Millisecond)
		}
		return clock.WaiterCount()
	}
	if n := deadlineWaiters(); n != 0 {
		t.Fatalf("leaked %d clock waiters", n)
	}
}

func TestCallerCancelStopsRetries(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	clock.StartAutoAdvance(time.Millisecond)
	defer clock.StopAutoAdvance()
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPolicy(Options{
		Name:     "dep",
		Clock:    clock,
		Attempts: 10,
		Backoff:  Backoff{Base: time.Second},
	})
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return Mark(errBoom, Transient)
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls after cancel = %d, want 2", calls)
	}
}

func TestRetriesCounted(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPolicy(Options{Name: "dep", Attempts: 4, Obs: reg, Backoff: Backoff{Base: time.Microsecond}})
	_ = p.Do(context.Background(), func(context.Context) error { return Mark(errBoom, Transient) })
	if got := reg.Counter("resilience.retries").Value(); got != 3 {
		t.Fatalf("resilience.retries = %d, want 3", got)
	}
}

func TestSuccessAfterRetries(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	clock.StartAutoAdvance(time.Millisecond)
	defer clock.StopAutoAdvance()
	p := NewPolicy(Options{Name: "dep", Clock: clock, Attempts: 5, Backoff: Backoff{Base: time.Millisecond}})
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return Mark(errBoom, Transient)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestHalfOpenAdmitsSingleProbe(t *testing.T) {
	clock := sim.NewFakeClock(time.Unix(0, 0))
	p := NewPolicy(Options{
		Name:     "dep",
		Clock:    clock,
		Attempts: 1,
		Breaker:  &BreakerConfig{Threshold: 1, OpenFor: time.Second},
	})
	_ = p.Do(context.Background(), func(context.Context) error { return Mark(errBoom, Transient) })
	clock.Advance(time.Second)
	// First allow() enters half-open and takes the probe slot; a second
	// concurrent caller must be shed until the probe resolves.
	if !p.brk.allow() {
		t.Fatal("probe not admitted")
	}
	if p.brk.allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	p.brk.record(false)
	if got := p.breakerState(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}
