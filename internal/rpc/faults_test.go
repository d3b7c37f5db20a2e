package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/resilience"
)

// TestFaultsDropRescuedByPolicyDeadline pins the lost-request-frame fault:
// a fully cut link hangs the call until the balancer's resilience policy
// deadline abandons it, classified transient.
func TestFaultsDropRescuedByPolicyDeadline(t *testing.T) {
	_, addr := newEchoServer(t)
	reg := NewRegistry()
	reg.Add("echo", addr)
	faults := NewFaults(nil, 1)
	faults.SetLink(addr, LinkFault{Drop: 1})
	reg.SetFaults(faults)

	b := NewBalancer(reg, "echo")
	defer b.Close()
	b.Use(resilience.NewPolicy(resilience.Options{
		Name:     "echo",
		Attempts: 2,
		Deadline: 200 * time.Millisecond,
		Classify: ClassifyRPC,
	}))

	var resp echoResp
	start := time.Now()
	err := b.Call(context.Background(), "Echo", echoReq{Msg: "hi"}, &resp)
	if err == nil {
		t.Fatal("cut link must fail the call")
	}
	if resilience.Classify(err) != resilience.Transient {
		t.Fatalf("rescued call classified %v, want transient", resilience.Classify(err))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("rescue took %v, deadline not enforced", elapsed)
	}
	if faults.Stats().Dropped == 0 {
		t.Fatal("no drops recorded")
	}

	// Heal the link: the same balancer recovers.
	faults.SetLink(addr, LinkFault{})
	if err := b.Call(context.Background(), "Echo", echoReq{Msg: "hi", N: 1}, &resp); err != nil {
		t.Fatalf("healed link: %v", err)
	}
	if resp.N != 2 {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestFaultsDuplicateDelivery pins the duplicated-request fault: the
// server executes twice (at-least-once), the client sees exactly one
// reply and the late duplicate is discarded without corrupting the
// connection.
func TestFaultsDuplicateDelivery(t *testing.T) {
	s := NewServer()
	var execs atomic.Int64
	s.Register("Bump", echoReq{}, func(_ context.Context, arg any) (any, error) {
		execs.Add(1)
		return echoResp{N: arg.(echoReq).N + 1}, nil
	})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	reg := NewRegistry()
	reg.Add("bump", addr)
	faults := NewFaults(nil, 1)
	faults.SetLink(addr, LinkFault{Dup: 1})
	reg.SetFaults(faults)
	b := NewBalancer(reg, "bump")
	defer b.Close()

	var resp echoResp
	if err := b.Call(context.Background(), "Bump", echoReq{N: 1}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.N != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	deadline := time.Now().Add(2 * time.Second)
	for execs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("server executed %d times, want 2 (duplicate delivery)", got)
	}
	// Connection still healthy after the discarded duplicate response.
	faults.Heal()
	if err := b.Call(context.Background(), "Bump", echoReq{N: 5}, &resp); err != nil || resp.N != 6 {
		t.Fatalf("post-duplicate call: err=%v resp=%+v", err, resp)
	}
}

// TestFaultsDelay pins added link latency.
func TestFaultsDelay(t *testing.T) {
	_, addr := newEchoServer(t)
	reg := NewRegistry()
	reg.Add("echo", addr)
	faults := NewFaults(nil, 1)
	faults.SetLink(addr, LinkFault{Delay: 30 * time.Millisecond})
	reg.SetFaults(faults)
	b := NewBalancer(reg, "echo")
	defer b.Close()

	var resp echoResp
	start := time.Now()
	if err := b.Call(context.Background(), "Echo", echoReq{}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delayed call returned in %v, want >= 30ms", elapsed)
	}
	if faults.Stats().Delayed == 0 {
		t.Fatal("no delays recorded")
	}
}

// TestBalancerPolicyBreakerSheds pins breaker shedding on an RPC edge:
// repeated transient failures (no endpoints) trip the breaker, after
// which calls shed instantly without touching the transport.
func TestBalancerPolicyBreakerSheds(t *testing.T) {
	reg := NewRegistry() // no replicas registered
	b := NewBalancer(reg, "ghost")
	defer b.Close()
	b.Use(resilience.NewPolicy(resilience.Options{
		Name:     "ghost",
		Attempts: 1,
		Classify: ClassifyRPC,
		Breaker:  &resilience.BreakerConfig{Threshold: 3, OpenFor: time.Minute},
	}))

	for i := 0; i < 3; i++ {
		if err := b.Call(context.Background(), "Echo", echoReq{}, nil); !errors.Is(err, ErrNoEndpoints) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	err := b.Call(context.Background(), "Echo", echoReq{}, nil)
	if !resilience.IsShed(err) {
		t.Fatalf("breaker did not shed: %v", err)
	}
}

func TestClassifyRPC(t *testing.T) {
	cases := []struct {
		err  error
		want resilience.Class
	}{
		{ErrConnClosed, resilience.Transient},
		{ErrNoEndpoints, resilience.Transient},
		{ErrCanceled, resilience.Ambiguous},
		{&RemoteError{Method: "X", Message: "boom"}, resilience.Terminal},
		{errors.New("mystery"), resilience.Ambiguous},
	}
	for _, c := range cases {
		if got := ClassifyRPC(c.err); got != c.want {
			t.Fatalf("ClassifyRPC(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
