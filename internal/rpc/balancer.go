package rpc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/resilience"
	"github.com/ffdl/ffdl/internal/sim"
)

// Registry maps service names to the addresses of their live replicas,
// mirroring the Kubernetes service registry the paper's API instances
// register into ("dynamically registered into a K8S service registry that
// provides load balancing and fail-over support", §3.2).
type Registry struct {
	mu       sync.RWMutex
	services map[string][]string
	// obs holds the derived instrument handles every Balancer built over
	// this registry shares (atomic so SetObs can land after balancers
	// exist). Nil pointer = uninstrumented.
	obs atomic.Pointer[registryObs]
	// faults holds the chaos fault injector shared by every connection
	// dialed through this registry (atomic so chaos can install it on a
	// running platform). Nil pointer = clean transport.
	faults atomic.Pointer[Faults]
}

// SetFaults installs (or, with nil, removes) a per-link fault injector on
// every connection dialed through this registry's balancers.
func (r *Registry) SetFaults(f *Faults) {
	r.faults.Store(f)
}

// registryObs bundles the RPC instrumentation one SetObs call derives.
type registryObs struct {
	roundtrip *obs.Histogram
	calls     *obs.Counter
	clock     sim.Clock
}

// SetObs wires every Balancer built over this registry into the metrics
// registry: per-call roundtrip latency ("rpc.roundtrip") and a call
// counter ("rpc.calls"). A nil reg is a no-op, leaving calls
// uninstrumented at zero cost; a nil clk times with the real clock.
func (r *Registry) SetObs(reg *obs.Registry, clk sim.Clock) {
	if reg == nil {
		return
	}
	if clk == nil {
		clk = sim.NewRealClock()
	}
	r.obs.Store(&registryObs{
		roundtrip: reg.Histogram("rpc.roundtrip"),
		calls:     reg.Counter("rpc.calls"),
		clock:     clk,
	})
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string][]string)}
}

// Add registers a replica address under a service name.
func (r *Registry) Add(service, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.services[service] {
		if a == addr {
			return
		}
	}
	r.services[service] = append(r.services[service], addr)
}

// Remove deregisters a replica address.
func (r *Registry) Remove(service, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addrs := r.services[service]
	for i, a := range addrs {
		if a == addr {
			r.services[service] = append(addrs[:i], addrs[i+1:]...)
			return
		}
	}
}

// Lookup returns a copy of the replica addresses for a service.
func (r *Registry) Lookup(service string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addrs := r.services[service]
	out := make([]string, len(addrs))
	copy(out, addrs)
	return out
}

// Balancer issues calls against a named service, rotating across replicas
// and failing over on connection errors. Connections are cached per
// address and re-established lazily after failures, which is how the
// platform survives microservice replica crashes (Table 3).
type Balancer struct {
	registry *Registry
	service  string
	policy   atomic.Pointer[resilience.Policy]

	mu    sync.Mutex
	conns map[string]*Conn
	next  int
}

// NewBalancer returns a Balancer for the given service name.
func NewBalancer(reg *Registry, service string) *Balancer {
	return &Balancer{registry: reg, service: service, conns: make(map[string]*Conn)}
}

// Use installs a resilience policy on this balancer: Call and Stream run
// their replica sweeps under the policy's retry budget, backoff,
// deadline and circuit breaker instead of the bare single-sweep
// failover. A nil policy restores the bare sweep.
func (b *Balancer) Use(p *resilience.Policy) { b.policy.Store(p) }

// conn returns a live connection to addr, dialing if needed.
func (b *Balancer) conn(addr string) (*Conn, error) {
	b.mu.Lock()
	if c, ok := b.conns[addr]; ok {
		b.mu.Unlock()
		return c, nil
	}
	b.mu.Unlock()
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	c.addr = addr
	c.faults = &b.registry.faults
	b.mu.Lock()
	defer b.mu.Unlock()
	if existing, ok := b.conns[addr]; ok {
		c.Close()
		return existing, nil
	}
	b.conns[addr] = c
	return c, nil
}

func (b *Balancer) drop(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.conns[addr]; ok {
		c.Close()
		delete(b.conns, addr)
	}
}

// pick returns replica addresses in round-robin starting order.
func (b *Balancer) pick() []string {
	addrs := b.registry.Lookup(b.service)
	if len(addrs) == 0 {
		return nil
	}
	b.mu.Lock()
	start := b.next % len(addrs)
	b.next++
	b.mu.Unlock()
	ordered := make([]string, 0, len(addrs))
	ordered = append(ordered, addrs[start:]...)
	ordered = append(ordered, addrs[:start]...)
	return ordered
}

// retryable reports whether the error justifies trying another replica.
func retryable(err error) bool {
	return errors.Is(err, ErrConnClosed)
}

// ClassifyRPC maps transport errors to resilience classes: a closed
// connection or an empty registry is transient (the request never
// reached a handler), a remote application error is terminal (the
// dependency answered), and a canceled call is ambiguous (the handler
// may have run). It is the Classify function for every RPC-edge policy.
func ClassifyRPC(err error) resilience.Class {
	switch {
	case err == nil:
		return resilience.Terminal
	case errors.Is(err, ErrConnClosed), errors.Is(err, ErrNoEndpoints):
		return resilience.Transient
	case errors.Is(err, ErrCanceled):
		return resilience.Ambiguous
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return resilience.Terminal
	}
	return resilience.Classify(err)
}

// Call performs a unary RPC against any live replica, failing over on
// connection-level errors. Application errors are returned as-is. With a
// policy installed (Use), the whole replica sweep runs under its retry
// budget, backoff, deadline and breaker.
func (b *Balancer) Call(ctx context.Context, method string, arg, reply any) error {
	if ro := b.registry.obs.Load(); ro != nil {
		ro.calls.Inc()
		start := ro.clock.Now()
		defer func() { ro.roundtrip.ObserveDuration(ro.clock.Now().Sub(start)) }()
	}
	if p := b.policy.Load(); p != nil {
		return p.Do(ctx, func(ctx context.Context) error {
			return b.call(ctx, method, arg, reply)
		})
	}
	return b.call(ctx, method, arg, reply)
}

func (b *Balancer) call(ctx context.Context, method string, arg, reply any) error {
	addrs := b.pick()
	if len(addrs) == 0 {
		return ErrNoEndpoints
	}
	var lastErr error
	for _, addr := range addrs {
		c, err := b.conn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		err = c.Call(ctx, method, arg, reply)
		if err == nil || !retryable(err) {
			return err
		}
		b.drop(addr)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoEndpoints
	}
	return lastErr
}

// Stream opens a server stream against any live replica. With a policy
// installed, establishing the stream runs under it (the established
// stream's Recv loop is the caller's to guard).
func (b *Balancer) Stream(ctx context.Context, method string, arg any) (*StreamReader, error) {
	if p := b.policy.Load(); p != nil {
		var sr *StreamReader
		// The stream deliberately binds to the caller's ctx, not the
		// policy's per-Do context: the policy guards establishment, but
		// the stream must outlive the Do call.
		err := p.Do(ctx, func(context.Context) error {
			var err error
			sr, err = b.stream(ctx, method, arg)
			return err
		})
		if err != nil {
			return nil, err
		}
		return sr, nil
	}
	return b.stream(ctx, method, arg)
}

func (b *Balancer) stream(ctx context.Context, method string, arg any) (*StreamReader, error) {
	addrs := b.pick()
	if len(addrs) == 0 {
		return nil, ErrNoEndpoints
	}
	var lastErr error
	for _, addr := range addrs {
		c, err := b.conn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		sr, err := c.Stream(ctx, method, arg)
		if err == nil {
			return sr, nil
		}
		if !retryable(err) {
			return nil, err
		}
		b.drop(addr)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoEndpoints
	}
	return nil, lastErr
}

// Close releases all cached connections.
func (b *Balancer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for addr, c := range b.conns {
		c.Close()
		delete(b.conns, addr)
	}
}
