package rpc

import (
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// LinkFault describes the fault mix injected on one client→replica link.
type LinkFault struct {
	// Drop is the probability a request frame is silently discarded. The
	// call hangs until the caller's context (or a resilience.Policy
	// deadline) rescues it — exactly how a lost packet presents.
	Drop float64
	// Dup is the probability a request frame is written twice. The server
	// executes the method twice; the client ignores the late duplicate
	// response, modeling at-least-once delivery.
	Dup float64
	// Delay is added latency before the request frame is written, slept
	// on the injector's clock.
	Delay time.Duration
}

// Faults injects per-link faults into the client side of the RPC
// transport, modeled on etcd's link cuts: chaos code addresses a
// link by replica address and dials in drop/delay/duplicate mixes
// without touching the server. Install with Registry.SetFaults; every
// Balancer connection dialed through that registry applies the link's
// current fault mix on each request frame.
type Faults struct {
	clock sim.Clock

	mu      sync.Mutex
	rng     *sim.RNG
	links   map[string]LinkFault
	dropped int64
	duped   int64
	delayed int64
}

// NewFaults returns a fault injector drawing from the given seed. A nil
// clock delays on the wall clock.
func NewFaults(clock sim.Clock, seed int64) *Faults {
	if clock == nil {
		clock = sim.NewRealClock()
	}
	return &Faults{clock: clock, rng: sim.NewRNG(seed), links: make(map[string]LinkFault)}
}

// SetLink installs (or replaces) the fault mix for one replica address.
// A zero LinkFault heals the link.
func (f *Faults) SetLink(addr string, lf LinkFault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lf == (LinkFault{}) {
		delete(f.links, addr)
		return
	}
	f.links[addr] = lf
}

// Heal clears every link fault.
func (f *Faults) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links = make(map[string]LinkFault)
}

// FaultStats counts injected faults.
type FaultStats struct {
	Dropped int64 `json:"dropped"`
	Duped   int64 `json:"duped"`
	Delayed int64 `json:"delayed"`
}

// Stats returns cumulative injected-fault counts.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FaultStats{Dropped: f.dropped, Duped: f.duped, Delayed: f.delayed}
}

// decide draws the fault outcome for one request frame on addr.
func (f *Faults) decide(addr string) (drop, dup bool, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	lf, ok := f.links[addr]
	if !ok {
		return false, false, 0
	}
	if lf.Drop > 0 && f.rng.Bernoulli(lf.Drop) {
		f.dropped++
		return true, false, lf.Delay
	}
	if lf.Dup > 0 && f.rng.Bernoulli(lf.Dup) {
		f.duped = f.duped + 1
		dup = true
	}
	if lf.Delay > 0 {
		f.delayed++
	}
	return false, dup, lf.Delay
}
