package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/rpc"
)

// replica is the RPC-server lifecycle an API or LCM instance shares: it
// serves the instance's routes under one service name in the Registry,
// and models a crash as dropping every connection and deregistering,
// then coming back on a fresh address after a restart delay (Table 3).
//
// mu guards srv/addr and serializes every transition: a crash, the
// restart it schedules and the platform's stop. A crash while the
// replica is already down is a no-op — its pending restart stands — so
// a replica never runs two servers, and a restart that finds the
// platform stopping stays down.
type replica struct {
	p       *Platform
	index   int
	kind    string // "api" or "lcm": error text and the <kind>.crashes / <kind>.restarts counters
	service string
	delay   time.Duration
	routes  func(*rpc.Server)

	mu   sync.Mutex
	srv  *rpc.Server
	addr string
}

// start brings the replica up for the first time.
func (r *replica) start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.listenLocked()
}

func (r *replica) listenLocked() error {
	srv := rpc.NewServer()
	r.routes(srv)
	addr, err := srv.Listen()
	if err != nil {
		return fmt.Errorf("core: %s replica %d: %w", r.kind, r.index, err)
	}
	r.srv, r.addr = srv, addr
	r.p.Registry.Add(r.service, addr)
	return nil
}

// downLocked deregisters and closes the server; false if already down.
func (r *replica) downLocked() bool {
	if r.srv == nil {
		return false
	}
	r.p.Registry.Remove(r.service, r.addr)
	r.srv.Close()
	r.srv, r.addr = nil, ""
	return true
}

// crashAndRestart models a replica crash (Table 3: API 3-5s, LCM 4-6s).
func (r *replica) crashAndRestart() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.downLocked() {
		return
	}
	r.p.Metrics.Inc(r.kind + ".crashes")
	r.p.wg.Add(1)
	go func() {
		defer r.p.wg.Done()
		r.p.clock.Sleep(r.delay)
		r.mu.Lock()
		defer r.mu.Unlock()
		select {
		case <-r.p.stopCh:
			return
		default:
		}
		if err := r.listenLocked(); err == nil {
			r.p.Metrics.Inc(r.kind + ".restarts")
		}
	}()
}

func (r *replica) stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.downLocked()
}
