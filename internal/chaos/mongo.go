package chaos

import (
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/sim"
)

// MongoInjector drives document-store chaos against a mongo.DB: primary
// failover windows, in which erroring ops return mongo.ErrUnavailable
// until the window heals. It is the mongo counterpart of
// Injector/EtcdInjector: the platform's resilience layer (and the core
// API's degraded mode) are what is under attack.
type MongoInjector struct {
	db    *mongo.DB
	clock sim.Clock

	// FailoverMTBF is the mean time between primary failover windows;
	// zero disables them.
	FailoverMTBF time.Duration
	// FailoverDuration is the mean length of one unavailability window.
	// Defaults to 100ms.
	FailoverDuration time.Duration

	mu        sync.Mutex
	rng       *sim.RNG
	failovers int64
	stopCh    chan struct{}
	wg        sync.WaitGroup
	stopOnce  sync.Once
	startOnce sync.Once
}

// NewMongoInjector returns an injector bound to a database, pacing its
// failover windows on the given clock (nil = wall clock) and drawing from rng.
func NewMongoInjector(db *mongo.DB, clock sim.Clock, rng *sim.RNG) *MongoInjector {
	if clock == nil {
		clock = sim.NewRealClock()
	}
	return &MongoInjector{
		db:               db,
		clock:            clock,
		rng:              rng,
		FailoverDuration: 100 * time.Millisecond,
		stopCh:           make(chan struct{}),
	}
}

// MongoStats counts injected faults.
type MongoStats struct {
	Failovers int64 `json:"failovers"`
}

// Stats reports cumulative injected-fault counts.
func (in *MongoInjector) Stats() MongoStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return MongoStats{Failovers: in.failovers}
}

// Start launches the failover loop.
func (in *MongoInjector) Start() {
	in.startOnce.Do(func() {
		if in.FailoverMTBF > 0 {
			in.wg.Add(1)
			go func() {
				defer in.wg.Done()
				in.failoverLoop()
			}()
		}
	})
}

// Stop halts injection, healing any open failover window.
func (in *MongoInjector) Stop() {
	in.stopOnce.Do(func() { close(in.stopCh) })
	in.wg.Wait()
	in.db.SetUnavailable(false)
}

// draw returns an exponential wait with the given mean, serialized on
// the injector's mutex (the RNG is not concurrency-safe).
func (in *MongoInjector) draw(mean time.Duration) time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return time.Duration(in.rng.Exp(float64(mean)))
}

// sleep waits d on the injector clock; false means the injector stopped.
func (in *MongoInjector) sleep(d time.Duration) bool {
	select {
	case <-in.stopCh:
		return false
	case <-in.clock.After(d):
		return true
	}
}

// failoverLoop cycles primary unavailability windows.
func (in *MongoInjector) failoverLoop() {
	for {
		if !in.sleep(in.draw(in.FailoverMTBF)) {
			return
		}
		in.db.SetUnavailable(true)
		in.mu.Lock()
		in.failovers++
		in.mu.Unlock()
		healed := in.sleep(in.draw(in.FailoverDuration))
		in.db.SetUnavailable(false)
		if !healed {
			return
		}
	}
}
