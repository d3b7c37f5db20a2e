// Package nfs models the dynamically provisioned shared NFS volumes FfDL
// mounts into both the helper pod and the learner pods of a job. The
// paper uses the shared volume as (1) the secure channel through which
// the controller observes learner exit statuses and output (§3.8), and
// (2) notes in its lessons learned (§4) that per-job NFS provisioning was
// "slow and often failed under high load" — which this package reproduces
// through a provisioner with load-dependent latency and failure.
package nfs

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// Errors.
var (
	// ErrNotFound reports a read of a missing file.
	ErrNotFound = errors.New("nfs: file not found")
	// ErrProvisionFailed reports a volume provisioning failure (the §4
	// high-load failure mode).
	ErrProvisionFailed = errors.New("nfs: volume provisioning failed")
	// ErrReleased reports use of a released volume.
	ErrReleased = errors.New("nfs: volume released")
)

// Volume is a shared in-memory filesystem mounted by all pods of one DL
// job.
//
// Reads share: ReadFile hands out the stored bytes themselves, capped at
// their length, and no write ever changes bytes a view covers. WriteFile
// replaces a file with a fresh copy, and AppendFile writes only past the
// end of the file, so past the length of every view handed out before
// it. A view therefore reads the same for as long as its holder keeps
// it, and must not be written.
type Volume struct {
	name string

	mu       sync.Mutex
	files    map[string][]byte
	released bool
	watchers []chan struct{}
}

// Name returns the volume's identifier.
func (v *Volume) Name() string { return v.name }

// WriteFile atomically replaces a file's contents with a copy of data.
// It is how learners expose exit codes and status to the controller.
func (v *Volume) WriteFile(path string, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.released {
		return ErrReleased
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	v.files[path] = cp
	v.notifyLocked()
	return nil
}

// AppendFile appends to a file, creating it if needed; used for learner
// stdout/stderr logs that the log-collector tails. The append writes
// past the file's length, which caps every view ReadFile returned, so
// no earlier reader sees it.
func (v *Volume) AppendFile(path string, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.released {
		return ErrReleased
	}
	v.files[path] = append(v.files[path], data...)
	v.notifyLocked()
	return nil
}

// notifyLocked leaves each watcher one pending wake-up; a watcher that
// already holds one needs no second.
func (v *Volume) notifyLocked() {
	for _, ch := range v.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// ReadFile returns a file's contents as a read-only view of the stored
// bytes, capped at their length: no copy is made, and later writes leave
// the view as it is. The caller must not write to it.
func (v *Volume) ReadFile(path string) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.released {
		return nil, ErrReleased
	}
	data, ok := v.files[path]
	if !ok {
		// The sentinel itself: the helper's scan misses on every volume
		// write, and a wrapped error would allocate each time.
		return nil, ErrNotFound
	}
	return data[:len(data):len(data)], nil
}

// Exists reports whether a file exists.
func (v *Volume) Exists(path string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.files[path]
	return ok && !v.released
}

// Watch returns a channel that wakes its reader after writes. The
// helper's controller wakes on it to mirror learner status and exits,
// and gang learners wake on it to rendezvous. A watcher holds at most
// one pending wake-up, and it carries nothing: a write that finds one
// pending adds none, so a consumer rescans after every receive, and
// that rescan sees every write made before it. Delivery never blocks a
// writer. The channel closes on Unwatch or when the volume is released;
// on an already released volume it is returned closed.
func (v *Volume) Watch() <-chan struct{} {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan struct{}, 1)
	if v.released {
		close(ch)
		return ch
	}
	v.watchers = append(v.watchers, ch)
	return ch
}

// Unwatch unsubscribes and closes a channel Watch returned. It is a
// no-op for a channel already closed by Unwatch or Release.
func (v *Volume) Unwatch(ch <-chan struct{}) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, w := range v.watchers {
		if w == ch {
			close(w)
			v.watchers = slices.Delete(v.watchers, i, i+1)
			return
		}
	}
}

// Provisioner creates and releases per-job volumes with load-dependent
// latency and failure probability.
type Provisioner struct {
	clock sim.Clock
	rng   *sim.RNG

	mu     sync.Mutex
	nextID int

	// BaseLatency is the unloaded provisioning time; each concurrently
	// provisioning request adds LoadPenalty. FailureThreshold is the
	// concurrent-provision count beyond which each extra request adds
	// FailureSlope probability of failure.
	BaseLatency      time.Duration
	LoadPenalty      time.Duration
	FailureThreshold int
	FailureSlope     float64

	inflight int
}

// NewProvisioner returns a Provisioner with the defaults observed in the
// paper's deployment: seconds-scale provisioning that degrades and starts
// failing under concurrent load.
func NewProvisioner(clock sim.Clock, rng *sim.RNG) *Provisioner {
	return &Provisioner{
		clock:            clock,
		rng:              rng,
		BaseLatency:      2 * time.Second,
		LoadPenalty:      500 * time.Millisecond,
		FailureThreshold: 20,
		FailureSlope:     0.02,
	}
}

// Provision creates a volume for a job, subject to the load model.
func (p *Provisioner) Provision(jobID string) (*Volume, error) {
	p.mu.Lock()
	p.inflight++
	inflight := p.inflight
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
	}()

	latency := p.BaseLatency + time.Duration(inflight-1)*p.LoadPenalty
	p.clock.Sleep(latency)

	if over := inflight - p.FailureThreshold; over > 0 {
		pFail := float64(over) * p.FailureSlope
		if pFail > 0.9 {
			pFail = 0.9
		}
		failed := func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.rng.Bernoulli(pFail)
		}()
		if failed {
			return nil, fmt.Errorf("%w: %d concurrent provisions", ErrProvisionFailed, inflight)
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	return &Volume{
		name:  fmt.Sprintf("pvc-%s-%04d", jobID, p.nextID),
		files: make(map[string][]byte),
	}, nil
}

// Release frees a volume; subsequent operations on it fail.
func (p *Provisioner) Release(v *Volume) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.released = true
	for _, ch := range v.watchers {
		close(ch)
	}
	v.watchers = nil
	v.mu.Unlock()
}
