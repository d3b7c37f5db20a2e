package tenant

import (
	"fmt"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

// Job is the dispatcher's view of one submitted job: identity, owner,
// the gang shape admission accounts in, and the submission time that
// anchors its FCFS position (a requeued victim keeps it, which puts it
// back at the head). Phase is where the job stood when the store was
// read; Preempted is its durable marker: the dispatcher halted it to
// make room and owes it a resume. A queued victim dispatches through
// Resume and never preempts (no preemption cycles).
type Job struct {
	ID        string
	User      string
	Gang      *sched.Gang
	Submitted time.Time
	Phase     Phase
	Preempted bool
}

// Phase is the platform's status machine mapped down to what the
// dispatcher cares about.
type Phase int

// Dispatcher-visible job phases.
const (
	// PhaseQueued: persisted, awaiting admission.
	PhaseQueued Phase = iota + 1
	// PhaseRunning: handed to the LCM and neither halted nor terminal.
	PhaseRunning
	// PhaseHalted: checkpointed and stopped; victims wait here.
	PhaseHalted
	// PhaseTerminal: completed, failed or canceled.
	PhaseTerminal
)

// Backend is what the dispatcher drives, implemented by the core
// platform. Every method must be safe to repeat for a job: the
// dispatcher re-issues an action it cannot prove happened.
type Backend interface {
	// Dispatch hands an admitted queued job to the LCM (QUEUED →
	// PENDING). An error means the job is no longer dispatchable
	// (vanished or already moved on) and it is dropped from the queue.
	Dispatch(jobID string) error
	// Preempt marks a running job preempted in the store, then
	// checkpoints and halts it through the platform's halt path. An
	// error means the store did not take the mark and nothing went out;
	// a halt that fails later arms the dispatcher's Retry.
	Preempt(jobID string) error
	// Resume clears the mark and restarts a halted victim from its
	// latest checkpoint; it errors as Preempt does.
	Resume(jobID string) error
	// Fail permanently rejects a queued job.
	Fail(jobID, reason string) error
	// Phase reports where a job currently is.
	Phase(jobID string) (Phase, error)
	// PendingWork lists, from the durable store, the QUEUED submissions
	// and every other job that is not terminal, each with its Phase and
	// Preempted marker. It is the resync's source of truth. A nil active
	// list means the store did not answer.
	PendingWork() (queued []Job, active []Job)
}

// Stats counts dispatcher activity.
type Stats struct {
	// Wakes counts loop wake-ups; Passes, dispatch passes run.
	Wakes  uint64
	Passes uint64
	// Dispatched counts first dispatches; Resumed, victims resumed.
	Dispatched uint64
	Resumed    uint64
	// Preempted counts victims halted; Requeued, victims requeued.
	Preempted uint64
	Requeued  uint64
	// Resyncs counts Resync passes: boot, closed subscription, retry.
	Resyncs uint64
	// Failed counts queued jobs permanently rejected at dispatch.
	Failed uint64
}

// Config parameterizes a Dispatcher.
type Config struct {
	Clock     sim.Clock
	Backend   Backend
	Registry  *Registry
	Admission *sched.Admission
	// ResyncInterval is how long after a call the durable stores or the
	// LCM did not answer the one retry resync runs. It bounds recovery
	// from a failed call, never dispatch latency. Default 250ms.
	ResyncInterval time.Duration
	// DisablePreemption keeps starved in-quota requests waiting instead
	// of checkpointing victims (ablation; production FfDL preempts).
	DisablePreemption bool
	// Obs, when non-nil, records each dispatch's queue delay into the
	// "tenant.queue_delay" histogram.
	Obs *obs.Registry
}

// queuedEntry is the dispatcher's per-job queue state; enqueued is when
// it (re-)entered the queue, for a victim's delay accounting.
type queuedEntry struct {
	job      Job
	enqueued time.Time
}

// Dispatcher is the event-driven admission queue. One instance runs per
// platform; all state it cannot rebuild from the durable stores is
// advisory. See the package comment for the wake/resync contract.
type Dispatcher struct {
	cfg   Config
	clock sim.Clock
	adm   *sched.Admission

	wake  chan struct{}
	retry chan struct{} // Retry's request to arm the one-shot resync
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	mu      sync.Mutex
	queue   sched.Queue
	entries map[string]*queuedEntry
	stats   Stats

	obsDelay *obs.Histogram // nil without Config.Obs
}

// NewDispatcher builds a dispatcher; call Start to run it.
func NewDispatcher(cfg Config) *Dispatcher {
	if cfg.Clock == nil {
		cfg.Clock = sim.NewRealClock()
	}
	if cfg.ResyncInterval <= 0 {
		cfg.ResyncInterval = 250 * time.Millisecond
	}
	d := &Dispatcher{
		cfg:     cfg,
		clock:   cfg.Clock,
		adm:     cfg.Admission,
		wake:    make(chan struct{}, 1),
		retry:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
		entries: make(map[string]*queuedEntry),
	}
	if cfg.Obs != nil {
		d.obsDelay = cfg.Obs.Histogram("tenant.queue_delay")
	}
	return d
}

// Start recovers quotas and queued work from the durable stores and
// runs the dispatch loop, which holds a timer only while a Retry waits.
func (d *Dispatcher) Start() {
	d.Resync()

	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		var timer <-chan time.Time
		for {
			select {
			case <-d.stop:
				return
			case <-d.wake:
				d.mu.Lock()
				d.stats.Wakes++
				d.mu.Unlock()
				d.dispatch()
			case <-d.retry:
				if timer == nil {
					timer = d.clock.After(d.cfg.ResyncInterval)
				}
			case <-timer:
				timer = nil
				d.Resync()
			}
		}
	}()
}

// Stop shuts the dispatcher down.
func (d *Dispatcher) Stop() {
	d.once.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// Wake nudges the dispatch loop without carrying an event.
func (d *Dispatcher) Wake() { signal(d.wake) }

// Retry arms the one-shot retry after a call the durable stores or the
// LCM did not answer: one Resync runs ResyncInterval later, however
// many calls fail before it.
func (d *Dispatcher) Retry() { signal(d.retry) }

// signal sends on a one-slot channel unless a send is already pending.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// NoteQueued records a freshly persisted QUEUED submission and wakes
// the loop. Duplicate notes for a known job are no-ops.
func (d *Dispatcher) NoteQueued(j Job) {
	d.mu.Lock()
	d.enqueueLocked(j)
	d.mu.Unlock()
	d.Wake()
}

// NoteTerminal releases a finished job's footprint, drops it from the
// queue and wakes the loop: a completion is when capacity frees. It
// takes mu, as a pass that read the job HALTED and a resync that listed
// it running admit it under mu, so neither admission lands after it.
func (d *Dispatcher) NoteTerminal(jobID string) {
	d.mu.Lock()
	d.adm.Release(jobID)
	d.dropLocked(jobID)
	d.mu.Unlock()
	d.Wake()
}

// NoteHalted releases a halted job's footprint (its GPUs are free while
// it sits on its checkpoint) and, if the store marks it preempted,
// requeues the victim under its original arrival time — the FCFS order
// restores it to the head of the queue.
func (d *Dispatcher) NoteHalted(j Job) {
	d.mu.Lock()
	d.adm.Release(j.ID)
	if j.Preempted && d.enqueueLocked(j) {
		d.stats.Requeued++
	}
	d.mu.Unlock()
	d.Wake()
}

// NoteResumed restores the footprint of a job that resumed from its
// checkpoint, which never refuses: a user's resume holds its GPUs
// whatever the budget says. It wakes the loop, as a head Resuming kept
// from preempting the job may do so now. A job whose read failed
// carries no gang, and one the store marks preempted owes a halt: the
// retry's resync restores the one and halts the other.
func (d *Dispatcher) NoteResumed(j Job) {
	switch {
	case j.Preempted:
		d.Retry()
	case j.Gang != nil:
		d.adm.Restore(j.Gang)
		d.Wake()
	}
}

// SetQuota installs a tenant's quota written through the API and wakes
// the loop: a raised quota may make a starved head in-quota.
func (d *Dispatcher) SetQuota(rec Record) {
	d.adm.SetQuota(rec.Quota())
	d.Wake()
}

// SetClusterGPUs updates the admission budget to the cluster's capacity
// and wakes the loop: added capacity may admit the head.
func (d *Dispatcher) SetClusterGPUs(n int) {
	d.adm.SetClusterGPUs(n)
	d.Wake()
}

// enqueueLocked adds a job to the queue unless it is already there, and
// reports whether it did.
func (d *Dispatcher) enqueueLocked(j Job) bool {
	if j.Gang == nil || j.ID == "" {
		return false
	}
	if _, ok := d.entries[j.ID]; ok {
		return false
	}
	d.entries[j.ID] = &queuedEntry{job: j, enqueued: d.clock.Now()}
	d.queue.Push(j.Gang, j.Submitted)
	return true
}

// dropLocked removes a job from the queue.
func (d *Dispatcher) dropLocked(jobID string) {
	if _, ok := d.entries[jobID]; !ok {
		return
	}
	delete(d.entries, jobID)
	d.queue.Remove(jobID)
}

// Position returns a queued job's 1-based dispatch position.
func (d *Dispatcher) Position(jobID string) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, it := range d.queue.Items() {
		if it.Gang.JobID == jobID {
			return i + 1, true
		}
	}
	return 0, false
}

// QueueDepth returns how many jobs await dispatch.
func (d *Dispatcher) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queue.Len()
}

// Stats returns a copy of the activity counters.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Resync is the level-triggered recovery pass: re-read quotas, list the
// jobs that are not terminal, reconcile admission with that listing,
// then run a pass. It runs at Start, after the status subscription
// closed, and on the retry; a call in it that fails arms the retry
// again. The listing is read and applied under mu, so a terminal or
// halted note that lands meanwhile is never undone.
func (d *Dispatcher) Resync() {
	if d.cfg.Registry != nil && d.cfg.Registry.Seed(d.adm) != nil {
		d.Retry()
	}
	d.mu.Lock()
	d.stats.Resyncs++
	queued, active := d.cfg.Backend.PendingWork()
	for _, j := range queued {
		d.enqueueLocked(j)
	}
	if active == nil {
		d.Retry() // the store did not answer: release nothing
	} else {
		d.reconcileLocked(active)
	}
	d.mu.Unlock()
	d.dispatch()
}

// reconcileLocked makes admission match the listed jobs: a halted victim
// is requeued; a running job holds its footprint, unless it is marked
// preempted: then its halt has not landed and is issued again.
// A footprint is released only when its job is not listed, that is
// terminal or gone; a HALTED job keeps its own, as a victim admitted for
// resume stays HALTED until its resume lands.
func (d *Dispatcher) reconcileLocked(active []Job) {
	listed := make(map[string]bool, len(active))
	for _, j := range active {
		listed[j.ID] = true
		switch {
		case j.Phase == PhaseHalted:
			if j.Preempted && d.enqueueLocked(j) {
				d.stats.Requeued++
			}
		case !j.Preempted:
			d.adm.Restore(j.Gang)
		default:
			if d.cfg.Backend.Preempt(j.ID) != nil {
				d.Retry()
			}
		}
	}
	for _, id := range d.adm.Held() {
		if !listed[id] {
			d.adm.Release(id)
		}
	}
}

// dispatch runs one pass: admit and hand off jobs from the head of the
// queue, in strict FCFS order, preempting for starved in-quota heads.
// It stops at the first head it can neither admit nor unblock.
func (d *Dispatcher) dispatch() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Passes++
	for {
		head := d.queue.Peek()
		if head == nil {
			return
		}
		id := head.Gang.JobID
		entry := d.entries[id]
		if entry == nil {
			// Queue/entry maps drifted (should not happen); heal.
			d.queue.Remove(id)
			continue
		}
		if entry.job.Preempted {
			if !d.dispatchVictimLocked(entry) {
				return
			}
			continue
		}
		if !d.dispatchQueuedLocked(entry) {
			return
		}
	}
}

// dispatchQueuedLocked tries to admit and dispatch a fresh submission
// at the head of the queue; it reports whether the pass should
// continue to the next head.
func (d *Dispatcher) dispatchQueuedLocked(e *queuedEntry) bool {
	id := e.job.ID
	dec, _ := d.adm.Admit(e.job.Gang)
	if dec != sched.Reject {
		if err := d.cfg.Backend.Dispatch(id); err != nil {
			// No longer dispatchable (vanished, terminal, or a stale
			// echo): footprint stays if the job runs — the bus events
			// reconcile — but the queue moves on. The retry re-enqueues
			// a job the store left QUEUED or whose phase it hid.
			ph, perr := d.cfg.Backend.Phase(id)
			if perr == nil && (ph == PhaseTerminal || ph == PhaseQueued) {
				d.adm.Release(id)
			}
			if perr != nil || ph == PhaseQueued {
				d.Retry()
			}
			d.dropLocked(id)
			return true
		}
		d.recordDispatchLocked(e, false)
		d.dropLocked(id)
		d.stats.Dispatched++
		return true
	}
	// Rejected. Its quota record disappeared since submit: fail it.
	if _, ok := d.adm.Quota(e.job.User); !ok {
		if d.cfg.Backend.Fail(id, "no quota for user "+e.job.User) != nil {
			d.Retry()
		}
		d.dropLocked(id)
		d.stats.Failed++
		return true
	}
	if d.failIfInfeasibleLocked(e) {
		return true
	}
	// Cluster budget exhausted. A starved in-quota head preempts
	// (§3.6: free users under load, over-quota jobs when the quota
	// owner returns) and is admitted on the next iteration; over-quota
	// heads wait for capacity.
	return !d.cfg.DisablePreemption && d.inQuotaLocked(e.job) && d.preemptForLocked(e.job)
}

// dispatchVictimLocked tries to resume a preempted victim at the head
// of the queue; it reports whether the pass should continue.
func (d *Dispatcher) dispatchVictimLocked(e *queuedEntry) bool {
	id := e.job.ID
	switch ph, err := d.cfg.Backend.Phase(id); {
	case err != nil:
		d.Retry() // the retry's resync requeues it from PendingWork
		fallthrough
	case ph == PhaseTerminal, ph == PhaseRunning:
		// Gone, or resumed by the user directly: nothing to dispatch.
		d.dropLocked(id)
		return true
	}
	if dec, _ := d.adm.Admit(e.job.Gang); dec == sched.Reject {
		// Capacity may have shrunk below the victim while it sat on its
		// checkpoint. Victims never preempt (no cycles): the head waits.
		return d.failIfInfeasibleLocked(e)
	}
	if err := d.cfg.Backend.Resume(id); err != nil {
		// The store did not take the marker clear, so no resume went
		// out: the footprint is released and the retry's pass resumes.
		d.adm.Release(id)
		d.Retry()
		return false
	}
	d.adm.Resuming(id)
	d.recordDispatchLocked(e, true)
	d.dropLocked(id)
	d.stats.Resumed++
	return true
}

// failIfInfeasibleLocked fails and drops a head whose GPU demand exceeds
// the cluster's capacity, which at the head would wedge the FCFS queue
// forever, and reports whether it did. An unlimited (0) or known-zero
// (< 0) capacity fails no job: capacity may still appear.
func (d *Dispatcher) failIfInfeasibleLocked(e *queuedEntry) bool {
	budget := d.adm.ClusterCap()
	need := e.job.Gang.GPUDemand()
	if budget <= 0 || need <= budget {
		return false
	}
	if d.cfg.Backend.Fail(e.job.ID, fmt.Sprintf("job needs %d GPUs but the cluster has %d", need, budget)) != nil {
		d.Retry()
	}
	d.dropLocked(e.job.ID)
	d.stats.Failed++
	return true
}

// inQuotaLocked reports whether the gang fits inside its user's
// entitlement given current usage — the §3.6 test for who may preempt.
func (d *Dispatcher) inQuotaLocked(j Job) bool {
	q, ok := d.adm.Quota(j.User)
	if !ok {
		return false
	}
	return d.adm.Usage(j.User)+j.Gang.GPUDemand() <= q.GPUs
}

// preemptForLocked checkpoints enough victims to admit j. Preempt marks
// each in the store, so its HALTED transition requeues it, and only a
// marked victim is evicted: one whose marker the store did not take
// keeps its footprint, and the pass waits for the retry. Reports
// whether every victim was marked.
func (d *Dispatcher) preemptForLocked(j Job) bool {
	need := j.Gang.GPUDemand()
	shortfall := need
	if budget := d.adm.ClusterCap(); budget > 0 {
		if free := budget - d.adm.AdmittedGPUs(); free > 0 {
			shortfall = need - free
		}
	}
	if shortfall <= 0 {
		return false
	}
	victims := d.adm.PreemptFor(j.User, shortfall)
	marked := len(victims) > 0
	for _, v := range victims {
		if d.cfg.Backend.Preempt(v) != nil {
			d.Retry()
			marked = false
			continue
		}
		d.adm.Evict(v)
		d.stats.Preempted++
	}
	return marked
}

// recordDispatchLocked observes one dispatch's queue delay: from
// submission for a first dispatch, from the requeue for a victim.
func (d *Dispatcher) recordDispatchLocked(e *queuedEntry, resumed bool) {
	queued := d.clock.Now().Sub(e.job.Submitted)
	if resumed {
		queued = d.clock.Now().Sub(e.enqueued)
	}
	d.obsDelay.ObserveDuration(queued)
}
