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
// the gang shape admission and preemption account in, and the original
// submission time that anchors its FCFS position (queue delay is always
// measured from Submitted, and a preempted victim re-enters the queue
// under its original arrival — which is what puts it back at the head).
type Job struct {
	ID        string
	User      string
	Gang      *sched.Gang
	Submitted time.Time
}

// Phase is where a job currently is in its lifecycle, as far as the
// dispatcher cares: the platform maps its richer status machine down to
// these four.
type Phase int

// Dispatcher-visible job phases.
const (
	// PhaseQueued: persisted, awaiting admission.
	PhaseQueued Phase = iota + 1
	// PhaseRunning: handed to the LCM and neither halted nor terminal.
	PhaseRunning
	// PhaseHalted: checkpointed and stopped; GPUs are free. Preempted
	// victims wait here until the dispatcher resumes them.
	PhaseHalted
	// PhaseTerminal: completed, failed or canceled.
	PhaseTerminal
)

// Backend is what the dispatcher drives — implemented by the core
// platform. All methods must be safe to call repeatedly for the same
// job: the dispatcher is level-triggered and will re-issue an action it
// cannot prove happened.
type Backend interface {
	// Dispatch hands an admitted queued job to the LCM (QUEUED →
	// PENDING). An error means the job is no longer dispatchable
	// (vanished or already moved on) and it is dropped from the queue.
	Dispatch(jobID string) error
	// Preempt checkpoints and halts a running job through the
	// platform's existing halt path (checkpoint signal to learners).
	Preempt(jobID string) error
	// Resume restarts a halted victim from its latest checkpoint.
	Resume(jobID string) error
	// Fail permanently rejects a queued job (e.g. its quota record was
	// deleted between submit and dispatch).
	Fail(jobID, reason string) error
	// Lookup fetches a job's dispatcher view from the durable store.
	Lookup(jobID string) (Job, error)
	// Phase reports where a job currently is.
	Phase(jobID string) (Phase, error)
	// PendingWork lists, from the durable store, jobs awaiting the
	// dispatcher: QUEUED submissions and preempted-but-halted victims.
	// This is the resync source of truth.
	PendingWork() (queued []Job, preempted []Job)
}

// Stats counts dispatcher activity.
type Stats struct {
	// Wakes is the number of times the loop woke for any reason;
	// Passes counts dispatch passes actually run.
	Wakes  uint64
	Passes uint64
	// Dispatched counts jobs handed to the LCM (first dispatch only);
	// Resumed counts preemption victims restarted from checkpoint.
	Dispatched uint64
	Resumed    uint64
	// Preempted counts victims halted; Requeued counts victims that
	// re-entered the queue after their checkpoint landed.
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
	// "tenant.queue_delay" histogram. Nil leaves dispatch accounting
	// uninstrumented at zero cost.
	Obs *obs.Registry
}

// queuedEntry is the dispatcher's per-job queue state.
type queuedEntry struct {
	job Job
	// victim marks a preempted job waiting to resume from checkpoint
	// rather than a fresh submission: it dispatches through Resume and
	// never triggers further preemption (no preemption cycles).
	victim bool
	// enqueued is when the entry (re-)entered the queue, for delay
	// accounting; FCFS position still keys off job.Submitted.
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
	// victims maps preempted jobs awaiting their HALTED transition to
	// their durable view, so the requeue needs no store read.
	victims map[string]Job
	// resumes holds resumed jobs whose lookup failed, owed a footprint.
	resumes map[string]struct{}
	stats   Stats

	// obsDelay is the registry queue-delay histogram; nil without
	// Config.Obs.
	obsDelay *obs.Histogram
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
		victims: make(map[string]Job),
		resumes: make(map[string]struct{}),
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
				d.noteWake()
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

func (d *Dispatcher) noteWake() {
	d.mu.Lock()
	d.stats.Wakes++
	d.mu.Unlock()
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
	d.enqueueLocked(j, false)
	d.mu.Unlock()
	d.Wake()
}

// NoteTerminal releases a finished job's admission footprint (satisfying
// the release-on-every-terminal-transition contract for all writers the
// status bus observes), drops it from the queue if it was still waiting,
// and wakes the loop — a completion is exactly when capacity frees.
func (d *Dispatcher) NoteTerminal(jobID string) {
	// Under mu: a pass that read the job HALTED admits it under mu too,
	// so that admission cannot land after this release.
	d.mu.Lock()
	d.adm.Release(jobID)
	d.dropLocked(jobID)
	delete(d.victims, jobID)
	delete(d.resumes, jobID)
	d.mu.Unlock()
	d.Wake()
}

// NoteHalted releases a halted job's footprint (its GPUs are free while
// it sits on its checkpoint) and, if the halt was a preemption the
// dispatcher initiated, requeues the victim under its original arrival
// time — the FCFS order restores it to the head of the queue.
func (d *Dispatcher) NoteHalted(jobID string) {
	d.mu.Lock()
	d.adm.Release(jobID)
	delete(d.resumes, jobID)
	if j, ok := d.victims[jobID]; ok {
		delete(d.victims, jobID)
		if j.Gang == nil {
			d.Retry() // its lookup failed: Resync requeues it from PendingWork
		}
		d.enqueueLocked(j, true)
		d.stats.Requeued++
	}
	d.mu.Unlock()
	d.Wake()
}

// NoteResumed restores the admission footprint of a job that resumed
// from its checkpoint. Admit is idempotent per job, so a resume the
// dispatcher itself admitted is not double-counted; a user-initiated
// resume (which bypassed the queue) gets its footprint re-registered
// here. A failed lookup leaves the footprint owed to the retry.
func (d *Dispatcher) NoteResumed(jobID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resumeLocked(jobID)
}

func (d *Dispatcher) resumeLocked(jobID string) {
	j, err := d.cfg.Backend.Lookup(jobID)
	if err != nil {
		d.resumes[jobID] = struct{}{}
		d.Retry()
		return
	}
	delete(d.resumes, jobID)
	if j.Gang != nil {
		d.adm.Admit(j.Gang) //nolint:errcheck // accounting restore; rejection leaves it unaccounted, matching pre-tenancy resume semantics
	}
}

// SetQuota installs a tenant's quota written through the API and wakes
// the loop — a raised quota may make a starved head in-quota, which
// preempts for it.
func (d *Dispatcher) SetQuota(rec Record) {
	d.adm.SetQuota(rec.Quota())
	d.Wake()
}

// SetClusterGPUs updates the admission budget to the cluster's current
// capacity (wired to kube node watch events) and wakes the loop —
// added capacity may admit the head of the queue.
func (d *Dispatcher) SetClusterGPUs(n int) {
	d.adm.SetClusterGPUs(n)
	d.Wake()
}

// enqueueLocked adds a job to the queue unless it is already there.
func (d *Dispatcher) enqueueLocked(j Job, victim bool) {
	if j.Gang == nil || j.ID == "" {
		return
	}
	if _, ok := d.entries[j.ID]; ok {
		return
	}
	d.entries[j.ID] = &queuedEntry{job: j, victim: victim, enqueued: d.clock.Now()}
	d.queue.Push(j.Gang, j.Submitted)
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

// Resync is the level-triggered recovery pass: re-read quotas, recover
// queued work, victims and owed resume footprints, release those of
// jobs that finished unseen, then run a pass. It runs at Start, after
// the status subscription closed, and on the retry; a call in it that
// fails arms the retry again.
func (d *Dispatcher) Resync() {
	if d.cfg.Registry != nil && d.cfg.Registry.Seed(d.adm) != nil {
		d.Retry()
	}
	queued, preempted := d.cfg.Backend.PendingWork()
	d.mu.Lock()
	d.stats.Resyncs++
	for _, j := range queued {
		d.enqueueLocked(j, false)
	}
	for _, j := range preempted {
		// A preempted job already halted: its HALTED event may have
		// been dropped, so requeue it directly.
		if _, waiting := d.victims[j.ID]; waiting {
			delete(d.victims, j.ID)
			d.stats.Requeued++
		}
		d.enqueueLocked(j, true)
	}
	// Victims whose halt never landed (terminal raced the preemption)
	// must not leak; victims still running may have lost the halt
	// signal (e.g. an LCM outage mid-call), so re-issue it — the halt
	// path is idempotent.
	for id := range d.victims {
		switch ph, err := d.cfg.Backend.Phase(id); {
		case err != nil:
			d.Retry()
		case ph == PhaseTerminal:
			delete(d.victims, id)
		case ph == PhaseRunning && d.cfg.Backend.Preempt(id) != nil:
			d.Retry()
		}
	}
	for id := range d.resumes {
		d.resumeLocked(id)
	}
	// A terminal job whose bus event was lost still holds its footprint;
	// release it so the capacity is not leaked forever. Halted jobs keep
	// theirs: a victim admitted for resume stays HALTED until its resume
	// lands.
	for _, id := range d.adm.Held() {
		switch ph, err := d.cfg.Backend.Phase(id); {
		case err != nil:
			d.Retry()
		case ph == PhaseTerminal:
			d.adm.Release(id)
		}
	}
	d.mu.Unlock()
	d.dispatch()
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
		if entry.victim {
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
	// Rejected. Unknown user: the quota record disappeared between
	// submit-time validation and dispatch — fail the job visibly.
	if _, ok := d.adm.Quota(e.job.User); !ok {
		if d.cfg.Backend.Fail(id, "no quota for user "+e.job.User) != nil {
			d.Retry()
		}
		d.dropLocked(id)
		d.stats.Failed++
		return true
	}
	// Permanently infeasible: a gang bigger than the whole cluster can
	// never be admitted, and in strict FCFS it would wedge the queue
	// for every tenant behind it. Fail it visibly instead.
	if d.failIfInfeasibleLocked(e) {
		return true
	}
	// Cluster budget exhausted. A starved in-quota head preempts
	// (§3.6: free users under load, over-quota jobs when the quota
	// owner returns); over-quota heads wait for capacity.
	if d.cfg.DisablePreemption || !d.inQuotaLocked(e.job) {
		return false
	}
	if !d.preemptForLocked(e.job) {
		return false
	}
	// Footprints were released; re-admit on the next loop iteration.
	return true
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
	dec, _ := d.adm.Admit(e.job.Gang)
	if dec == sched.Reject {
		// A victim that no longer fits the cluster at all (capacity
		// shrank while it sat on its checkpoint) must not wedge the
		// queue either.
		if d.failIfInfeasibleLocked(e) {
			return true
		}
		// Victims never preempt (no cycles); the head waits for
		// capacity in strict FCFS order.
		return false
	}
	if err := d.cfg.Backend.Resume(id); err != nil {
		d.adm.Release(id)
		d.Retry()
		return false // halt may still be propagating
	}
	d.recordDispatchLocked(e, true)
	d.dropLocked(id)
	d.stats.Resumed++
	return true
}

// failIfInfeasibleLocked fails and drops a head whose GPU demand
// exceeds total cluster capacity — no amount of completion or
// preemption can ever admit it, and leaving it at the head would block
// the strict-FCFS queue forever. Reports whether the entry was failed.
// A capacity of "unlimited" (ClusterCap 0) or known-zero (< 0, e.g. no
// nodes registered yet) never fails a job: capacity may still appear.
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

// preemptForLocked checkpoints enough victims to admit j, marking each
// so its HALTED transition requeues it. Reports whether victims were
// selected.
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
	if len(victims) == 0 {
		return false
	}
	for _, v := range victims {
		vj, err := d.cfg.Backend.Lookup(v)
		d.victims[v] = vj // a zero Job if the lookup failed
		d.stats.Preempted++
		if err != nil || d.cfg.Backend.Preempt(v) != nil {
			d.Retry()
		}
	}
	return true
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
