package tenant

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sched"
	"github.com/ffdl/ffdl/internal/sim"
)

func gang(jobID, user string, gpus int) *sched.Gang {
	return &sched.Gang{
		JobID: jobID,
		User:  user,
		Pods: []sched.PodSpec{{
			Name:   jobID + "-l0",
			JobID:  jobID,
			Demand: sched.Resources{MilliCPU: 4000, MemoryMB: 16000, GPUs: gpus},
		}},
	}
}

func job(id, user string, gpus int, at time.Time) Job {
	return Job{ID: id, User: user, Gang: gang(id, user, gpus), Submitted: at}
}

// fakeBackend is an in-memory platform for dispatcher unit tests.
type fakeBackend struct {
	mu         sync.Mutex
	phase      map[string]Phase
	job        map[string]Job
	preempted  map[string]bool
	dispatched []string
	resumed    []string
	halted     []string
	failed     map[string]string
	// down fails every call that reads or writes the store; PendingWork
	// then answers nil as the platform's does.
	down bool
	// haltErrs is how many Preempt calls write the marker but halt
	// nothing, as an LCM that does not answer the halt; the platform
	// reports that failure through Dispatcher.Retry, which tests call.
	haltErrs int
	// phaseReads counts Phase calls; listed, when set, runs after each
	// PendingWork has read the store.
	phaseReads int
	listed     func()
}

var errStoreDown = errors.New("fake: store unavailable")

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		phase:     make(map[string]Phase),
		job:       make(map[string]Job),
		preempted: make(map[string]bool),
		failed:    make(map[string]string),
	}
}

func (b *fakeBackend) add(j Job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.job[j.ID] = j
	b.phase[j.ID] = PhaseQueued
}

func (b *fakeBackend) Dispatch(jobID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return errStoreDown
	}
	if b.phase[jobID] != PhaseQueued {
		return fmt.Errorf("fake: %s not queued", jobID)
	}
	b.phase[jobID] = PhaseRunning
	b.dispatched = append(b.dispatched, jobID)
	return nil
}

func (b *fakeBackend) Preempt(jobID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return errStoreDown
	}
	b.preempted[jobID] = true
	if b.haltErrs > 0 {
		b.haltErrs--
		return nil
	}
	b.halted = append(b.halted, jobID)
	b.phase[jobID] = PhaseHalted
	return nil
}

func (b *fakeBackend) Resume(jobID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return errStoreDown
	}
	if b.phase[jobID] != PhaseHalted {
		return fmt.Errorf("fake: %s not halted", jobID)
	}
	b.phase[jobID] = PhaseRunning
	b.preempted[jobID] = false
	b.resumed = append(b.resumed, jobID)
	return nil
}

func (b *fakeBackend) Fail(jobID, reason string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed[jobID] = reason
	b.phase[jobID] = PhaseTerminal
	return nil
}

func (b *fakeBackend) Phase(jobID string) (Phase, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.phaseReads++
	if b.down {
		return 0, errStoreDown
	}
	ph, ok := b.phase[jobID]
	if !ok {
		return 0, fmt.Errorf("fake: unknown job %s", jobID)
	}
	return ph, nil
}

func (b *fakeBackend) PendingWork() (queued, active []Job) {
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return nil, nil
	}
	active = []Job{}
	for id, ph := range b.phase {
		switch ph {
		case PhaseQueued:
			queued = append(queued, b.viewLocked(id))
		case PhaseRunning, PhaseHalted:
			active = append(active, b.viewLocked(id))
		}
	}
	listed := b.listed
	b.mu.Unlock()
	if listed != nil {
		listed()
	}
	return queued, active
}

// view is the job as the store holds it now, as the status pump reads
// it for an event.
func (b *fakeBackend) view(jobID string) Job {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.viewLocked(jobID)
}

func (b *fakeBackend) viewLocked(jobID string) Job {
	j := b.job[jobID]
	j.Phase, j.Preempted = b.phase[jobID], b.preempted[jobID]
	return j
}

// setPhase moves a job without telling the dispatcher, as a transition
// whose event it has not seen yet.
func (b *fakeBackend) setPhase(jobID string, ph Phase) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.phase[jobID] = ph
}

func (b *fakeBackend) setDown(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down = on
}

// snapshot returns copies of the dispatched, halted and resumed lists.
func (b *fakeBackend) snapshot() (dispatched, halted, resumed []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.dispatched), slices.Clone(b.halted), slices.Clone(b.resumed)
}

func (b *fakeBackend) finish(d *Dispatcher, jobID string) {
	b.mu.Lock()
	b.phase[jobID] = PhaseTerminal
	b.mu.Unlock()
	d.NoteTerminal(jobID)
}

// newTestDispatcher wires a dispatcher over a fake backend without
// starting the loop; tests drive dispatch/resync directly for
// determinism.
func newTestDispatcher(t *testing.T, clusterGPUs int, quotas ...Record) (*Dispatcher, *fakeBackend, *sched.Admission) {
	t.Helper()
	adm := sched.NewAdmission(clusterGPUs)
	for _, q := range quotas {
		adm.SetQuota(q.Quota())
	}
	b := newFakeBackend()
	d := NewDispatcher(Config{Backend: b, Admission: adm, Obs: obs.NewRegistry()})
	return d, b, adm
}

// startFakeClockDispatcher runs a dispatcher loop over the fake backend
// on a FakeClock, retrying one second after a failed call.
func startFakeClockDispatcher(t *testing.T, clusterGPUs int, quotas ...Record) (*Dispatcher, *fakeBackend, *sched.Admission, *sim.FakeClock) {
	t.Helper()
	fc := sim.NewFakeClock(time.Unix(0, 0))
	adm := sched.NewAdmission(clusterGPUs)
	for _, q := range quotas {
		adm.SetQuota(q.Quota())
	}
	b := newFakeBackend()
	d := NewDispatcher(Config{Clock: fc, Backend: b, Admission: adm, ResyncInterval: time.Second})
	d.Start()
	t.Cleanup(d.Stop)
	return d, b, adm, fc
}

// holdsStill reports whether fc keeps want waiters for 30ms of wall
// time.
func holdsStill(fc *sim.FakeClock, want int) bool {
	for i := 0; i < 6; i++ {
		if fc.WaiterCount() != want {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

func TestRegistryPutLookupList(t *testing.T) {
	db := mongo.NewDB()
	r := NewRegistry(db)

	if err := r.Put(Record{User: "alice", Tier: sched.TierPaid, GPUs: 8}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Record{User: "bob", Tier: sched.TierFree, GPUs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Record{User: "alice", Tier: sched.TierPaid, GPUs: 12}); err != nil {
		t.Fatal(err) // update in place
	}
	if err := r.Put(Record{User: "", Tier: sched.TierFree, GPUs: 1}); err == nil {
		t.Fatal("empty user accepted")
	}
	if err := r.Put(Record{User: "x", Tier: 99, GPUs: 1}); err == nil {
		t.Fatal("bogus tier accepted")
	}

	rec, ok, err := r.Lookup("alice")
	if err != nil || !ok || rec.GPUs != 12 || rec.Tier != sched.TierPaid {
		t.Fatalf("Lookup(alice) = %+v %v %v", rec, ok, err)
	}
	if _, ok, err := r.Lookup("nobody"); ok || err != nil {
		t.Fatalf("Lookup(nobody) = %v %v, want absent", ok, err)
	}
	list, err := r.List()
	if err != nil || len(list) != 2 || list[0].User != "alice" || list[1].User != "bob" {
		t.Fatalf("List = %+v %v", list, err)
	}

	adm := sched.NewAdmission(0)
	if err := r.Seed(adm); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	if q, ok := adm.Quota("bob"); !ok || q.Tier != sched.TierFree || q.GPUs != 2 {
		t.Fatalf("seeded quota = %+v %v", q, ok)
	}

	// An outage is an error, never an empty registry.
	db.SetUnavailable(true)
	if err := r.Seed(sched.NewAdmission(0)); !errors.Is(err, mongo.ErrUnavailable) {
		t.Fatalf("Seed during outage = %v, want ErrUnavailable", err)
	}
	if list, err := r.List(); !errors.Is(err, mongo.ErrUnavailable) {
		t.Fatalf("List during outage = %+v %v, want ErrUnavailable", list, err)
	}
	if _, _, err := r.Lookup("alice"); !errors.Is(err, mongo.ErrUnavailable) {
		t.Fatalf("Lookup during outage err = %v, want ErrUnavailable", err)
	}
}

func TestDispatcherAdmitsInOrderAndQueuesOverCapacity(t *testing.T) {
	d, b, _ := newTestDispatcher(t, 4,
		Record{User: "alice", Tier: sched.TierPaid, GPUs: 4},
		Record{User: "bob", Tier: sched.TierPaid, GPUs: 4})
	t0 := time.Unix(0, 0)

	j1 := job("j1", "alice", 4, t0)
	j2 := job("j2", "bob", 2, t0.Add(time.Second))
	j3 := job("j3", "bob", 2, t0.Add(2*time.Second))
	for _, j := range []Job{j1, j2, j3} {
		b.add(j)
		d.NoteQueued(j)
	}
	d.dispatch()
	if len(b.dispatched) != 1 || b.dispatched[0] != "j1" {
		t.Fatalf("dispatched = %v, want [j1]", b.dispatched)
	}
	// j2 and j3 wait behind the exhausted budget, FCFS positions 1, 2.
	if pos, ok := d.Position("j2"); !ok || pos != 1 {
		t.Fatalf("Position(j2) = %d %v", pos, ok)
	}
	if pos, ok := d.Position("j3"); !ok || pos != 2 {
		t.Fatalf("Position(j3) = %d %v", pos, ok)
	}
	// j1 finishing frees the budget: both queued jobs dispatch.
	b.finish(d, "j1")
	d.dispatch()
	if len(b.dispatched) != 3 || b.dispatched[1] != "j2" || b.dispatched[2] != "j3" {
		t.Fatalf("dispatched = %v, want j2 then j3", b.dispatched)
	}
	if d.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d", d.QueueDepth())
	}
	st := d.Stats()
	if st.Dispatched != 3 {
		t.Fatalf("stats.Dispatched = %d", st.Dispatched)
	}
}

func TestDispatcherFailsUnknownUser(t *testing.T) {
	d, b, _ := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	j := job("ghost", "nobody", 1, time.Unix(0, 0))
	b.add(j)
	d.NoteQueued(j)
	d.dispatch()
	if _, ok := b.failed["ghost"]; !ok {
		t.Fatalf("unknown-user job not failed: %+v", b.failed)
	}
	if d.QueueDepth() != 0 {
		t.Fatal("failed job still queued")
	}
}

func TestDispatcherPreemptsHaltsRequeuesAndResumes(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4,
		Record{User: "freeloader", Tier: sched.TierFree, GPUs: 1},
		Record{User: "payer", Tier: sched.TierPaid, GPUs: 4})
	t0 := time.Unix(0, 0)

	// Free-tier job takes the whole cluster over-quota.
	jf := job("free-job", "freeloader", 4, t0)
	b.add(jf)
	d.NoteQueued(jf)
	d.dispatch()
	if len(b.dispatched) != 1 {
		t.Fatalf("free job not dispatched: %v", b.dispatched)
	}

	// The quota owner arrives: in-quota demand preempts the free job.
	jp := job("paid-job", "payer", 4, t0.Add(time.Minute))
	b.add(jp)
	d.NoteQueued(jp)
	d.dispatch()
	if len(b.halted) != 1 || b.halted[0] != "free-job" {
		t.Fatalf("halted = %v, want [free-job]", b.halted)
	}
	if len(b.dispatched) != 2 || b.dispatched[1] != "paid-job" {
		t.Fatalf("dispatched = %v, want paid-job after preemption", b.dispatched)
	}
	// The victim's HALTED transition requeues it as a victim.
	d.NoteHalted(b.view("free-job"))
	if pos, ok := d.Position("free-job"); !ok || pos != 1 {
		t.Fatalf("victim position = %d %v, want head", pos, ok)
	}
	// Still no capacity: the victim must wait, and must NOT preempt.
	d.dispatch()
	if len(b.resumed) != 0 {
		t.Fatalf("victim resumed without capacity: %v", b.resumed)
	}
	if len(b.halted) != 1 {
		t.Fatalf("victim triggered preemption: %v", b.halted)
	}
	// The paid job finishing frees the budget: the victim resumes.
	b.finish(d, "paid-job")
	d.dispatch()
	if len(b.resumed) != 1 || b.resumed[0] != "free-job" {
		t.Fatalf("resumed = %v, want [free-job]", b.resumed)
	}
	if got := adm.Usage("freeloader"); got != 4 {
		t.Fatalf("victim footprint after resume = %d, want 4", got)
	}
	st := d.Stats()
	if st.Preempted != 1 || st.Requeued != 1 || st.Resumed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if h, _ := d.cfg.Obs.Snapshot().Histogram("tenant.queue_delay"); h.Count != 3 {
		t.Fatalf("tenant.queue_delay count = %d, want 3", h.Count)
	}
}

// TestDispatcherFailsInfeasibleHeadInsteadOfWedging: a gang bigger
// than the whole cluster can never be admitted; in strict FCFS it must
// be failed visibly, not left blocking every tenant behind it.
func TestDispatcherFailsInfeasibleHeadInsteadOfWedging(t *testing.T) {
	d, b, _ := newTestDispatcher(t, 4,
		Record{User: "alice", Tier: sched.TierPaid, GPUs: 16},
		Record{User: "bob", Tier: sched.TierPaid, GPUs: 4})
	t0 := time.Unix(0, 0)
	huge := job("huge", "alice", 8, t0) // 8 GPUs on a 4-GPU cluster
	ok := job("ok", "bob", 2, t0.Add(time.Second))
	for _, j := range []Job{huge, ok} {
		b.add(j)
		d.NoteQueued(j)
	}
	d.dispatch()
	if _, failed := b.failed["huge"]; !failed {
		t.Fatalf("infeasible head not failed: %+v", b.failed)
	}
	if len(b.dispatched) != 1 || b.dispatched[0] != "ok" {
		t.Fatalf("queue stayed wedged behind the infeasible head: %v", b.dispatched)
	}
}

// TestDispatcherKnownZeroCapacityAdmitsNothing: a cluster that has (or
// lost) all its nodes reports capacity as a negative sentinel, which
// must admit nothing — 0 still means the legacy "unlimited".
func TestDispatcherKnownZeroCapacityAdmitsNothing(t *testing.T) {
	d, b, _ := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	d.SetClusterGPUs(-1) // node watch: zero GPUs registered
	j := job("early", "alice", 2, time.Unix(0, 0))
	b.add(j)
	d.NoteQueued(j)
	d.dispatch()
	if len(b.dispatched) != 0 {
		t.Fatalf("dispatched %v with zero cluster capacity", b.dispatched)
	}
	if _, failed := b.failed["early"]; failed {
		t.Fatalf("zero-capacity queue failed the job instead of waiting: %+v", b.failed)
	}
	// Capacity appears: the job dispatches.
	d.SetClusterGPUs(4)
	d.dispatch()
	if len(b.dispatched) != 1 {
		t.Fatalf("job not dispatched after capacity appeared: %v", b.dispatched)
	}
}

// TestStaleQueuedEventDoesNotDoubleCount: a QUEUED bus echo arriving
// after the job was already dispatched (resync raced the pump) must
// not produce a second dispatch record or inflated delay entry. The
// strict Backend.Dispatch (errors unless the job is still queued)
// enforces it.
func TestStaleQueuedEventDoesNotDoubleCount(t *testing.T) {
	d, b, _ := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	j := job("j1", "alice", 2, time.Unix(0, 0))
	b.add(j)
	d.NoteQueued(j)
	d.dispatch()
	if len(b.dispatched) != 1 {
		t.Fatalf("dispatched = %v", b.dispatched)
	}
	// The stale echo re-enqueues; the next pass must shed it quietly.
	d.NoteQueued(j)
	d.dispatch()
	if len(b.dispatched) != 1 {
		t.Fatalf("stale QUEUED event re-dispatched: %v", b.dispatched)
	}
	if st := d.Stats(); st.Dispatched != 1 {
		t.Fatalf("stats.Dispatched = %d, want 1", st.Dispatched)
	}
	if h, _ := d.cfg.Obs.Snapshot().Histogram("tenant.queue_delay"); h.Count != 1 {
		t.Fatalf("tenant.queue_delay count = %d, want a single observation", h.Count)
	}
	if d.QueueDepth() != 0 {
		t.Fatalf("stale entry still queued")
	}
}

func TestDispatcherResyncRecoversMissedEvents(t *testing.T) {
	d, b, _ := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	// A job lands in the durable store but its QUEUED event is lost.
	j := job("lost", "alice", 2, time.Unix(0, 0))
	b.add(j)
	d.Resync()
	if len(b.dispatched) != 1 || b.dispatched[0] != "lost" {
		t.Fatalf("resync did not recover the queued job: %v", b.dispatched)
	}

	// A preempted victim whose HALTED event was lost is requeued and
	// resumed by the next resync once capacity exists.
	v := job("victim", "alice", 2, time.Unix(1, 0))
	b.add(v)
	b.mu.Lock()
	b.phase["victim"] = PhaseHalted
	b.preempted["victim"] = true
	b.mu.Unlock()
	d.Resync()
	if len(b.resumed) != 1 || b.resumed[0] != "victim" {
		t.Fatalf("resync did not resume the halted victim: %v", b.resumed)
	}
}

// TestDispatcherResyncReleasesLostTerminalFootprint: a job that
// finished without its terminal event reaching the dispatcher must not
// hold its GPUs forever — the resync releases it, and the queued job
// behind it dispatches in the same pass.
func TestDispatcherResyncReleasesLostTerminalFootprint(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 8})
	t0 := time.Unix(0, 0)
	j1 := job("j1", "alice", 4, t0)
	b.add(j1)
	d.NoteQueued(j1)
	d.dispatch()
	if len(b.dispatched) != 1 {
		t.Fatalf("dispatched = %v, want [j1]", b.dispatched)
	}
	j2 := job("j2", "alice", 4, t0.Add(time.Second))
	b.add(j2)
	d.NoteQueued(j2)
	d.dispatch()
	if len(b.dispatched) != 1 {
		t.Fatalf("j2 dispatched over a full budget: %v", b.dispatched)
	}

	// j1 finishes, but its terminal event is lost: no NoteTerminal.
	b.mu.Lock()
	b.phase["j1"] = PhaseTerminal
	b.mu.Unlock()
	d.Resync()
	if adm.Holds("j1") || adm.Usage("alice") != 4 {
		t.Fatalf("after resync: Holds(j1)=%v usage=%d, want j1 released and j2 holding 4",
			adm.Holds("j1"), adm.Usage("alice"))
	}
	if len(b.dispatched) != 2 || b.dispatched[1] != "j2" {
		t.Fatalf("dispatched = %v, want j2 after the resync", b.dispatched)
	}
}

// TestDispatcherResyncKeepsHaltedFootprint: a victim admitted for
// resume stays HALTED until its resume lands, and must keep the
// footprint it was admitted with across a resync.
func TestDispatcherResyncKeepsHaltedFootprint(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	v := job("victim", "alice", 4, time.Unix(0, 0))
	b.add(v)
	b.mu.Lock()
	b.phase["victim"] = PhaseHalted
	b.mu.Unlock()
	if _, err := adm.Admit(v.Gang); err != nil {
		t.Fatal(err)
	}
	d.Resync()
	if !adm.Holds("victim") {
		t.Fatal("resync released a halted job's footprint")
	}
}

func TestDispatcherLoopWakesOnQuotaWrite(t *testing.T) {
	db := mongo.NewDB()
	r := NewRegistry(db)
	adm := sched.NewAdmission(4)
	b := newFakeBackend()
	d := NewDispatcher(Config{
		Backend: b, Registry: r, Admission: adm,
		ResyncInterval: time.Hour, // no retry: the quota event must do the waking
	})
	if err := r.Put(Record{User: "freeloader", Tier: sched.TierFree, GPUs: 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Record{User: "payer", Tier: sched.TierPaid, GPUs: 2}); err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()

	// The free-tier job takes the whole budget.
	jf := job("free-job", "freeloader", 4, time.Unix(0, 0))
	b.add(jf)
	d.NoteQueued(jf)
	waitFor(t, "free job dispatched", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.dispatched) == 1
	})
	// The payer's 4-GPU job exceeds its 2-GPU quota: over-quota heads
	// wait for capacity instead of preempting.
	jp := job("paid-job", "payer", 4, time.Unix(1, 0))
	b.add(jp)
	d.NoteQueued(jp)
	time.Sleep(20 * time.Millisecond)
	if n := len(b.halted); n != 0 {
		t.Fatalf("over-quota head preempted: %v", b.halted)
	}
	// Raising the payer's quota makes the head in-quota; SetQuota must
	// wake the loop — nothing else does — and the dispatcher preempts
	// the free job for it.
	raised := Record{User: "payer", Tier: sched.TierPaid, GPUs: 8}
	if err := r.Put(raised); err != nil {
		t.Fatal(err)
	}
	d.SetQuota(raised)
	waitFor(t, "quota raise preempts and dispatches", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.halted) == 1 && len(b.dispatched) == 2
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedQueuedReadDispatchesThroughOneRetry: the status pump could
// not read a QUEUED job because the store was down, so it armed the
// retry instead of noting the job. The loop holds one timer however
// many calls fail; a retry the store still does not answer re-arms it,
// and the first one it answers dispatches the job.
func TestFailedQueuedReadDispatchesThroughOneRetry(t *testing.T) {
	d, b, _, fc := startFakeClockDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	if !holdsStill(fc, 0) {
		t.Fatalf("an idle dispatcher holds %d clock waiters, want 0", fc.WaiterCount())
	}
	b.add(job("j1", "alice", 2, time.Unix(0, 0)))
	b.setDown(true)
	d.Retry() // the pump's failed read
	waitFor(t, "the retry timer", func() bool { return fc.WaiterCount() == 1 })
	d.Retry()
	if !holdsStill(fc, 1) {
		t.Fatalf("a second failure armed another timer: %d waiters", fc.WaiterCount())
	}

	fc.Advance(time.Second) // the store is still down
	waitFor(t, "the unanswered resync re-arms", func() bool {
		return d.Stats().Resyncs == 2 && fc.WaiterCount() == 1
	})
	if dispatched, _, _ := b.snapshot(); len(dispatched) != 0 {
		t.Fatalf("dispatched %v while the store was down", dispatched)
	}

	b.setDown(false)
	fc.Advance(time.Second)
	waitFor(t, "j1 dispatched by the retry", func() bool {
		dispatched, _, _ := b.snapshot()
		return len(dispatched) == 1 && dispatched[0] == "j1"
	})
	if !holdsStill(fc, 0) {
		t.Fatalf("%d clock waiters after an answered retry, want 0", fc.WaiterCount())
	}
	if st := d.Stats(); st.Resyncs != 3 {
		t.Fatalf("resyncs = %d, want boot + 2 retries", st.Resyncs)
	}
}

// TestFailedHaltIsIssuedAgain: the LCM did not answer the halt of a
// preemption victim. Nothing else re-issues it, so the failure arms the
// retry, whose resync halts the victim still running; the victim then
// requeues and resumes as usual.
func TestFailedHaltIsIssuedAgain(t *testing.T) {
	d, b, _, fc := startFakeClockDispatcher(t, 4,
		Record{User: "freeloader", Tier: sched.TierFree, GPUs: 1},
		Record{User: "payer", Tier: sched.TierPaid, GPUs: 4})
	t0 := time.Unix(0, 0)
	jf := job("free-job", "freeloader", 4, t0)
	b.add(jf)
	d.NoteQueued(jf)
	waitFor(t, "the free job dispatched", func() bool {
		dispatched, _, _ := b.snapshot()
		return len(dispatched) == 1
	})

	b.mu.Lock()
	b.haltErrs = 1
	b.mu.Unlock()
	jp := job("paid-job", "payer", 4, t0.Add(time.Minute))
	b.add(jp)
	d.NoteQueued(jp)
	waitFor(t, "the preemption", func() bool { return d.Stats().Preempted == 1 })
	d.Retry() // the platform's report of the halt the LCM did not answer
	waitFor(t, "the retry timer", func() bool { return fc.WaiterCount() == 1 })
	if _, halted, _ := b.snapshot(); len(halted) != 0 {
		t.Fatalf("halted = %v, want none before the retry", halted)
	}

	fc.Advance(time.Second)
	waitFor(t, "the halt issued again", func() bool {
		_, halted, _ := b.snapshot()
		return len(halted) == 1 && halted[0] == "free-job"
	})
	d.NoteHalted(b.view("free-job"))
	b.finish(d, "paid-job")
	waitFor(t, "the victim resumed", func() bool {
		_, _, resumed := b.snapshot()
		return len(resumed) == 1 && resumed[0] == "free-job"
	})
	if st := d.Stats(); st.Preempted != 1 || st.Requeued != 1 || st.Resumed != 1 || st.Resyncs != 2 {
		t.Fatalf("stats = %+v, want one preemption, requeue, resume and retry", st)
	}
}

// TestFailedResumeLookupIsOwedToRetry: the status pump could not read
// two resumed jobs, so it noted each without its record and armed the
// retry. Neither holds a footprint until the retry's resync lists them;
// the one that halted again before it is owed nothing.
func TestFailedResumeLookupIsOwedToRetry(t *testing.T) {
	d, b, adm, fc := startFakeClockDispatcher(t, 8, Record{User: "alice", Tier: sched.TierPaid, GPUs: 8})
	for _, id := range []string{"j1", "j2"} {
		b.add(job(id, "alice", 2, time.Unix(0, 0)))
		b.setPhase(id, PhaseRunning)
		d.NoteResumed(Job{ID: id})
		d.Retry()
	}
	b.setPhase("j2", PhaseHalted)
	d.NoteHalted(b.view("j2")) // halted again before the retry
	if adm.Holds("j1") || adm.Holds("j2") {
		t.Fatal("a footprint was restored without a read")
	}
	waitFor(t, "the retry timer", func() bool { return fc.WaiterCount() == 1 })
	fc.Advance(time.Second)
	waitFor(t, "j1's footprint restored", func() bool { return adm.Holds("j1") })
	if adm.Holds("j2") {
		t.Fatal("the retry restored the footprint of a job that halted again")
	}
}

// TestUserResumeIntoFullClusterHoldsFootprint: a user resumed a halted
// job while other work filled the cluster. The job runs all the same,
// so it holds its footprint past the budget, and a resync keeps it.
func TestUserResumeIntoFullClusterHoldsFootprint(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4,
		Record{User: "alice", Tier: sched.TierPaid, GPUs: 4},
		Record{User: "bob", Tier: sched.TierPaid, GPUs: 4})
	full := job("full", "alice", 4, time.Unix(0, 0))
	b.add(full)
	d.NoteQueued(full)
	d.dispatch()
	b.add(job("resumed", "bob", 2, time.Unix(1, 0)))
	b.setPhase("resumed", PhaseRunning)
	d.NoteResumed(b.view("resumed"))
	if !adm.Holds("resumed") || adm.AdmittedGPUs() != 6 {
		t.Fatalf("Holds=%v admitted=%d, want the resumed job held past the 4-GPU budget",
			adm.Holds("resumed"), adm.AdmittedGPUs())
	}
	d.Resync()
	if !adm.Holds("resumed") || !adm.Holds("full") || adm.AdmittedGPUs() != 6 {
		t.Fatalf("after resync: admitted=%d, want both jobs held", adm.AdmittedGPUs())
	}
}

// TestResyncReadsNoJobPerFootprint: a resync reconciles 1,000 held
// footprints from its one listing, with no read per job: it releases
// the one whose job finished unseen and restores the one running job
// that held none.
func TestResyncReadsNoJobPerFootprint(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 0, Record{User: "alice", Tier: sched.TierPaid, GPUs: 1000})
	for i := 0; i <= 1000; i++ {
		j := job(fmt.Sprintf("j%04d", i), "alice", 1, time.Unix(int64(i), 0))
		b.add(j)
		b.setPhase(j.ID, PhaseRunning)
		if i < 1000 {
			adm.Restore(j.Gang)
		}
	}
	b.setPhase("j0000", PhaseTerminal) // its event was lost
	d.Resync()
	if n := len(adm.Held()); n != 1000 || adm.Holds("j0000") || !adm.Holds("j1000") {
		t.Fatalf("%d footprints held (j0000 %v, j1000 %v), want 1000 with j1000 and without j0000",
			n, adm.Holds("j0000"), adm.Holds("j1000"))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.phaseReads != 0 {
		t.Fatalf("the resync read %d jobs one by one", b.phaseReads)
	}
}

// TestTerminalNoteRacingResyncLeavesNoFootprint: a job finishes after a
// resync listed it running, and its terminal note arrives before the
// resync has applied the listing. The note waits for the resync, so
// the footprint the listing restored is released after it.
func TestTerminalNoteRacingResyncLeavesNoFootprint(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	b.add(job("j1", "alice", 2, time.Unix(0, 0)))
	b.setPhase("j1", PhaseRunning)
	noted := make(chan struct{})
	b.listed = func() {
		b.listed = nil
		b.setPhase("j1", PhaseTerminal)
		go func() {
			d.NoteTerminal("j1")
			close(noted)
		}()
		select {
		case <-noted:
		case <-time.After(20 * time.Millisecond):
		}
	}
	d.Resync()
	<-noted
	if adm.Holds("j1") {
		t.Fatal("the resync restored a footprint after the job's terminal note")
	}
}

// TestUnansweredListingReleasesNothing: a resync whose listing the store
// did not answer keeps every footprint and arms the retry.
func TestUnansweredListingReleasesNothing(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4, Record{User: "alice", Tier: sched.TierPaid, GPUs: 4})
	j := job("j1", "alice", 2, time.Unix(0, 0))
	b.add(j)
	d.NoteQueued(j)
	d.dispatch()
	b.setDown(true)
	d.Resync()
	if !adm.Holds("j1") {
		t.Fatal("an unanswered listing released a running job's footprint")
	}
	select {
	case <-d.retry:
	default:
		t.Fatal("an unanswered listing armed no retry")
	}
}

// TestPreemptionWaitsForTheVictimsMarker: the store did not take a
// victim's preemption marker, so no halt went out. The victim keeps its
// footprint and the paid head waits; the retry's pass, with the store
// back, halts the victim and admits the head within the budget.
func TestPreemptionWaitsForTheVictimsMarker(t *testing.T) {
	d, b, adm, fc := startFakeClockDispatcher(t, 4,
		Record{User: "freeloader", Tier: sched.TierFree, GPUs: 1},
		Record{User: "payer", Tier: sched.TierPaid, GPUs: 4})
	t0 := time.Unix(0, 0)
	jf := job("free-job", "freeloader", 4, t0)
	b.add(jf)
	d.NoteQueued(jf)
	waitFor(t, "the free job dispatched", func() bool {
		dispatched, _, _ := b.snapshot()
		return len(dispatched) == 1
	})

	b.setDown(true)
	jp := job("paid-job", "payer", 4, t0.Add(time.Minute))
	b.add(jp)
	d.NoteQueued(jp)
	waitFor(t, "the retry timer", func() bool { return fc.WaiterCount() == 1 })
	dispatched, halted, _ := b.snapshot()
	if len(dispatched) != 1 || len(halted) != 0 || !adm.Holds("free-job") || adm.AdmittedGPUs() != 4 {
		t.Fatalf("dispatched=%v halted=%v Holds(free-job)=%v admitted=%d, want the victim kept and the head waiting",
			dispatched, halted, adm.Holds("free-job"), adm.AdmittedGPUs())
	}

	b.setDown(false)
	fc.Advance(time.Second)
	waitFor(t, "the victim halted and the head dispatched", func() bool {
		dispatched, halted, _ := b.snapshot()
		return len(halted) == 1 && halted[0] == "free-job" && len(dispatched) == 2
	})
	if adm.Holds("free-job") || adm.AdmittedGPUs() != 4 {
		t.Fatalf("Holds(free-job)=%v admitted=%d, want only the paid job's 4 GPUs",
			adm.Holds("free-job"), adm.AdmittedGPUs())
	}
}

// TestResumedVictimIsNotHaltedBeforeItsResumeLands: a pass resumes a
// victim, and the in-quota head behind it finds the cluster full. A
// halt sent before the resume lands could overtake it, or meet a job
// still halted and leave it so with no transition to requeue it, so the
// head waits for the RESUMED note and then preempts the victim.
func TestResumedVictimIsNotHaltedBeforeItsResumeLands(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4,
		Record{User: "freeloader", Tier: sched.TierFree, GPUs: 1},
		Record{User: "payer", Tier: sched.TierPaid, GPUs: 4})
	t0 := time.Unix(0, 0)
	v := job("victim", "freeloader", 4, t0)
	b.add(v)
	b.mu.Lock()
	b.phase["victim"], b.preempted["victim"] = PhaseHalted, true
	b.mu.Unlock()
	d.NoteHalted(b.view("victim"))
	jp := job("paid-job", "payer", 4, t0.Add(time.Minute))
	b.add(jp)
	d.NoteQueued(jp)

	d.dispatch()
	dispatched, halted, resumed := b.snapshot()
	if len(resumed) != 1 || len(halted) != 0 || len(dispatched) != 0 {
		t.Fatalf("resumed=%v halted=%v dispatched=%v, want the victim resumed and not halted",
			resumed, halted, dispatched)
	}
	d.NoteResumed(b.view("victim"))
	d.dispatch()
	dispatched, halted, _ = b.snapshot()
	if len(halted) != 1 || len(dispatched) != 1 || dispatched[0] != "paid-job" {
		t.Fatalf("halted=%v dispatched=%v, want the victim preempted for the paid job", halted, dispatched)
	}
	if adm.AdmittedGPUs() != 4 || !adm.Holds("paid-job") {
		t.Fatalf("admitted=%d, want only the paid job's 4 GPUs", adm.AdmittedGPUs())
	}
}

// TestMarkedResumedJobIsHaltedAgain: a job resumed although the store
// marks it preempted (a resume that failed to report back, or one that
// raced a preemption) owes a halt. Its RESUMED note restores no
// footprint and arms the retry, and the resync halts it.
func TestMarkedResumedJobIsHaltedAgain(t *testing.T) {
	d, b, adm := newTestDispatcher(t, 4, Record{User: "freeloader", Tier: sched.TierFree, GPUs: 1})
	b.add(job("victim", "freeloader", 4, time.Unix(0, 0)))
	b.mu.Lock()
	b.phase["victim"], b.preempted["victim"] = PhaseRunning, true
	b.mu.Unlock()
	d.NoteResumed(b.view("victim"))
	if adm.Holds("victim") {
		t.Fatal("a marked job's RESUMED note restored its footprint")
	}
	select {
	case <-d.retry:
	default:
		t.Fatal("a marked job's RESUMED note armed no retry")
	}
	d.Resync()
	if _, halted, _ := b.snapshot(); len(halted) != 1 || halted[0] != "victim" {
		t.Fatalf("halted = %v, want the marked job halted again", halted)
	}
}
