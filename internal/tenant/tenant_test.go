package tenant

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sched"
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
}

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
	b.preempted[jobID] = true
	b.halted = append(b.halted, jobID)
	b.phase[jobID] = PhaseHalted
	return nil
}

func (b *fakeBackend) Resume(jobID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
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

func (b *fakeBackend) Lookup(jobID string) (Job, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	j, ok := b.job[jobID]
	if !ok {
		return Job{}, fmt.Errorf("fake: unknown job %s", jobID)
	}
	return j, nil
}

func (b *fakeBackend) Phase(jobID string) (Phase, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ph, ok := b.phase[jobID]
	if !ok {
		return 0, fmt.Errorf("fake: unknown job %s", jobID)
	}
	return ph, nil
}

func (b *fakeBackend) PendingWork() (queued, preempted []Job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, ph := range b.phase {
		switch {
		case ph == PhaseQueued:
			queued = append(queued, b.job[id])
		case ph == PhaseHalted && b.preempted[id]:
			preempted = append(preempted, b.job[id])
		}
	}
	return queued, preempted
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
	r.Seed(adm)
	if q, ok := adm.Quota("bob"); !ok || q.Tier != sched.TierFree || q.GPUs != 2 {
		t.Fatalf("seeded quota = %+v %v", q, ok)
	}

	// An outage is an error, never an empty registry.
	db.SetUnavailable(true)
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
	d.NoteHalted("free-job")
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
	if n := d.obsDelay.Count(); n != 3 {
		t.Fatalf("tenant.queue_delay count = %d, want 3", n)
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
	if n := d.obsDelay.Count(); n != 1 {
		t.Fatalf("tenant.queue_delay count = %d, want a single observation", n)
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
	d.resync()
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
	d.resync()
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
	d.resync()
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
	d.resync()
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
		ResyncInterval: time.Hour, // the quota event must do the waking
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
	// wake the loop — the hour-long resync never fires here — and the
	// dispatcher preempts the free job for it.
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
