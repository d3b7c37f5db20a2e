package etcd

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ffdl/ffdl/internal/obs"
	"github.com/ffdl/ffdl/internal/sim"
)

// Options configures a Cluster.
type Options struct {
	// Replicas is the cluster size; the paper deploys etcd 3-way
	// replicated. Defaults to 3.
	Replicas int
	// TickInterval is the Raft logical tick. Defaults to 5ms, giving
	// 50-100ms election timeouts — fast enough for tests, slow enough to
	// be stable on loaded CI machines.
	TickInterval time.Duration
	// Clock supplies time for proposal deadlines and safety-net
	// timers. Defaults to the wall clock.
	Clock sim.Clock
	// Seed makes election randomization deterministic in tests.
	Seed int64
	// SnapshotThreshold bounds per-node log length before compaction.
	SnapshotThreshold int
	// ProposalTimeout bounds how long a client call waits for commit.
	// Defaults to 5s.
	ProposalTimeout time.Duration
	// Obs, when non-nil, wires the cluster into the platform's metrics
	// registry: propose→apply latency ("etcd.propose_apply") and
	// commands-per-entry batch sizes ("etcd.batch_size"). Nil leaves the
	// hot paths uninstrumented at zero cost.
	Obs *obs.Registry
}

func (o *Options) defaults() {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.TickInterval <= 0 {
		o.TickInterval = 5 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = sim.NewRealClock()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SnapshotThreshold <= 0 {
		o.SnapshotThreshold = 4096
	}
	if o.ProposalTimeout <= 0 {
		o.ProposalTimeout = 5 * time.Second
	}
}

// Cluster is an in-process replicated etcd: n Raft nodes, each applying
// committed commands to its own storeState replica. Client operations are
// routed to the leader. Exactly-once application is guaranteed by
// request-ID deduplication in the state machine, so a retried proposal
// (e.g. across a leader change) never double-applies. The dedup table
// holds only in-flight proposals: every entry carries the proposer's ack
// floor, below which no request is still waiting (see storeState).
type Cluster struct {
	opts      Options
	transport *memTransport
	nodes     []*node
	states    []*storeState

	lastRev atomic.Uint64 // highest revision returned to any client
	mu      sync.Mutex
	// reqSeq is the last minted ReqID. An ID is minted and registered in
	// waiters under mu in one step, so ackFloor can never pass an ID
	// that is minted but not yet waiting.
	reqSeq  uint64
	waiters map[uint64]*pending
	// ackFloor caches the lowest ReqID that may still be waiting; see
	// oldestLocked.
	ackFloor uint64
	// Group commit: propose() enqueues commands here (under mu) and the
	// batch loop drains the queue into one batch envelope per Raft
	// entry, so K concurrent proposals cost one replication round
	// instead of K. The loop swaps batchQ with spare on each drain, so
	// the two backing arrays are reused rather than regrown.
	batchQ  []*pending
	batchCh chan struct{} // signal, buffered(1)

	// Owned by the batch loop goroutine alone. timer is the cluster's one
	// proposal timer, armed exactly while some command waits (see pace).
	spare      []*pending
	envScratch []command
	timer      *sim.Timer
	timerArmed bool

	// leaderSig is closed and replaced whenever any node gains or sheds
	// leadership (or the topology changes): the event-driven wake for
	// WaitLeader, the batch loop and watchLoop. A cluster with a stable
	// leader holds no polling waiter.
	leaderMu  sync.Mutex
	leaderSig chan struct{}

	// Stats counters (Cluster.Stats).
	statCommands atomic.Uint64 // client commands proposed
	statEntries  atomic.Uint64 // Raft entries proposed (batch envelopes)
	statMaxBatch atomic.Uint64 // largest commands-per-entry batch seen

	// Registry instrument handles, derived once at NewCluster; nil when
	// Options.Obs is nil (nil instruments no-op for free).
	obsPropose *obs.Histogram // propose→apply latency per client command
	obsBatch   *obs.Histogram // commands per Raft entry at flush

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// NewCluster boots a Raft cluster and waits for a leader.
func NewCluster(opts Options) (*Cluster, error) {
	opts.defaults()
	c := &Cluster{
		opts:      opts,
		transport: newMemTransport(),
		waiters:   make(map[uint64]*pending),
		batchCh:   make(chan struct{}, 1),
		leaderSig: make(chan struct{}),
		stopCh:    make(chan struct{}),
	}
	if opts.Obs != nil {
		c.obsPropose = opts.Obs.Histogram("etcd.propose_apply")
		c.obsBatch = opts.Obs.HistogramWith("etcd.batch_size", obs.CountBuckets)
	}
	peers := make([]int, opts.Replicas)
	for i := range peers {
		peers[i] = i
	}
	rng := sim.NewRNG(opts.Seed)
	for i := 0; i < opts.Replicas; i++ {
		st := newStoreState()
		cfg := Config{
			ID: i, Peers: peers,
			SnapshotThreshold: opts.SnapshotThreshold,
			Snapshot:          st.snapshot,
			Restore:           func(data []byte, _ uint64) { st.restore(data) },
			OnLeaderChange:    c.notifyLeadership,
		}
		n := newNode(cfg, c.transport, rng.Stream(int64(i)), c.applier(st))
		c.nodes = append(c.nodes, n)
		c.states = append(c.states, st)
		c.transport.attach(n)
	}
	for _, n := range c.nodes {
		n.start(opts.TickInterval)
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.batchLoop()
	}()
	go func() {
		defer c.wg.Done()
		c.watchLoop()
	}()
	if _, err := c.WaitLeader(10 * time.Second); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// applier builds the synchronous apply callback for one replica: decode
// the committed entry — either a single command or a group-commit batch
// envelope — apply each command in order to this node's state replica
// (with per-replica ReqID dedup so retried proposals never
// double-apply) and complete the client waiter for each request. The
// whole envelope lives in one Raft entry, so a batch is atomic with
// respect to replication and snapshotting; sub-commands still apply
// (and emit watch events) individually, at their own revisions.
//
// The decode target is a per-replica scratch command reused across
// entries (including its Batch backing array): applyFunc runs under the
// owning node's mutex, so there is never a concurrent decode into the
// same scratch. Decoded values alias the entry buffer, which the state
// machine keeps as is (putLocked); key strings are materialized.
func (c *Cluster) applier(st *storeState) applyFunc {
	scratch := new(command)
	return func(a Applied) {
		if err := decodeCommand(a.Data, scratch); err != nil {
			return
		}
		// The floor covers the entry's own commands: one of them below it
		// was answered or given up on before this entry was flushed.
		st.raiseFloor(scratch.Floor)
		if scratch.Op == opBatch {
			for i := range scratch.Batch {
				c.applyOne(st, &scratch.Batch[i])
			}
		} else {
			c.applyOne(st, scratch)
		}
		// One apply barrier broadcast per entry (not per sub-command):
		// wakes leaderState waiters for read-your-writes checks.
		st.signalApply()
	}
}

// applyOne applies a single command to one replica and fans the result
// back to its waiter. The replica that applies a command first answers
// it; the waiter leaves the map in the same step, so a command is
// answered once however many replicas apply it. Answering the last
// waiter wakes the batch loop to disarm its timer.
func (c *Cluster) applyOne(st *storeState, cmd *command) {
	res := st.apply(cmd)
	c.mu.Lock()
	p := c.waiters[cmd.ReqID]
	if p != nil {
		delete(c.waiters, cmd.ReqID)
		p.answer(res)
	}
	idle := p != nil && len(c.waiters) == 0
	c.mu.Unlock()
	if idle {
		c.wakeLoop()
	}
}

// leaderIndex returns the current leader's index or -1. When a healed
// partition briefly leaves two nodes claiming leadership, the one with
// the higher term is the real leader — the deposed one just has not
// heard the new term yet — so routing prefers it instead of bouncing
// client traffic (and fault-injection tooling) off the stale claimant.
func (c *Cluster) leaderIndex() int {
	best, bestTerm := -1, uint64(0)
	for i, n := range c.nodes {
		if c.transport.isIsolated(i) {
			continue
		}
		if ok, term := n.leaderTerm(); ok && (best < 0 || term > bestTerm) {
			best, bestTerm = i, term
		}
	}
	return best
}

// notifyLeadership broadcasts a leadership / topology change to every
// event-driven waiter (WaitLeader, the batch loop, leaderState,
// watchLoop).
func (c *Cluster) notifyLeadership() {
	c.leaderMu.Lock()
	close(c.leaderSig)
	c.leaderSig = make(chan struct{})
	c.leaderMu.Unlock()
}

// leadershipSignal returns a channel that closes on the next leadership
// or topology change. Capture it BEFORE checking leaderIndex so a
// concurrent change cannot be missed.
func (c *Cluster) leadershipSignal() <-chan struct{} {
	c.leaderMu.Lock()
	defer c.leaderMu.Unlock()
	return c.leaderSig
}

// WaitLeader blocks until a leader is elected. Event-driven: the wait
// parks on the leadership-change broadcast rather than poll-sleeping,
// with an election-timeout-scale timer only as a safety net while
// leaderless (a cluster with a stable leader holds no waiter at all).
// Timers run on the configured Clock so simulated-clock runs stay
// deterministic, but the broadcast wake is clock-independent: a real
// election completing unsticks a stalled FakeClock waiter.
func (c *Cluster) WaitLeader(timeout time.Duration) (int, error) {
	clk := c.opts.Clock
	deadline := clk.Now().Add(timeout)
	for {
		sig := c.leadershipSignal()
		if li := c.leaderIndex(); li >= 0 {
			return li, nil
		}
		if !clk.Now().Before(deadline) {
			return -1, fmt.Errorf("etcd: no leader within %v", timeout)
		}
		t := clk.NewTimer(c.opts.TickInterval * electionTicksMax)
		select {
		case <-sig:
		case <-t.C:
			// Safety net: covers wake-free transitions such as an
			// isolation heal racing this registration.
		case <-c.stopCh:
			t.Stop()
			return -1, ErrStopped
		}
		t.Stop()
	}
}

// pending is one client command from propose until its answer.
type pending struct {
	cmd command
	// res is the one answer: the command's result, or ErrTimeout from
	// the batch loop. Whoever removes the waiter from Cluster.waiters
	// sets it, then signals done, which is buffered so the send never
	// blocks. A channel of empty structs is one allocation; one of
	// result, which holds an error, would be two.
	res      result
	done     chan struct{}
	deadline time.Time
	// queued marks a copy in batchQ (under Cluster.mu), so a command is
	// queued at most once.
	queued bool
}

// answer hands the waiter its result. The caller holds Cluster.mu and
// has just removed p from Cluster.waiters, so p is answered once.
func (p *pending) answer(res result) {
	p.res = res
	p.done <- struct{}{}
}

// enqueueLocked adds a waiting command to the group-commit queue unless
// it is already there. The caller holds mu and wakes the loop after.
func (c *Cluster) enqueueLocked(p *pending) {
	if !p.queued {
		p.queued = true
		c.batchQ = append(c.batchQ, p)
	}
}

// wakeLoop signals the batch loop.
func (c *Cluster) wakeLoop() {
	select {
	case c.batchCh <- struct{}{}:
	default:
	}
}

// batchLoop drains the proposal queue: everything queued while the
// previous Raft entry was being proposed is flushed as one batch
// envelope, so the commands-per-entry ratio adapts to load (1 when
// idle, large under bursts) with no added latency — there is no timer
// holding a batch open. The loop owns the cluster's one proposal timer
// (see pace): it is the only clock waiter proposals ever cost.
func (c *Cluster) batchLoop() {
	defer func() {
		if c.timer != nil {
			c.timer.Stop()
		}
	}()
	for {
		if q, floor := c.take(); q != nil {
			if len(q) > 0 {
				c.flush(q, floor)
			}
			clear(q)
			c.spare = q[:0]
			continue
		}
		c.pace(nil)
		var fired <-chan time.Time
		if c.timerArmed {
			fired = c.timer.C
		}
		select {
		case <-c.stopCh:
			return
		case <-c.batchCh:
		case <-fired:
			c.timerFired()
		}
	}
}

// take drains the queue for one entry, swapping in the spare backing
// array. It drops commands answered since they were queued and returns
// the rest — in the drained array, which the loop recycles as the next
// spare — with the entry's ack floor. It returns nil when the queue is
// empty.
func (c *Cluster) take() ([]*pending, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.batchQ
	if len(q) == 0 {
		return nil, 0
	}
	c.batchQ = c.spare
	live := q[:0]
	for _, p := range q {
		p.queued = false
		if c.waiters[p.cmd.ReqID] == p {
			live = append(live, p)
		}
	}
	clear(q[len(live):])
	c.oldestLocked() // steps ackFloor up to the oldest waiting ID
	return live, c.ackFloor
}

// flush encodes one drained queue into a single Raft entry — the
// command itself for a batch of one, a batch envelope otherwise —
// stamped with the ack floor, and proposes it to the leader.
func (c *Cluster) flush(q []*pending, floor uint64) {
	c.obsBatch.Observe(float64(len(q)))
	for n := uint64(len(q)); ; {
		cur := c.statMaxBatch.Load()
		if n <= cur || c.statMaxBatch.CompareAndSwap(cur, n) {
			break
		}
	}
	var data []byte
	if len(q) == 1 {
		one := q[0].cmd
		one.Floor = floor
		data = encodeEntry(&one)
	} else {
		env := command{Op: opBatch, Floor: floor, Batch: c.envScratch[:0]}
		for _, p := range q {
			env.Batch = append(env.Batch, p.cmd)
		}
		data = encodeEntry(&env)
		// The entry holds its own copy; drop the scratch's references.
		clear(env.Batch)
		c.envScratch = env.Batch[:0]
	}
	c.proposeEntry(data, q)
}

// oldestLocked returns the waiting command with the lowest ReqID — the
// oldest, so the first to reach its deadline — or nil when none waits.
// It steps ackFloor up to that ID, or to reqSeq+1: every ID below the
// floor was answered — so it applied at an earlier, committed index — or
// its proposer gave up. IDs are minted in order and a waiter never
// returns once gone, so the floor only steps forward, over each ID
// once: no scan of waiters per entry.
func (c *Cluster) oldestLocked() *pending {
	for c.ackFloor <= c.reqSeq {
		if p := c.waiters[c.ackFloor]; p != nil {
			return p
		}
		c.ackFloor++
	}
	return nil
}

// pace keeps the batch loop's one timer armed exactly while some command
// waits: it stops the timer when none does, and otherwise arms it, if
// it is not armed, to fire at the oldest command's deadline or after an
// election timeout — by then a lost leader has been replaced, if it is
// going to be — whichever is sooner. Deadlines rise with ReqIDs, so a
// timer armed for the oldest command fires no later than any newer
// command's deadline. pace reports whether any command of q (an entry
// in flight) still waits.
func (c *Cluster) pace(q []*pending) bool {
	c.mu.Lock()
	live := false
	for _, p := range q {
		if c.waiters[p.cmd.ReqID] == p {
			live = true
			break
		}
	}
	oldest := c.oldestLocked()
	var deadline time.Time
	if oldest != nil {
		deadline = oldest.deadline
	}
	c.mu.Unlock()
	switch {
	case oldest == nil:
		if c.timerArmed {
			c.timer.Stop()
			c.timerArmed = false
		}
	case !c.timerArmed:
		clk := c.opts.Clock
		d := min(c.opts.TickInterval*electionTicksMax, deadline.Sub(clk.Now()))
		if c.timer == nil {
			c.timer = clk.NewTimer(d)
		} else {
			c.timer.Reset(d)
		}
		c.timerArmed = true
	}
	return live
}

// timerFired answers ErrTimeout to every command past its deadline and
// re-queues every other waiting command, in case its entry was lost
// without a leadership signal to say so; a copy whose entry applies
// meanwhile is dropped by take. A stale firing of a timer that pace has
// since stopped does nothing.
func (c *Cluster) timerFired() {
	if !c.timerArmed {
		return
	}
	c.timerArmed = false
	now := c.opts.Clock.Now()
	c.mu.Lock()
	for id, p := range c.waiters {
		if now.Before(p.deadline) {
			c.enqueueLocked(p)
			continue
		}
		delete(c.waiters, id)
		p.answer(result{err: ErrTimeout})
	}
	c.mu.Unlock()
}

// park blocks the batch loop, while it proposes or awaits the entry
// carrying q, until the leadership broadcast sig, the replica's apply
// barrier (nil while there is no leader), the loop's timer or stop. It
// reports false — give the entry up — on stop, or when none of q's
// commands waits any more: each was answered, or timed out.
func (c *Cluster) park(sig, applied <-chan struct{}, q []*pending) bool {
	if !c.pace(q) {
		return false
	}
	var fired <-chan time.Time
	if c.timerArmed {
		fired = c.timer.C
	}
	select {
	case <-sig:
	case <-applied:
	case <-fired:
		c.timerFired()
	case <-c.stopCh:
		return false
	}
	return true
}

// proposeEntry hands one encoded entry, carrying the commands q, to the
// current leader, parking on the leadership broadcast while no leader
// is reachable, then waits for the entry to apply (the group-commit
// pacing: commands arriving during the replication round accumulate
// into the next batch). It gives the entry up on stop or once none of
// q's commands waits; the loop's timer bounds every wait, and re-proposal
// of a command whose entry is lost belongs to its waiter (on the
// leadership broadcast) or to timerFired, under the same ReqID, which
// dedup keeps exactly-once.
func (c *Cluster) proposeEntry(data []byte, q []*pending) {
	for {
		sig := c.leadershipSignal()
		if li := c.leaderIndex(); li >= 0 {
			if idx, _, err := c.nodes[li].Propose(data); err == nil {
				c.statEntries.Add(1)
				c.awaitApplied(li, idx, q)
				return
			}
		}
		if !c.park(sig, nil, q) {
			return
		}
	}
}

// awaitApplied parks on the proposing replica's apply barrier until it
// has applied through idx — the single-in-flight-entry window that
// makes group commit actually group: without it the batch loop drains
// the queue faster than proposals arrive and every entry carries one
// command. It wakes on the barrier, the leadership broadcast and the
// loop's timer, and returns once leadership moves off li or none of q's
// commands waits; command-level re-proposal owns correctness.
func (c *Cluster) awaitApplied(li int, idx uint64, q []*pending) {
	st := c.states[li]
	for {
		sig := c.leadershipSignal()
		applied := st.applyBarrier()
		if c.nodes[li].appliedAtLeast(idx) || c.leaderIndex() != li {
			return
		}
		if !c.park(sig, applied, q) {
			return
		}
	}
}

// propose submits a command for group commit and waits for its answer.
// It holds no timer: it wakes on its result, on the leadership
// broadcast — after which it re-queues the command under the same
// request ID, so a proposal lost with a deposed leader is made again
// and the state machine still applies it once — and on stop. The batch
// loop's timer answers ErrTimeout once ProposalTimeout has passed.
func (c *Cluster) propose(cmd command) (result, error) {
	if c.stopped.Load() {
		return result{}, ErrStopped
	}
	c.statCommands.Add(1)
	if c.obsPropose != nil {
		start := c.opts.Clock.Now()
		defer func() { c.obsPropose.ObserveDuration(c.opts.Clock.Now().Sub(start)) }()
	}
	p := &pending{cmd: cmd, done: make(chan struct{}, 1)}
	// Capture the broadcast before queueing: a leadership change after
	// the command can have reached a leader must wake this waiter.
	sig := c.leadershipSignal()
	c.mu.Lock()
	c.reqSeq++
	id := c.reqSeq
	p.cmd.ReqID = id
	// Set under mu with the ID, so deadlines rise with ReqIDs.
	p.deadline = c.opts.Clock.Now().Add(c.opts.ProposalTimeout)
	c.waiters[id] = p
	c.enqueueLocked(p)
	c.mu.Unlock()
	c.wakeLoop()
	for {
		select {
		case <-p.done:
			c.noteRev(p.res.rev)
			return p.res, p.res.err
		case <-sig:
			sig = c.leadershipSignal()
			c.mu.Lock()
			if c.waiters[id] == p {
				c.enqueueLocked(p)
			}
			c.mu.Unlock()
			c.wakeLoop()
		case <-c.stopCh:
			c.mu.Lock()
			delete(c.waiters, id)
			c.mu.Unlock()
			return result{}, ErrStopped
		}
	}
}

// opBatch marks a group-commit envelope: command.Batch carries the
// drained proposal queue, replicated as one Raft entry and applied
// in order.
const opBatch cmdOp = 98

// Put stores value under key. Leases are not supported: a non-zero
// lease is an error and writes nothing.
func (c *Cluster) Put(key string, value []byte, lease int64) (uint64, error) {
	if lease != 0 {
		return 0, fmt.Errorf("etcd: put %q: leases are not supported", key)
	}
	res, err := c.propose(command{Op: opPut, Key: key, Value: value})
	return res.rev, err
}

// Delete removes a key. It reports whether the key existed.
func (c *Cluster) Delete(key string) (bool, error) {
	res, err := c.propose(command{Op: opDelete, Key: key})
	return res.ok, err
}

// DeletePrefix removes every key under prefix, returning whether any
// existed. FfDL uses this to erase a DL job's coordination state after it
// terminates (§3.2: "a DL job's data is erased after it terminates").
func (c *Cluster) DeletePrefix(prefix string) (bool, error) {
	res, err := c.propose(command{Op: opDelete, Key: prefix, Prefix: true})
	return res.ok, err
}

// Get returns the value for key from the leader's replica.
func (c *Cluster) Get(key string) (KV, bool, error) {
	st, err := c.leaderState()
	if err != nil {
		return KV{}, false, err
	}
	kv, ok := st.get(key)
	return kv, ok, nil
}

// List returns all keys under prefix from the leader's replica.
func (c *Cluster) List(prefix string) ([]KV, error) {
	st, err := c.leaderState()
	if err != nil {
		return nil, err
	}
	return st.list(prefix), nil
}

// noteRev records the highest revision handed back to any client, which
// reads then use as a read-your-writes barrier.
func (c *Cluster) noteRev(rev uint64) {
	for {
		cur := c.lastRev.Load()
		if rev <= cur || c.lastRev.CompareAndSwap(cur, rev) {
			return
		}
	}
}

// leaderState returns the leader's replica once it has applied every
// revision previously acknowledged to a client. A proposal is
// acknowledged as soon as *some* replica applies it; waiting here closes
// the window in which the leader's own apply loop lags, guaranteeing
// read-your-writes for Get/List/Watch registration. Event-driven: the
// wait parks on the replica's apply barrier (one broadcast per applied
// entry) instead of poll-sleeping; a caught-up leader returns without
// arming any timer.
func (c *Cluster) leaderState() (*storeState, error) {
	li := c.leaderIndex()
	if li < 0 {
		var err error
		li, err = c.WaitLeader(c.opts.ProposalTimeout)
		if err != nil {
			return nil, err
		}
	}
	st := c.states[li]
	want := c.lastRev.Load()
	clk := c.opts.Clock
	deadline := clk.Now().Add(c.opts.ProposalTimeout)
	for {
		sig := st.applyBarrier()
		if st.revision() >= want {
			return st, nil
		}
		if clk.Now().After(deadline) {
			return nil, ErrTimeout
		}
		// The timer is a safety net for leadership moving mid-wait (the
		// new leader's applies would not signal this replica's barrier).
		t := clk.NewTimer(c.opts.TickInterval * 2)
		select {
		case <-sig:
		case <-t.C:
		case <-c.stopCh:
			t.Stop()
			return nil, ErrStopped
		}
		t.Stop()
		if li2 := c.leaderIndex(); li2 >= 0 && li2 != li {
			li = li2
			st = c.states[li]
		}
	}
}

// Isolate cuts a node off from the cluster (on=true), modeling a crash or
// partition; on=false heals it and the node catches up via replication.
// Counts as a topology change for the leadership broadcast: healing can
// make an existing leader reachable again without any role transition.
func (c *Cluster) Isolate(id int, on bool) {
	c.transport.Isolate(id, on)
	c.notifyLeadership()
}

// cutLink severs or heals the link between two members.
func (c *Cluster) cutLink(a, b int, on bool) {
	c.transport.CutLink(a, b, on)
	c.notifyLeadership()
}

// Leader returns the current leader id, or -1.
func (c *Cluster) Leader() int { return c.leaderIndex() }

// Clock returns the clock the cluster runs on, so chaos harnesses can
// pace their convergence waits in the same (possibly virtual) time.
func (c *Cluster) Clock() sim.Clock { return c.opts.Clock }

// SnapshotRestores returns the total number of snapshot restores applied
// across all replicas — the count chaos runs report as snapshot-restore
// rejoins.
func (c *Cluster) SnapshotRestores() uint64 {
	var n uint64
	for _, st := range c.states {
		n += st.restoreCount()
	}
	return n
}

// Replicas returns the cluster size.
func (c *Cluster) Replicas() int { return len(c.nodes) }

// ClusterStats reports proposal and replication traffic totals since
// boot — the batching-efficacy accounting behind the platform's etcd.*
// gauges.
type ClusterStats struct {
	// Commands is the number of client commands proposed.
	Commands uint64
	// Entries is the number of Raft entries those commands were packed
	// into (batch envelopes count once). Commands/Entries is the group
	// commit ratio; 1.0 means no batching happened.
	Entries uint64
	// MaxBatch is the largest commands-per-entry batch observed.
	MaxBatch uint64
	// AppendsSent / EntriesSent are append+snapshot messages and log
	// entries shipped across all nodes. Pipelined replication keeps
	// EntriesSent near Entries×(replicas-1).
	AppendsSent uint64
	EntriesSent uint64
}

// Stats returns the cluster's traffic counters.
func (c *Cluster) Stats() ClusterStats {
	s := ClusterStats{
		Commands: c.statCommands.Load(),
		Entries:  c.statEntries.Load(),
		MaxBatch: c.statMaxBatch.Load(),
	}
	for _, n := range c.nodes {
		m, e := n.trafficStats()
		s.AppendsSent += m
		s.EntriesSent += e
	}
	return s
}

// StateEqual reports whether two replicas hold identical KV maps; used by
// invariant tests.
func (c *Cluster) StateEqual(a, b int) bool {
	ka := c.states[a].list("")
	kb := c.states[b].list("")
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i].Key != kb[i].Key || !bytes.Equal(ka[i].Value, kb[i].Value) ||
			ka[i].ModRevision != kb[i].ModRevision {
			return false
		}
	}
	return true
}

// Stop terminates the cluster.
func (c *Cluster) Stop() {
	if !c.stopped.CompareAndSwap(false, true) {
		return
	}
	close(c.stopCh)
	for _, n := range c.nodes {
		n.stop()
	}
	c.transport.stop()
	c.wg.Wait()
}
