// Package etcd implements the coordination store FfDL uses between the
// Guardian/LCM and the per-job controller: a Raft-replicated key-value
// store with revisions and per-key/prefix streaming watches. The paper
// (§3.2) also names leases among the reasons etcd was preferred over
// MongoDB for coordination; nothing here uses them — jobs are recovered
// from MongoDB by the LCM's scan — so the store does not implement them.
//
// The Raft implementation follows the Raft paper: randomized election
// timeouts, log replication with consistency checks, commitment only of
// current-term entries by counting replicas, and snapshot-based log
// compaction for lagging followers.
package etcd

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// role is a Raft server role.
type role int

const (
	follower role = iota + 1
	candidate
	leader
)

func (r role) String() string {
	switch r {
	case follower:
		return "follower"
	case candidate:
		return "candidate"
	case leader:
		return "leader"
	default:
		return "unknown"
	}
}

// entry is a Raft log entry.
type entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// Message is the single Raft RPC envelope; Kind selects the semantics.
// Using one envelope keeps the in-memory transport trivial.
type Message struct {
	Kind MsgKind
	From int
	To   int
	Term uint64

	// RequestVote / response
	LastLogIndex uint64
	LastLogTerm  uint64
	VoteGranted  bool

	// AppendEntries / response
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []entry
	LeaderCommit uint64
	Success      bool
	MatchIndex   uint64
	ConflictHint uint64 // follower's suggested nextIndex on rejection

	// InstallSnapshot
	SnapshotData  []byte
	SnapshotIndex uint64
	SnapshotTerm  uint64
}

// MsgKind discriminates Raft messages.
type MsgKind int

// Message kinds.
const (
	MsgVoteRequest MsgKind = iota + 1
	MsgVoteResponse
	MsgAppend
	MsgAppendResponse
	MsgSnapshot
	MsgSnapshotResponse
)

// Transport delivers messages between Raft peers. Implementations may
// drop, delay or partition traffic (see memTransport). Messages travel
// by value, so sending an append, a response or a heartbeat allocates
// nothing; an append's Entries is a read-only view of the sender's log
// (see entriesFrom), which neither side writes.
type Transport interface {
	// Send delivers m to m.To asynchronously. Delivery may fail silently.
	Send(m Message)
}

// Applied is a committed command handed to the state machine.
type Applied struct {
	Index uint64
	Term  uint64
	Data  []byte
}

// applyFunc consumes committed entries. It is invoked synchronously
// from the Raft node so that log compaction always snapshots a state
// machine that has fully caught up with lastApplied — an asynchronous
// hand-off here once produced snapshots that silently dropped the tail
// of the log on restoring followers.
type applyFunc func(Applied)

// Config parameterizes a Raft node.
type Config struct {
	// ID is this node's identity; Peers lists all cluster members
	// (including self).
	ID    int
	Peers []int
	// SnapshotThreshold triggers log compaction once the log exceeds this
	// many applied entries. Zero selects a default of 4096.
	SnapshotThreshold int
	// Snapshot captures state machine state for compaction; Restore
	// rebuilds it on InstallSnapshot. Both must be non-nil if
	// SnapshotThreshold > 0 entries will ever be exceeded.
	Snapshot func() []byte
	Restore  func(data []byte, index uint64)
	// OnLeaderChange, when non-nil, is invoked (with the node lock held)
	// whenever this node gains or sheds leadership. The Cluster uses it
	// to wake WaitLeader/propose waiters instead of having them poll.
	// The callback must not call back into the node.
	OnLeaderChange func()
}

// node is a single Raft server.
type node struct {
	mu sync.Mutex

	id    int
	peers []int
	role  role

	// Persistent state (kept in memory for the in-process cluster; the
	// paper's deployment persists it via etcd's WAL).
	currentTerm uint64
	votedFor    int // -1 when none
	log         []entry
	// snapshot state: log entries <= snapIndex are compacted away.
	snapIndex uint64
	snapTerm  uint64
	snapData  []byte

	commitIndex uint64
	lastApplied uint64

	// Leader state.
	nextIndex  map[int]uint64
	matchIndex map[int]uint64
	// sentIndex is the replication pipeline frontier: the highest log
	// index optimistically shipped to each peer. Appends send only
	// (sentIndex, lastIndex]; a rejection or a heartbeat probe that
	// fails resets it to nextIndex-1 and re-ships.
	sentIndex map[int]uint64

	votes map[int]bool

	// Replication traffic counters (under mu), exposed via Cluster.Stats.
	msgsSent    uint64
	entriesSent uint64

	transport Transport
	applyFn   applyFunc

	electionElapsed  int
	heartbeatElapsed int
	electionTimeout  int // randomized per election, in ticks

	rng interface{ Intn(int) int }

	snapshotThreshold int
	snapshotFn        func() []byte
	restoreFn         func([]byte, uint64)
	onLeaderChange    func()

	stopped bool
	stopCh  chan struct{}
	tickWG  sync.WaitGroup

	// leaderHint is the last observed leader, for client redirection.
	leaderHint int
}

const (
	electionTicksMin = 10
	electionTicksMax = 20
	heartbeatTicks   = 3
)

// newNode constructs (but does not start) a Raft node.
func newNode(cfg Config, transport Transport, rng interface{ Intn(int) int }, apply applyFunc) *node {
	n := &node{
		id:                cfg.ID,
		peers:             append([]int(nil), cfg.Peers...),
		role:              follower,
		votedFor:          -1,
		transport:         transport,
		applyFn:           apply,
		rng:               rng,
		nextIndex:         make(map[int]uint64),
		matchIndex:        make(map[int]uint64),
		sentIndex:         make(map[int]uint64),
		snapshotThreshold: cfg.SnapshotThreshold,
		snapshotFn:        cfg.Snapshot,
		restoreFn:         cfg.Restore,
		onLeaderChange:    cfg.OnLeaderChange,
		stopCh:            make(chan struct{}),
		leaderHint:        -1,
	}
	if n.snapshotThreshold == 0 {
		n.snapshotThreshold = 4096
	}
	n.resetElectionTimeout()
	return n
}

// start launches the tick loop: tick is the logical clock period.
// Election timeouts are 10-20 ticks; heartbeats every 3 ticks.
func (n *node) start(tick time.Duration) {
	n.tickWG.Add(1)
	go func() {
		defer n.tickWG.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-n.stopCh:
				return
			case <-t.C:
				n.tick()
			}
		}
	}()
}

// stop halts the node.
func (n *node) stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stopCh)
	n.mu.Unlock()
	n.tickWG.Wait()
}

func (n *node) resetElectionTimeout() {
	n.electionTimeout = electionTicksMin + n.rng.Intn(electionTicksMax-electionTicksMin+1)
	n.electionElapsed = 0
}

// --- log accessors (lock held) ---

func (n *node) lastIndex() uint64 {
	if len(n.log) == 0 {
		return n.snapIndex
	}
	return n.log[len(n.log)-1].Index
}

func (n *node) lastTerm() uint64 {
	if len(n.log) == 0 {
		return n.snapTerm
	}
	return n.log[len(n.log)-1].Term
}

// termAt returns the term of the entry at index, or (0,false) if the
// index has been compacted away or is beyond the log.
func (n *node) termAt(index uint64) (uint64, bool) {
	if index == 0 {
		return 0, true
	}
	if index == n.snapIndex {
		return n.snapTerm, true
	}
	if index < n.snapIndex || index > n.lastIndex() {
		return 0, false
	}
	return n.log[index-n.snapIndex-1].Term, true
}

// entriesFrom returns the log suffix from index on as a view of the
// log, capped at its length: an append ships it without a copy. The
// view stays valid because nothing rewrites a log entry in place — the
// leader only appends past the cap, and the two paths that drop entries
// (a follower's conflict truncation, compactLocked) move the log to a
// fresh array — so a view already in flight never changes.
func (n *node) entriesFrom(index uint64) []entry {
	if index > n.lastIndex() {
		return nil
	}
	if index <= n.snapIndex {
		return nil
	}
	return slices.Clip(n.log[index-n.snapIndex-1:])
}

// tick advances logical time: followers/candidates count toward election
// timeouts, leaders toward heartbeats.
func (n *node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	switch n.role {
	case leader:
		n.heartbeatElapsed++
		if n.heartbeatElapsed >= heartbeatTicks {
			n.heartbeatElapsed = 0
			n.broadcastAppendLocked()
		}
	default:
		n.electionElapsed++
		if n.electionElapsed >= n.electionTimeout {
			n.campaignLocked()
		}
	}
}

// campaignLocked starts a new election.
func (n *node) campaignLocked() {
	n.role = candidate
	n.currentTerm++
	n.votedFor = n.id
	n.votes = map[int]bool{n.id: true}
	n.resetElectionTimeout()
	lastIdx, lastTerm := n.lastIndex(), n.lastTerm()
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.transport.Send(Message{
			Kind: MsgVoteRequest, From: n.id, To: p, Term: n.currentTerm,
			LastLogIndex: lastIdx, LastLogTerm: lastTerm,
		})
	}
	if n.quorum(len(n.votes)) {
		n.becomeLeaderLocked()
	}
}

func (n *node) quorum(k int) bool { return k >= len(n.peers)/2+1 }

func (n *node) becomeLeaderLocked() {
	n.role = leader
	n.leaderHint = n.id
	n.heartbeatElapsed = 0
	for _, p := range n.peers {
		n.nextIndex[p] = n.lastIndex() + 1
		n.matchIndex[p] = 0
		n.sentIndex[p] = n.lastIndex()
	}
	n.matchIndex[n.id] = n.lastIndex()
	// Raft requires committing a no-op from the current term before the
	// leader can safely commit earlier-term entries.
	n.appendLocked(nil)
	n.broadcastAppendLocked()
	if n.onLeaderChange != nil {
		n.onLeaderChange()
	}
}

func (n *node) becomeFollowerLocked(term uint64, leaderID int) {
	wasLeader := n.role == leader
	n.role = follower
	n.currentTerm = term
	n.votedFor = -1
	if leaderID >= 0 {
		n.leaderHint = leaderID
	}
	n.resetElectionTimeout()
	if wasLeader && n.onLeaderChange != nil {
		n.onLeaderChange()
	}
}

// appendLocked appends a command to the leader's log and returns its index.
func (n *node) appendLocked(data []byte) uint64 {
	idx := n.lastIndex() + 1
	n.log = append(n.log, entry{Term: n.currentTerm, Index: idx, Data: data})
	n.matchIndex[n.id] = idx
	return idx
}

// Propose submits a command. It returns the prospective (index, term) or
// an error if this node is not the leader.
func (n *node) Propose(data []byte) (uint64, uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return 0, 0, fmt.Errorf("etcd: node %d stopped", n.id)
	}
	if n.role != leader {
		return 0, 0, &NotLeaderError{LeaderHint: n.leaderHint}
	}
	idx := n.appendLocked(data)
	term := n.currentTerm
	n.broadcastAppendLocked()
	// Single-node clusters commit immediately.
	n.maybeCommitLocked()
	return idx, term, nil
}

// NotLeaderError redirects clients to the current leader, mirroring etcd's
// leader-forwarding behaviour.
type NotLeaderError struct{ LeaderHint int }

// Error implements error.
func (e *NotLeaderError) Error() string {
	return fmt.Sprintf("etcd: not leader (hint %d)", e.LeaderHint)
}

func (n *node) broadcastAppendLocked() {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.sendAppendLocked(p)
	}
}

// sendFrom computes the first index the next append to a peer should
// carry: the pipeline frontier (everything up to sentIndex is already
// in flight and is not re-sent), never below nextIndex.
func (n *node) sendFrom(to int) uint64 {
	from := n.nextIndex[to]
	if s := n.sentIndex[to] + 1; s > from {
		from = s
	}
	if last := n.lastIndex(); from > last+1 {
		from = last + 1
	}
	return from
}

func (n *node) sendAppendLocked(to int) {
	if n.nextIndex[to] <= n.snapIndex {
		// Follower is too far behind: ship the snapshot.
		n.transport.Send(Message{
			Kind: MsgSnapshot, From: n.id, To: to, Term: n.currentTerm,
			SnapshotData: n.snapData, SnapshotIndex: n.snapIndex, SnapshotTerm: n.snapTerm,
		})
		n.msgsSent++
		if n.sentIndex[to] < n.snapIndex {
			n.sentIndex[to] = n.snapIndex
		}
		return
	}
	from := n.sendFrom(to)
	prevIndex := from - 1
	prevTerm, ok := n.termAt(prevIndex)
	if !ok {
		// Frontier compacted away since the last send: fall back to the
		// snapshot path on the next heartbeat.
		n.sentIndex[to] = n.snapIndex
		return
	}
	entries := n.entriesFrom(from)
	// An empty append doubles as heartbeat and as a probe of the
	// pipeline frontier: if an in-flight append was lost, the follower
	// rejects prevIndex and the leader backs up and re-ships.
	n.transport.Send(Message{
		Kind: MsgAppend, From: n.id, To: to, Term: n.currentTerm,
		PrevLogIndex: prevIndex, PrevLogTerm: prevTerm,
		Entries: entries, LeaderCommit: n.commitIndex,
	})
	n.msgsSent++
	n.entriesSent += uint64(len(entries))
	if last := n.lastIndex(); n.sentIndex[to] < last {
		n.sentIndex[to] = last
	}
}

// Step processes an incoming message.
func (n *node) Step(m *Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	if m.Term > n.currentTerm {
		leaderID := -1
		if m.Kind == MsgAppend || m.Kind == MsgSnapshot {
			leaderID = m.From
		}
		n.becomeFollowerLocked(m.Term, leaderID)
	}
	switch m.Kind {
	case MsgVoteRequest:
		n.handleVoteRequestLocked(m)
	case MsgVoteResponse:
		n.handleVoteResponseLocked(m)
	case MsgAppend:
		n.handleAppendLocked(m)
	case MsgAppendResponse:
		n.handleAppendResponseLocked(m)
	case MsgSnapshot:
		n.handleSnapshotLocked(m)
	case MsgSnapshotResponse:
		n.handleAppendResponseLocked(m)
	}
}

func (n *node) handleVoteRequestLocked(m *Message) {
	granted := false
	if m.Term >= n.currentTerm && (n.votedFor == -1 || n.votedFor == m.From) {
		// Candidate's log must be at least as up to date (§5.4.1).
		upToDate := m.LastLogTerm > n.lastTerm() ||
			(m.LastLogTerm == n.lastTerm() && m.LastLogIndex >= n.lastIndex())
		if upToDate {
			granted = true
			n.votedFor = m.From
			n.resetElectionTimeout()
		}
	}
	n.transport.Send(Message{
		Kind: MsgVoteResponse, From: n.id, To: m.From,
		Term: n.currentTerm, VoteGranted: granted,
	})
}

func (n *node) handleVoteResponseLocked(m *Message) {
	if n.role != candidate || m.Term != n.currentTerm || !m.VoteGranted {
		return
	}
	n.votes[m.From] = true
	if n.quorum(len(n.votes)) {
		n.becomeLeaderLocked()
	}
}

func (n *node) handleAppendLocked(m *Message) {
	reject := func(hint uint64) {
		n.transport.Send(Message{
			Kind: MsgAppendResponse, From: n.id, To: m.From,
			Term: n.currentTerm, Success: false, ConflictHint: hint,
		})
	}
	if m.Term < n.currentTerm {
		reject(0)
		return
	}
	// Valid leader for this term.
	if n.role != follower {
		n.becomeFollowerLocked(m.Term, m.From)
	}
	n.leaderHint = m.From
	n.resetElectionTimeout()

	prevTerm, ok := n.termAt(m.PrevLogIndex)
	if !ok || prevTerm != m.PrevLogTerm {
		// Fast backup: suggest the start of our last term run or our log
		// end, whichever is smaller.
		hint := n.lastIndex() + 1
		if ok && prevTerm != m.PrevLogTerm {
			hint = m.PrevLogIndex
			for hint > n.snapIndex+1 {
				t, ok2 := n.termAt(hint - 1)
				if !ok2 || t != prevTerm {
					break
				}
				hint--
			}
		}
		reject(hint)
		return
	}
	// Append new entries, truncating conflicts.
	for _, e := range m.Entries {
		t, ok := n.termAt(e.Index)
		switch {
		case !ok && e.Index > n.lastIndex():
			n.log = append(n.log, e)
		case ok && t != e.Term:
			// Conflict: delete this and all that follow, then append —
			// into a fresh array, since appends this node sent while it
			// led may still hold views of the old one.
			keep := n.log[:e.Index-n.snapIndex-1]
			n.log = append(slices.Clip(keep), e)
		case !ok:
			// Entry within compacted prefix: already applied; skip.
		}
	}
	if m.LeaderCommit > n.commitIndex {
		n.commitIndex = min(m.LeaderCommit, n.lastIndex())
		n.applyCommittedLocked()
	}
	n.transport.Send(Message{
		Kind: MsgAppendResponse, From: n.id, To: m.From,
		Term: n.currentTerm, Success: true, MatchIndex: n.lastIndex(),
	})
}

func (n *node) handleAppendResponseLocked(m *Message) {
	if n.role != leader || m.Term != n.currentTerm {
		return
	}
	if m.Success {
		if m.MatchIndex > n.matchIndex[m.From] {
			n.matchIndex[m.From] = m.MatchIndex
		}
		n.nextIndex[m.From] = n.matchIndex[m.From] + 1
		if n.sentIndex[m.From] < n.matchIndex[m.From] {
			n.sentIndex[m.From] = n.matchIndex[m.From]
		}
		n.maybeCommitLocked()
		if n.sendFrom(m.From) <= n.lastIndex() {
			n.sendAppendLocked(m.From)
		}
		return
	}
	// Rejected: back up nextIndex, rewind the pipeline frontier to it,
	// and re-ship the suffix.
	next := n.nextIndex[m.From]
	if m.ConflictHint > 0 && m.ConflictHint < next {
		n.nextIndex[m.From] = m.ConflictHint
	} else if next > 1 {
		n.nextIndex[m.From] = next - 1
	}
	n.sentIndex[m.From] = n.nextIndex[m.From] - 1
	n.sendAppendLocked(m.From)
}

func (n *node) handleSnapshotLocked(m *Message) {
	if m.Term < n.currentTerm {
		n.transport.Send(Message{Kind: MsgSnapshotResponse, From: n.id, To: m.From, Term: n.currentTerm})
		return
	}
	n.leaderHint = m.From
	n.resetElectionTimeout()
	if m.SnapshotIndex <= n.snapIndex || m.SnapshotIndex <= n.lastApplied {
		// Stale snapshot.
		n.transport.Send(Message{
			Kind: MsgSnapshotResponse, From: n.id, To: m.From,
			Term: n.currentTerm, Success: true, MatchIndex: n.lastIndex(),
		})
		return
	}
	n.snapIndex, n.snapTerm = m.SnapshotIndex, m.SnapshotTerm
	n.snapData = m.SnapshotData
	n.log = nil
	n.commitIndex = m.SnapshotIndex
	n.lastApplied = m.SnapshotIndex
	if n.restoreFn != nil {
		n.restoreFn(m.SnapshotData, m.SnapshotIndex)
	}
	n.transport.Send(Message{
		Kind: MsgSnapshotResponse, From: n.id, To: m.From,
		Term: n.currentTerm, Success: true, MatchIndex: m.SnapshotIndex,
	})
}

// maybeCommitLocked advances commitIndex to the largest index replicated
// on a quorum whose entry is from the current term (§5.4.2).
func (n *node) maybeCommitLocked() {
	if n.role != leader {
		return
	}
	// Every append response lands here: the match indexes sort on the
	// stack (clusters of up to 8), so a commit check allocates nothing.
	var buf [8]uint64
	matches := buf[:0]
	for _, p := range n.peers {
		matches = append(matches, n.matchIndex[p])
	}
	slices.Sort(matches)
	// The largest index a quorum holds is the ((n-1)/2)-th smallest.
	candidateIdx := matches[(len(matches)-1)/2]
	if candidateIdx <= n.commitIndex {
		return
	}
	if t, ok := n.termAt(candidateIdx); ok && t == n.currentTerm {
		n.commitIndex = candidateIdx
		n.applyCommittedLocked()
		// Propagate the new commit index promptly.
		n.broadcastAppendLocked()
	}
}

// applyCommittedLocked feeds committed entries to the apply channel and
// compacts the log when it grows past the snapshot threshold.
func (n *node) applyCommittedLocked() {
	for n.lastApplied < n.commitIndex {
		idx := n.lastApplied + 1
		if idx <= n.snapIndex {
			n.lastApplied = n.snapIndex
			continue
		}
		e := n.log[idx-n.snapIndex-1]
		n.lastApplied = idx
		if e.Data != nil && n.applyFn != nil {
			// Synchronous apply: by the time lastApplied advances, the
			// state machine reflects the entry, so snapshots taken at
			// lastApplied are exact.
			n.applyFn(Applied{Index: e.Index, Term: e.Term, Data: e.Data})
		}
	}
	if len(n.log) > n.snapshotThreshold && n.snapshotFn != nil {
		n.compactLocked()
	}
}

func (n *node) compactLocked() {
	// Compact up to lastApplied.
	if n.lastApplied <= n.snapIndex {
		return
	}
	term, ok := n.termAt(n.lastApplied)
	if !ok {
		return
	}
	n.snapData = n.snapshotFn()
	// A copy, not a view: the old array (and every compacted entry's
	// data) is freed once the appends in flight that view it land.
	keep := slices.Clone(n.entriesFrom(n.lastApplied + 1))
	n.snapIndex, n.snapTerm = n.lastApplied, term
	n.log = keep
}

// isLeader reports role and term for tests and client routing.
func (n *node) isLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leader
}

// leaderTerm reports whether this node claims leadership, and at what
// term — the tiebreaker between a real leader and a healed stale one.
func (n *node) leaderTerm() (bool, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leader, n.currentTerm
}

// trafficStats returns the append/snapshot messages and log entries this
// node has shipped, for Cluster.Stats' fan-out accounting.
func (n *node) trafficStats() (msgs, entries uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.msgsSent, n.entriesSent
}

// appliedAtLeast reports whether this node's state machine has applied
// through idx — the group-commit pacing check.
func (n *node) appliedAtLeast(idx uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastApplied >= idx
}
