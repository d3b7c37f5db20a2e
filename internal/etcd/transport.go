package etcd

import (
	"sync"
)

// memTransport delivers Raft messages between in-process nodes through
// per-node queues of Message values, preserving per-sender ordering. It
// supports fault injection: dropping a node's traffic (crash) and
// partitioning links.
type memTransport struct {
	mu       sync.Mutex
	nodes    map[int]*node
	queues   map[int]chan Message
	isolated map[int]bool
	cut      map[[2]int]bool // unordered pair -> link down
	stopped  bool
	wg       sync.WaitGroup
}

func newMemTransport() *memTransport {
	return &memTransport{
		nodes:    make(map[int]*node),
		queues:   make(map[int]chan Message),
		isolated: make(map[int]bool),
		cut:      make(map[[2]int]bool),
	}
}

// attach registers a node and starts its delivery pump.
func (t *memTransport) attach(n *node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[n.id] = n
	q := make(chan Message, 1024)
	t.queues[n.id] = q
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for m := range q {
			n.Step(&m)
		}
	}()
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Send implements Transport.
func (t *memTransport) Send(m Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.isolated[m.From] || t.isolated[m.To] || t.cut[pairKey(m.From, m.To)] {
		return
	}
	q := t.queues[m.To]
	if q == nil {
		return
	}
	select {
	case q <- m:
	default:
		// Queue overflow models a lossy network; Raft tolerates drops.
	}
}

// Isolate cuts all traffic to and from a node (models a crashed or
// partitioned member).
func (t *memTransport) Isolate(id int, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.isolated[id] = on
}

// isIsolated reports whether a node is currently cut off.
func (t *memTransport) isIsolated(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.isolated[id]
}

// CutLink severs the bidirectional link between two nodes.
func (t *memTransport) CutLink(a, b int, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut[pairKey(a, b)] = on
}

// stop closes all queues after the nodes have stopped stepping.
func (t *memTransport) stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.stopped = true
	for _, q := range t.queues {
		close(q)
	}
	t.mu.Unlock()
	t.wg.Wait()
}
