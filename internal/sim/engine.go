package sim

import (
	"container/heap"
	"time"
)

// Event is a unit of work scheduled on the Engine at a virtual time.
type Event struct {
	At  time.Time
	Fn  func()
	seq uint64
	idx int
}

// eventHeap orders events by (At, seq) so same-instant events fire in
// schedule order, keeping runs deterministic.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if !h[i].At.Equal(h[j].At) {
		return h[i].At.Before(h[j].At)
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is used for
// the pure scheduling studies (Figures 3-8, Tables 7-8) where running a
// full multi-goroutine platform would be needlessly slow and
// nondeterministic. Engine is not safe for concurrent use; event handlers
// run on the caller's goroutine.
type Engine struct {
	now  time.Time
	heap eventHeap
	seq  uint64
}

// NewEngine returns an Engine whose virtual clock starts at origin.
func NewEngine(origin time.Time) *Engine {
	return &Engine{now: origin}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at the absolute virtual time t. Scheduling in
// the past panics: it indicates a logic error in the caller.
func (e *Engine) At(t time.Time, fn func()) *Event {
	if t.Before(e.now) {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := &Event{At: t, Fn: fn, seq: e.seq}
	heap.Push(&e.heap, ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a scheduled event. It reports whether the event was
// still pending.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.idx < 0 || ev.idx >= len(e.heap) || e.heap[ev.idx] != ev {
		return false
	}
	heap.Remove(&e.heap, ev.idx)
	return true
}

// Step executes the next pending event, advancing the clock to its
// deadline. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*Event)
	e.now = ev.At
	ev.Fn()
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event lies beyond the deadline; the clock finishes at min(deadline,
// last event time) or at deadline if events remain.
func (e *Engine) RunUntil(deadline time.Time) {
	for len(e.heap) > 0 && !e.heap[0].At.After(deadline) {
		e.Step()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

// Run executes events until the queue empties.
func (e *Engine) Run() {
	for e.Step() {
	}
}
