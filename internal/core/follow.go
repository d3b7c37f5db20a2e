package core

import (
	"context"
	"sync"

	"github.com/ffdl/ffdl/internal/rpc"
)

// The follow protocol carries both user-facing streams: a job's status
// transitions and its learner log lines (docs/watch-protocol.md, layer
// 4). Each stream has a durable copy — the job document, the job's
// commit log — and a best-effort in-process fan-out in front of it, and
// one server loop (follow) and one client loop (resume) keep its rules
// for both:
//
//   - subscribe to the fan-out before reading the backlog;
//   - dedup at the backlog/live seam by position;
//   - fill from the durable copy on a position gap, and on a safety tick;
//   - reconnect from the first undelivered position.
//
// The streams differ only in what their items say through streamItem
// and in the fill source each caller hands the server loop.

// streamItem is an element of a followed stream.
type streamItem interface {
	// position is the item's place in its job's stream — a transition's
	// Seq, a log line's Offset. A follower's resume token is the last
	// delivered position plus one.
	position() uint64
	// ends reports whether the item closes the stream: a terminal status
	// does; a log stream ends only with its context.
	ends() bool
}

func (it StatusItem) position() uint64 { return uint64(it.Seq) }
func (it StatusItem) ends() bool       { return it.Entry.Status.Terminal() }
func (l LogLine) position() uint64     { return l.Offset }
func (LogLine) ends() bool             { return false }
func (it LogItem) position() uint64    { return it.Line.Offset }
func (LogItem) ends() bool             { return false }

// StatusEvent is one job status transition published on the platform's
// status bus. Seq is the 1-based index of the transition in the job's
// MongoDB history — the stream's resume token — so subscribers can
// detect and refill gaps from the durable record: the bus is a latency
// optimization, MongoDB remains the source of truth (§3.2).
// See docs/watch-protocol.md ("core status bus" layer).
type StatusEvent struct {
	JobID string
	StatusItem
}

// fanout delivers items to in-process subscribers by job ID; a
// subscriber to "" receives every job's items. The platform runs two:
// the status bus (read by the LCM recovery loop, the tenancy status pump
// and status watches) and the learner-log feed (read by log follows).
// Delivery never blocks a publisher: a full subscriber buffer drops the
// item, and the subscriber recovers it from the durable copy. A fan-out
// keeps no history.
type fanout[T any] struct {
	// buf is the buffer a follow subscription gets: what one stream may
	// fall behind before it must refill from the durable copy.
	buf  int
	mu   sync.Mutex
	subs map[string][]chan T
}

func newFanout[T any](buf int) *fanout[T] {
	return &fanout[T]{buf: buf, subs: make(map[string][]chan T)}
}

// subscribe registers for key's items. Cancel closes the channel, and
// the fan-out forgets key when its last subscriber leaves.
func (f *fanout[T]) subscribe(key string, buf int) (<-chan T, func()) {
	ch := make(chan T, buf)
	f.mu.Lock()
	f.subs[key] = append(f.subs[key], ch)
	f.mu.Unlock()
	return ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		subs := f.subs[key]
		for i, c := range subs {
			if c != ch {
				continue
			}
			if len(subs) == 1 {
				delete(f.subs, key)
			} else {
				f.subs[key] = append(subs[:i], subs[i+1:]...)
			}
			close(ch)
			return
		}
	}
}

// publish offers item to key's subscribers and to every "" subscriber
// without blocking. Publishers serialise each job's items in position
// order. A cancel edits the subscriber slice and closes its channel
// under f.mu, so publish holds f.mu across the sends.
func (f *fanout[T]) publish(key string, item T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, subs := range [...][]chan T{f.subs[key], f.subs[""]} {
		for _, ch := range subs {
			select {
			case ch <- item:
			default: // slow subscriber: it fills from the durable copy
			}
		}
	}
}

// follow serves one stream of key's items from position next: it
// subscribes to live before it reads the backlog, sends everything fill
// returns from the first undelivered position, then sends live items in
// position order until ctx ends, send fails or an item ends the stream.
// A live item the backlog already covered is skipped. One past the next
// position reveals a gap, and the fill that follows includes it, because
// every publisher writes the durable copy before it publishes. A safety
// tick (PollInterval*10) fills too: a dropped tail has no later item to
// reveal it.
func follow[T streamItem](ctx context.Context, p *Platform, live *fanout[T], key string, next uint64,
	fill func(from uint64) ([]T, error), send func(T) error) error {
	items, cancel := live.subscribe(key, live.buf)
	defer cancel()
	deliver := func(it T) (bool, error) {
		next = it.position() + 1
		return it.ends(), send(it)
	}
	refill := func() (bool, error) {
		backlog, err := fill(next)
		for _, it := range backlog {
			if done, err := deliver(it); err != nil || done {
				return done, err
			}
		}
		return false, err
	}
	done, err := refill()
	if err != nil || done {
		return err
	}
	ticker := p.clock.NewTicker(p.cfg.PollInterval * 10)
	defer ticker.Stop()
	for err == nil && !done {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			done, err = refill()
		case it := <-items:
			switch pos := it.position(); {
			case pos == next:
				done, err = deliver(it)
			case pos > next:
				done, err = refill()
			}
		}
	}
	return err
}

// resume is the client side of the follow protocol. It reads items from
// sr, a stream already open at next, or, when sr is nil, opens method
// with the arguments args builds for the first undelivered position. It
// hands fn each item past that position, in order and once, and
// reconnects after the stream breaks or ends — an API replica crash, a
// clean server end — until ctx ends, fn returns false or an item ends
// the stream. After an ending item it reads the stream's end frame, so
// the stream closes without a cancel.
func resume[W streamItem](ctx context.Context, c *Client, method string, args func(next uint64) any,
	next uint64, sr *rpc.StreamReader, fn func(W) bool) {
	for {
		if sr == nil {
			sr, _ = c.api.Stream(ctx, method, args(next))
		}
		if sr != nil {
			over := false
			for !over {
				var it W
				if sr.Recv(&it) != nil {
					break
				}
				if it.position() < next {
					continue // sent again after a reconnect
				}
				next = it.position() + 1
				if over = !fn(it); !over && it.ends() {
					sr.Recv(nil) //nolint:errcheck // the end frame
					over = true
				}
			}
			sr.Close()
			sr = nil
			if over {
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-c.clock.After(watchRetryDelay):
		}
	}
}
