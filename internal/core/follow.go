package core

import (
	"context"
	"slices"
	"sync"

	"github.com/ffdl/ffdl/internal/rpc"
)

// The follow protocol carries both user-facing streams: a job's status
// transitions and its learner log lines (docs/watch-protocol.md, layer
// 4). Each stream has a durable copy — the job document, the job's
// commit log — and an in-process fan-out in front of it that closes a
// subscriber it cannot keep up with, and one server loop (follow) and
// one client loop (resume) keep its rules for both:
//
//   - subscribe to the fan-out before reading the backlog;
//   - dedup at the backlog/live seam by position;
//   - on a close or a position gap, re-subscribe, then fill from the
//     durable copy;
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
// Delivery never blocks a publisher, and never drops an item from an
// open subscription: a subscriber whose buffer is full is closed and
// unregistered instead, the gap signal of etcd and kube watches too. Its
// reader re-subscribes, then re-reads the durable copy. A fan-out keeps
// no history.
type fanout[T any] struct {
	// buf is the buffer a follow subscription gets: what one stream may
	// fall behind before the fan-out closes it.
	buf  int
	mu   sync.Mutex
	subs map[string][]chan T
}

func newFanout[T any](buf int) *fanout[T] {
	return &fanout[T]{buf: buf, subs: make(map[string][]chan T)}
}

// subscribe registers for key's items. The channel closes on cancel, or
// when publish finds its buffer full; cancel after that does nothing.
// The fan-out forgets key when its last subscriber leaves.
func (f *fanout[T]) subscribe(key string, buf int) (<-chan T, func()) {
	ch := make(chan T, buf)
	f.mu.Lock()
	f.subs[key] = append(f.subs[key], ch)
	f.mu.Unlock()
	return ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if i := slices.Index(f.subs[key], ch); i >= 0 {
			f.unsubscribeLocked(key, i)
		}
	}
}

// unsubscribeLocked closes key's i-th subscriber and unregisters it.
func (f *fanout[T]) unsubscribeLocked(key string, i int) {
	subs := f.subs[key]
	close(subs[i])
	if len(subs) == 1 {
		delete(f.subs, key)
	} else {
		f.subs[key] = slices.Delete(subs, i, i+1)
	}
}

// listening reports whether key has a subscriber, counting those to
// every key. A publisher that checks first builds no item nobody reads.
func (f *fanout[T]) listening(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs[key]) > 0 || len(f.subs[""]) > 0
}

// publish offers item to key's subscribers and to every "" subscriber
// without blocking, closing each one whose buffer is full. Publishers
// serialise each job's items in position order. A cancel edits the
// subscriber slice and closes its channel under f.mu, so publish holds
// f.mu across the sends.
func (f *fanout[T]) publish(key string, item T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range [...]string{key, ""} {
		subs := f.subs[k]
		for i := 0; i < len(subs); {
			select {
			case subs[i] <- item:
				i++
			default: // a full buffer: its reader re-subscribes and fills
				f.unsubscribeLocked(k, i)
				subs = f.subs[k]
			}
		}
	}
}

// follow serves one stream of key's items from position next: it
// subscribes to live before it reads the backlog, sends everything fill
// returns from the first undelivered position, then sends live items in
// position order until ctx ends, send fails or an item ends the stream.
// A live item the backlog already covered is skipped. When the fan-out
// closes the subscription, follow sends what it buffered, re-subscribes
// and fills again. One past the next position reveals a gap and fills
// too. Either fill includes every item the fan-out did not deliver,
// because every publisher writes the durable copy before it publishes.
func follow[T streamItem](ctx context.Context, live *fanout[T], key string, next uint64,
	fill func(from uint64) ([]T, error), send func(T) error) error {
	items, cancel := live.subscribe(key, live.buf)
	defer func() { cancel() }()
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
	for err == nil && !done {
		select {
		case <-ctx.Done():
			return nil
		case it, ok := <-items:
			switch pos := it.position(); {
			case !ok:
				items, cancel = live.subscribe(key, live.buf)
				done, err = refill()
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
