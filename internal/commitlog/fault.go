package commitlog

import (
	"errors"
	"io"
	"sync"
)

// ErrCrashed reports a write issued after (or torn by) the injected
// crash point. The wrapped store is dead from that moment on; the
// torture driver reopens the inner store to model the post-crash
// restart.
var ErrCrashed = errors.New("commitlog: injected crash")

// FaultStore wraps a SegmentStore with crash and corruption injection
// for the torture suite. Its crash model is a linear write-order
// journal: every byte handed to Append is assigned a
// global sequence number in write order; a crash at byte N makes all
// bytes with sequence < N durable, tears the write containing N
// (its prefix lands, the rest is lost), and loses everything after.
// Atomic operations (Rewrite, Create, Remove) either
// happen entirely before the crash point or not at all — they model
// temp-file-plus-rename, charging their full byte cost to the journal.
//
// CorruptAt additionally flips bits in chosen journal bytes as they
// are written, modeling a torn sector whose tail is garbage rather
// than missing.
type FaultStore struct {
	inner SegmentStore

	mu      sync.Mutex
	written int64 // journal position: bytes durably handed to inner
	crashAt int64 // crash point (<0 = never)
	dead    bool
	corrupt map[int64]byte // journal position -> XOR mask
}

// NewFaultStore wraps inner with a crash point at journal byte
// crashAt (crashAt < 0 never crashes).
func NewFaultStore(inner SegmentStore, crashAt int64) *FaultStore {
	return &FaultStore{inner: inner, crashAt: crashAt}
}

// CorruptAt flips mask into the byte at journal position pos when it
// is written.
func (f *FaultStore) CorruptAt(pos int64, mask byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corrupt == nil {
		f.corrupt = make(map[int64]byte)
	}
	f.corrupt[pos] = mask
}

// Written returns the journal position: total bytes durably written.
// Running a workload with no crash point measures the journal length,
// from which torture crash points are drawn.
func (f *FaultStore) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// admit charges n bytes to the journal, returning how many of them
// land durably and whether the crash fired. Corruption masks are
// applied to the admitted prefix.
func (f *FaultStore) admit(data []byte) (durable []byte, crashed bool) {
	n := int64(len(data))
	if f.dead {
		return nil, true
	}
	keep := n
	if f.crashAt >= 0 && f.written+n > f.crashAt {
		keep = f.crashAt - f.written
		if keep < 0 {
			keep = 0
		}
		f.dead = true
		crashed = true
	}
	durable = data[:keep]
	if len(f.corrupt) > 0 && keep > 0 {
		durable = append([]byte(nil), durable...)
		for pos, mask := range f.corrupt {
			if pos >= f.written && pos < f.written+keep {
				durable[pos-f.written] ^= mask
			}
		}
	}
	f.written += keep
	return durable, crashed
}

// admitAtomic charges n bytes and reports whether the whole operation
// lands before the crash point.
func (f *FaultStore) admitAtomic(n int64) (ok bool) {
	if f.dead {
		return false
	}
	if f.crashAt >= 0 && f.written+n > f.crashAt {
		f.dead = true
		return false
	}
	f.written += n
	return true
}

// Segments implements SegmentStore (reads are free: recovery reopens
// the inner store directly anyway).
func (f *FaultStore) Segments() ([]uint64, error) { return f.inner.Segments() }

// Load implements SegmentStore.
func (f *FaultStore) Load(base uint64) ([]byte, error) { return f.inner.Load(base) }

// Create implements SegmentStore; atomic, zero-cost in the journal.
func (f *FaultStore) Create(base uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return ErrCrashed
	}
	return f.inner.Create(base)
}

// Append implements SegmentStore with torn-write injection.
func (f *FaultStore) Append(base uint64, data []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	durable, crashed := f.admit(data)
	var n int
	var err error
	if len(durable) > 0 {
		n, err = f.inner.Append(base, durable)
	}
	if crashed {
		return n, ErrCrashed
	}
	return n, err
}

// Rewrite implements SegmentStore; all-or-nothing.
func (f *FaultStore) Rewrite(base uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.admitAtomic(int64(len(data))) {
		return ErrCrashed
	}
	return f.inner.Rewrite(base, data)
}

// Remove implements SegmentStore; atomic, zero-cost in the journal.
func (f *FaultStore) Remove(base uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return ErrCrashed
	}
	return f.inner.Remove(base)
}

// Close closes the inner store when it is an io.Closer.
func (f *FaultStore) Close() error {
	if c, ok := f.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
