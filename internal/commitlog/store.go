package commitlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SegmentStore is the durability layer under a Log: a set of segment
// byte streams named by base offset. The Log keeps the decoded record index
// in memory and calls the store write-through, so a store is only read
// back at Open (recovery).
//
// Write-ordering contract: the Log issues writes in commit order and a
// store must make them durable in that order (the FaultStore crash
// model — "every byte before the crash point is durable, the write
// containing it is torn, everything after is lost" — depends on it).
//
// Append may perform a partial write: it returns the bytes actually
// written along with the error. Rewrite is atomic: it either fully
// replaces the segment or leaves it untouched (the file store stages
// into a temp file and renames).
//
// A store may keep the slice it is handed to Append or Rewrite; the Log
// never reuses or modifies one.
type SegmentStore interface {
	// Segments lists existing segment base offsets, ascending.
	Segments() ([]uint64, error)
	// Create adds an empty segment.
	Create(base uint64) error
	// Append appends data to segment base, returning bytes written.
	Append(base uint64, data []byte) (int, error)
	// Load returns segment base's full contents.
	Load(base uint64) ([]byte, error)
	// Rewrite atomically replaces segment base's contents (compaction).
	Rewrite(base uint64, data []byte) error
	// Remove deletes segment base (retention).
	Remove(base uint64) error
}

// ErrNoSegment reports access to a segment the store does not hold.
var ErrNoSegment = errors.New("commitlog: no such segment")

// MemStore is the in-memory SegmentStore the simulation runs on: with
// no DataDir, the mongo oplog and the learner log ride it. A segment
// is the list of slices it was handed — each append's frame, or one
// rewrite — kept without a copy, so the bytes are shared with the Log's
// index; Load concatenates them. It is safe for concurrent use, though
// the owning Log serializes writes anyway.
type MemStore struct {
	mu       sync.Mutex
	segments map[uint64][][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{segments: make(map[uint64][][]byte)}
}

// Segments implements SegmentStore.
func (m *MemStore) Segments() ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.segments))
	for b := range m.segments {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Create implements SegmentStore.
func (m *MemStore) Create(base uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.segments[base]; !ok {
		m.segments[base] = nil
	}
	return nil
}

// Append implements SegmentStore.
func (m *MemStore) Append(base uint64, data []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.segments[base]; !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoSegment, base)
	}
	m.segments[base] = append(m.segments[base], data)
	return len(data), nil
}

// Load implements SegmentStore.
func (m *MemStore) Load(base uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	chunks, ok := m.segments[base]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSegment, base)
	}
	var data []byte
	for _, c := range chunks {
		data = append(data, c...)
	}
	return data, nil
}

// Rewrite implements SegmentStore.
func (m *MemStore) Rewrite(base uint64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.segments[base]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSegment, base)
	}
	m.segments[base] = [][]byte{data}
	return nil
}

// Remove implements SegmentStore.
func (m *MemStore) Remove(base uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.segments, base)
	return nil
}

// FileStore is the file-backed SegmentStore: one "<base>.seg" file per
// segment, all in one directory. It is the durability arm the crash
// torture suite drives (wrapped in a FaultStore); recovery semantics —
// torn-tail truncation — live in Open, which reads the store back.
//
// The store holds one descriptor, opened O_WRONLY|O_APPEND on the
// segment it last created or appended to, so an append to the active
// segment is one write(2) that returns before the record is
// acknowledged: no buffer and no batching, and a refused write leaves
// no trace. A Rewrite or Remove of the held segment closes it first, so
// no write lands in an inode that was renamed over or unlinked. Close
// releases the descriptor; every later write fails.
type FileStore struct {
	dir string

	mu     sync.Mutex
	held   *os.File // nil when no segment is held
	base   uint64   // held's segment
	closed bool
}

const (
	segSuffix = ".seg"
	tmpSuffix = ".tmp"
)

// errStoreClosed reports a write to a FileStore after Close.
var errStoreClosed = errors.New("commitlog: file store closed")

// OpenFileStore opens (creating if needed) a file store rooted at dir.
// Stale temp files from a crashed compaction rewrite are discarded.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("commitlog: open file store: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("commitlog: open file store: %w", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			os.Remove(filepath.Join(dir, e.Name())) //nolint:errcheck // best-effort cleanup
		}
	}
	return &FileStore{dir: dir}, nil
}

func (f *FileStore) segPath(base uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("%020d%s", base, segSuffix))
}

// Segments implements SegmentStore.
func (f *FileStore) Segments() ([]uint64, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; not ours to manage
		}
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// holdLocked opens segment base for appending with the extra flags and
// holds it in place of the segment held before.
func (f *FileStore) holdLocked(base uint64, flags int) error {
	if f.closed {
		return errStoreClosed
	}
	file, err := os.OpenFile(f.segPath(base), flags|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	f.releaseLocked(f.base)
	f.held, f.base = file, base
	return nil
}

// releaseLocked closes the held descriptor when it is segment base's.
func (f *FileStore) releaseLocked(base uint64) {
	if f.held != nil && f.base == base {
		f.held.Close() //nolint:errcheck // O_APPEND writes are done; nothing is buffered
		f.held = nil
	}
}

// Create implements SegmentStore. The new segment becomes the held one.
func (f *FileStore) Create(base uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.holdLocked(base, os.O_CREATE)
}

// Append implements SegmentStore: one write on the held descriptor,
// after opening segment base in its place when another is held.
func (f *FileStore) Append(base uint64, data []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.held == nil || f.base != base {
		if err := f.holdLocked(base, 0); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return 0, fmt.Errorf("%w: %d", ErrNoSegment, base)
			}
			return 0, err
		}
	}
	return f.held.Write(data)
}

// Load implements SegmentStore.
func (f *FileStore) Load(base uint64) ([]byte, error) {
	data, err := os.ReadFile(f.segPath(base))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %d", ErrNoSegment, base)
	}
	return data, err
}

// Rewrite implements SegmentStore: the new contents are staged in a
// temp file and renamed over the segment.
func (f *FileStore) Rewrite(base uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errStoreClosed
	}
	f.releaseLocked(base)
	path := f.segPath(base)
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("%w: %d", ErrNoSegment, base)
	}
	tmp := path + tmpSuffix
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Remove implements SegmentStore.
func (f *FileStore) Remove(base uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errStoreClosed
	}
	f.releaseLocked(base)
	err := os.Remove(f.segPath(base))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// Close releases the held descriptor. Every later Create, Append,
// Rewrite or Remove fails; Load and Segments still read the directory.
// Closing twice is a no-op.
func (f *FileStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	if f.held == nil {
		return nil
	}
	err := f.held.Close()
	f.held = nil
	return err
}
