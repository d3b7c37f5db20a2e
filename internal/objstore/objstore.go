// Package objstore implements the cloud object storage service FfDL
// streams training data from and persists checkpoints/results to. It
// models the pieces of behaviour the platform exercises:
//
//   - buckets the platform ensures exist, and object put, ranged get,
//     head and prefix list (learners list checkpoints to resume, §3.8),
//   - an s3fs-like mount driver that exposes objects as files with
//     on-demand chunk streaming and an LRU cache reused across training
//     epochs and jobs (§3.7 "Mounted object store").
package objstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ffdl/ffdl/internal/sim"
)

// Errors.
var (
	// ErrNoBucket reports an operation against a missing bucket.
	ErrNoBucket = errors.New("objstore: bucket not found")
	// ErrNoObject reports a read of a missing object.
	ErrNoObject = errors.New("objstore: object not found")
)

// Object is a stored blob with metadata.
type Object struct {
	Key      string
	Size     int64
	Modified time.Time
	ETag     string
}

// Service is an in-process object storage service.
type Service struct {
	mu      sync.RWMutex
	buckets map[string]*bucket
	clock   sim.Clock

	// Stats. bytesOut is atomic so a read takes no write lock.
	bytesIn  int64
	bytesOut atomic.Int64
}

type bucket struct {
	objects map[string]*blob
	// dirs indexes keys by top-level directory ("<job>/"), each key
	// sharing its bytes with the objects map's, so listing one job's
	// checkpoints never scans every job's results. Put maintains it.
	dirs map[string][]string
}

// blob is one stored object. Its data is never written after Put
// stores it — a re-put swaps in a new blob — so GetRange can hand out
// views of it.
type blob struct {
	data     []byte
	modified time.Time
	etag     string
}

// Config configures a Service.
type Config struct {
	// Clock is used for timestamps. Defaults to the wall clock.
	Clock sim.Clock
}

// New returns an empty Service.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = sim.NewRealClock()
	}
	return &Service{
		buckets: make(map[string]*bucket),
		clock:   cfg.Clock,
	}
}

// EnsureBucket creates the bucket if absent.
func (s *Service) EnsureBucket(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; !ok {
		s.buckets[name] = &bucket{objects: make(map[string]*blob), dirs: make(map[string][]string)}
	}
}

// Put stores a copy of data as the object. A re-put replaces the
// object's blob rather than writing into it, so views GetRange handed
// out earlier keep the old bytes.
func (s *Service) Put(bucketName, key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	stored := make([]byte, len(data))
	copy(stored, data)
	if _, exists := b.objects[key]; !exists {
		if i := strings.IndexByte(key, '/'); i >= 0 {
			b.dirs[key[:i+1]] = append(b.dirs[key[:i+1]], key)
		}
	}
	b.objects[key] = &blob{
		data:     stored,
		modified: s.clock.Now(),
		etag:     fmt.Sprintf("%08x-%d", hashBytes(stored), len(stored)),
	}
	s.bytesIn += int64(len(data))
	return nil
}

// GetRange returns object bytes [off, off+n); n < 0 means to the end.
// The result is a read-only view of the stored object, capped at its
// length, not a copy: the caller must not write it. It stays as it was
// across a later Put of the same key.
func (s *Service) GetRange(bucketName, key string, off, n int64) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	o, ok := b.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	size := int64(len(o.data))
	if off < 0 || off > size {
		return nil, fmt.Errorf("objstore: range start %d outside object of %d bytes", off, size)
	}
	end := size
	if n >= 0 && off+n < size {
		end = off + n
	}
	s.bytesOut.Add(end - off)
	return o.data[off:end:end], nil
}

// Head returns object metadata without transferring the body.
func (s *Service) Head(bucketName, key string) (Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return Object{}, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	o, ok := b.objects[key]
	if !ok {
		return Object{}, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	return Object{Key: key, Size: int64(len(o.data)), Modified: o.modified, ETag: o.etag}, nil
}

// List returns metadata for all objects under a key prefix, sorted by
// key. FfDL's checkpoint recovery lists a bucket to find the latest
// checkpoint (§3.8). A prefix containing '/' reads only its top-level
// directory's keys; a prefix without one scans the bucket.
func (s *Service) List(bucketName, prefix string) ([]Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	var out []Object
	add := func(k string) {
		if strings.HasPrefix(k, prefix) {
			o := b.objects[k]
			out = append(out, Object{Key: k, Size: int64(len(o.data)), Modified: o.modified, ETag: o.etag})
		}
	}
	if i := strings.IndexByte(prefix, '/'); i >= 0 {
		for _, k := range b.dirs[prefix[:i+1]] {
			add(k)
		}
	} else {
		for k := range b.objects {
			add(k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Stats reports cumulative transfer volumes.
func (s *Service) Stats() (bytesIn, bytesOut int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytesIn, s.bytesOut.Load()
}

func hashBytes(b []byte) uint32 {
	// FNV-1a.
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}
