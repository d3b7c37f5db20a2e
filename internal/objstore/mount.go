package objstore

import (
	"container/list"
	"fmt"
	"io"
	"sync"
)

// Mount is the s3fs-like driver FfDL uses to expose a bucket as a local
// filesystem to learner containers: "A driver streams files on demand and
// caches them so they can be reused across training epochs and jobs"
// (§3.7). Chunks fetched from the object store are kept in a shared LRU
// cache, so the second epoch of a training run — and other jobs reading
// the same dataset — hit memory instead of the storage backend.
type Mount struct {
	svc    *Service
	bucket string
	cache  *chunkCache
}

// MountStats summarizes driver effectiveness.
type MountStats struct {
	Hits         int64
	Misses       int64
	BytesFetched int64
	BytesServed  int64
}

// HitRate returns the fraction of chunk reads served from cache.
func (s MountStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

const mountChunkSize = 4 << 20 // 4 MiB, typical s3fs block

// NewMount attaches a caching mount over a bucket. capacityBytes bounds
// the shared chunk cache; passing the same *ChunkCache via NewMountWith
// shares the cache across jobs.
func (s *Service) NewMount(bucket string, capacityBytes int64) *Mount {
	return &Mount{svc: s, bucket: bucket, cache: newChunkCache(capacityBytes)}
}

// NewMountWith attaches a mount that shares an existing cache, modeling
// "the same datasets are often used across jobs" (§4).
func (s *Service) NewMountWith(bucket string, cache *ChunkCache) *Mount {
	return &Mount{svc: s, bucket: bucket, cache: cache.inner}
}

// ChunkCache is an exported handle to a shareable LRU chunk cache.
type ChunkCache struct{ inner *chunkCache }

// NewChunkCache returns a standalone cache for sharing across mounts.
func NewChunkCache(capacityBytes int64) *ChunkCache {
	return &ChunkCache{inner: newChunkCache(capacityBytes)}
}

// Open returns a file-like reader over an object through the cache.
func (m *Mount) Open(key string) (*File, error) {
	meta, err := m.svc.Head(m.bucket, key)
	if err != nil {
		return nil, err
	}
	return &File{mount: m, key: key, size: meta.Size}, nil
}

// ReadAll reads a whole object through the cache, as one training epoch
// pass over a dataset file does.
func (m *Mount) ReadAll(key string) ([]byte, error) {
	f, err := m.Open(key)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// Stats returns cache statistics.
func (m *Mount) Stats() MountStats { return m.cache.stats() }

// File is a sequentially readable view of an object.
type File struct {
	mount *Mount
	key   string
	size  int64
	off   int64
}

var _ io.Reader = (*File)(nil)

// Size returns the object size.
func (f *File) Size() int64 { return f.size }

// Read implements io.Reader, fetching 4 MiB chunks through the cache.
func (f *File) Read(p []byte) (int, error) {
	if f.off >= f.size {
		return 0, io.EOF
	}
	chunkIdx := f.off / mountChunkSize
	chunk, err := f.mount.chunkAt(f.key, chunkIdx)
	if err != nil {
		return 0, err
	}
	within := f.off - chunkIdx*mountChunkSize
	n := copy(p, chunk[within:])
	f.off += int64(n)
	f.mount.cache.addServed(int64(n))
	return n, nil
}

// ReadAt implements io.ReaderAt semantics for random access.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.size {
		return 0, io.EOF
	}
	total := 0
	for total < len(p) && off < f.size {
		chunkIdx := off / mountChunkSize
		chunk, err := f.mount.chunkAt(f.key, chunkIdx)
		if err != nil {
			return total, err
		}
		within := off - chunkIdx*mountChunkSize
		n := copy(p[total:], chunk[within:])
		total += n
		off += int64(n)
	}
	f.mount.cache.addServed(int64(total))
	if total < len(p) {
		return total, io.EOF
	}
	return total, nil
}

// chunkAt returns chunk idx of an object, from cache or backend.
func (m *Mount) chunkAt(key string, idx int64) ([]byte, error) {
	ck := fmt.Sprintf("%s/%s#%d", m.bucket, key, idx)
	if data, ok := m.cache.get(ck); ok {
		return data, nil
	}
	data, err := m.svc.GetRange(m.bucket, key, idx*mountChunkSize, mountChunkSize)
	if err != nil {
		return nil, err
	}
	m.cache.put(ck, data)
	return data, nil
}

// chunkCache is a byte-bounded LRU of object chunks.
type chunkCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element

	hits, misses, fetched, served int64
}

type cacheEntry struct {
	key  string
	data []byte
}

func newChunkCache(capacity int64) *chunkCache {
	return &chunkCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (c *chunkCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).data, true
	}
	c.misses++
	return nil, false
}

func (c *chunkCache) put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fetched += int64(len(data))
	if c.capacity <= 0 {
		return // cache disabled: count traffic only
	}
	if el, ok := c.items[key]; ok {
		c.used += int64(len(data)) - int64(len(el.Value.(*cacheEntry).data))
		el.Value.(*cacheEntry).data = data
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.items[key] = el
		c.used += int64(len(data))
	}
	for c.used > c.capacity && c.ll.Len() > 0 {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		c.used -= int64(len(ent.data))
	}
}

func (c *chunkCache) addServed(n int64) {
	c.mu.Lock()
	c.served += n
	c.mu.Unlock()
}

func (c *chunkCache) stats() MountStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MountStats{Hits: c.hits, Misses: c.misses, BytesFetched: c.fetched, BytesServed: c.served}
}
