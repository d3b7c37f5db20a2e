package objstore

import (
	"container/list"
	"sync"
)

// Mount is the s3fs-like driver FfDL uses to expose a bucket as a local
// filesystem to learner containers: "A driver streams files on demand and
// caches them so they can be reused across training epochs and jobs"
// (§3.7). Chunks fetched from the object store are kept in the mount's
// LRU cache, so the second epoch of a training run hits memory instead
// of the storage backend.
type Mount struct {
	svc    *Service
	bucket string
	cache  *chunkCache
}

const mountChunkSize = 4 << 20 // 4 MiB, typical s3fs block

// NewMount attaches a caching mount over a bucket. capacityBytes bounds
// the chunk cache; zero disables it.
func (s *Service) NewMount(bucket string, capacityBytes int64) *Mount {
	return &Mount{svc: s, bucket: bucket, cache: newChunkCache(capacityBytes)}
}

// ReadAll reads a whole object through the cache, as one training epoch
// pass over a dataset file does. An object that fits in one chunk comes
// back as the cached chunk itself, a read-only view the caller must not
// write; a larger one is copied into one buffer sized from its metadata.
func (m *Mount) ReadAll(key string) ([]byte, error) {
	meta, err := m.svc.Head(m.bucket, key)
	if err != nil {
		return nil, err
	}
	if meta.Size <= mountChunkSize {
		chunk, err := m.chunkAt(key, 0)
		if err != nil {
			return nil, err
		}
		n := min(int64(len(chunk)), meta.Size)
		return chunk[:n:n], nil
	}
	buf := make([]byte, 0, meta.Size)
	for idx := int64(0); int64(len(buf)) < meta.Size; idx++ {
		chunk, err := m.chunkAt(key, idx)
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			break // the object shrank since Head
		}
		buf = append(buf, chunk[:min(int64(len(chunk)), meta.Size-int64(len(buf)))]...)
	}
	return buf, nil
}

// chunkAt returns chunk idx of an object, from cache or backend. The
// chunk is shared with the cache: callers only read it.
func (m *Mount) chunkAt(key string, idx int64) ([]byte, error) {
	ck := chunkKey{key: key, idx: idx}
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

// chunkKey names one chunk of an object in its mount's cache; a mount
// serves one bucket, so the key need not name it.
type chunkKey struct {
	key string
	idx int64
}

// chunkCache is a byte-bounded LRU of object chunks.
type chunkCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recent
	items    map[chunkKey]*list.Element
}

type cacheEntry struct {
	key  chunkKey
	data []byte
}

func newChunkCache(capacity int64) *chunkCache {
	return &chunkCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[chunkKey]*list.Element),
	}
}

func (c *chunkCache) get(key chunkKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, true
	}
	return nil, false
}

func (c *chunkCache) put(key chunkKey, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return // cache disabled
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
