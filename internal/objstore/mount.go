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

// File is a sequentially readable view of an object.
type File struct {
	mount *Mount
	key   string
	size  int64
	off   int64
}

var _ io.Reader = (*File)(nil)

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
	return n, nil
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
		return el.Value.(*cacheEntry).data, true
	}
	return nil, false
}

func (c *chunkCache) put(key string, data []byte) {
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
