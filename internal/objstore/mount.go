package objstore

// Mount is the s3fs-like driver FfDL uses to expose a bucket as a local
// filesystem to learner containers: "A driver streams files on demand and
// caches them so they can be reused across training epochs and jobs"
// (§3.7). Here the store itself is that cache: a stored object is
// immutable and GetRange hands out a view of it, so every epoch and
// every job reading a dataset shares the stored bytes, and a chunk cache
// in front of it would only hold more references to the same bytes.
type Mount struct {
	svc    *Service
	bucket string
}

// NewMount attaches a mount over a bucket. capacityBytes is ignored;
// ROADMAP 1a deletes it.
func (s *Service) NewMount(bucket string, capacityBytes int64) *Mount {
	return &Mount{svc: s, bucket: bucket}
}

// ReadAll reads a whole object, as one training epoch pass over a
// dataset file does. It returns a read-only view of the stored object,
// capped at its length; a later Put of the key leaves the view as it is.
func (m *Mount) ReadAll(key string) ([]byte, error) {
	return m.svc.GetRange(m.bucket, key, 0, -1)
}
