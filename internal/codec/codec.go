// Package codec is the platform's wire discipline for its binary
// formats: Raft entries (etcd), commit-log record frames, mongo oplog
// ops, learner log lines and RPC message bodies. Each format owns its
// layout; this package owns the rules they share:
//
//   - integers are uvarint/varint, strings and byte fields are
//     uvarint-length-prefixed;
//   - no length prefix or element count may exceed MaxLen, so a corrupt
//     prefix cannot demand an absurd allocation before the damage is
//     noticed;
//   - input that ends early decodes to ErrTruncated, input that can
//     never be valid (an out-of-range length, trailing bytes, a bad
//     tag) to ErrCorrupt — corrupt or truncated input errors, never
//     panics, pinned by each format's fuzzer;
//   - Bytes aliases the input buffer (zero-copy), so a decoder copies
//     whatever it retains past the buffer's lifetime.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxLen bounds every length prefix and element count.
const MaxLen = 1 << 26

// Decode errors. Formats wrap them with context; callers match them
// with errors.Is.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrCorrupt   = errors.New("codec: corrupt input")
)

// AppendBytes appends b with its uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendString appends s with its uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Reader is a bounds-checked cursor over one encoded buffer. The zero
// value reads an empty buffer; NewReader is the usual constructor.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader positioned at the start of buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Off returns the number of bytes consumed so far.
func (r *Reader) Off() int { return r.off }

func (r *Reader) unread() int { return len(r.buf) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	r.off += n
	return v, nil
}

// Varint reads a signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	r.off += n
	return v, nil
}

// varintErr classifies a failed varint read: n == 0 means the buffer
// ended mid-varint, n < 0 a varint longer than 64 bits.
func varintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
}

// Fixed reads the next n raw bytes (a fixed-width field such as a
// checksum or an IEEE float), aliasing the buffer.
func (r *Reader) Fixed(n int) ([]byte, error) {
	if r.unread() < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Bytes reads a length-prefixed byte field. The result ALIASES the
// buffer: zero-copy, and valid only as long as the buffer is.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxLen {
		return nil, fmt.Errorf("%w: length %d exceeds %d", ErrCorrupt, n, MaxLen)
	}
	return r.Fixed(int(n))
}

// String reads a length-prefixed string (a copy, unlike Bytes).
func (r *Reader) String() (string, error) {
	b, err := r.Bytes()
	return string(b), err
}

// Count reads an element count. Every element of a format encodes in at
// least one byte, so a count beyond the unread bytes is truncated input
// — rejected before the caller sizes an allocation by it.
func (r *Reader) Count() (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > MaxLen {
		return 0, fmt.Errorf("%w: count %d exceeds %d", ErrCorrupt, n, MaxLen)
	}
	if n > uint64(r.unread()) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// Done reports ErrCorrupt if any bytes are left unread: an encoded
// value is exactly its buffer.
func (r *Reader) Done() error {
	if n := r.unread(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, n)
	}
	return nil
}
