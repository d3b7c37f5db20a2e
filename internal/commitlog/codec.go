package commitlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Wire layout. The commit log's durable unit is the record frame. It
// follows the platform's wire discipline: length-prefixed binary with
// bounded prefixes, and corrupt or truncated input always surfaces
// as an error — never a panic — pinned by FuzzSegmentRecordRoundtrip.
//
// Record frame (segment files are a concatenation of these):
//
//	recMagic | uvarint offset | uvarint keyLen | key |
//	uvarint payloadLen | payload | crc32(IEEE, all prior bytes) LE
//
// The offset is explicit (not derived from position) because
// compaction rewrites sealed segments with holes where superseded
// records were dropped. The trailing CRC is what makes a torn tail
// detectable: recovery scans frames sequentially and truncates at the
// first frame whose bytes are incomplete or whose checksum fails.
const recMagic = 0xC1

// maxFrameLen bounds any single length prefix (key, payload) so a
// corrupt frame cannot demand an absurd allocation before the
// corruption is noticed.
const maxFrameLen = 1 << 26

// Codec errors. ErrTruncated specifically marks input that ends
// mid-frame — recovery treats it (and CRC mismatch) as the torn tail.
var (
	ErrTruncated = errors.New("commitlog: truncated frame")
	ErrCorrupt   = errors.New("commitlog: corrupt frame")
)

// appendRecordFrame appends the encoded frame for rec to dst.
func appendRecordFrame(dst []byte, offset uint64, key string, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, recMagic)
	dst = binary.AppendUvarint(dst, offset)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return dst
}

// frameReader walks a buffer of concatenated frames.
type frameReader struct {
	buf []byte
	off int
}

func (r *frameReader) byte_() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

// bytes returns a length-prefixed field ALIASING the underlying buffer.
func (r *frameReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxFrameLen {
		return nil, ErrCorrupt
	}
	if uint64(len(r.buf)-r.off) < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// checkCRC verifies the trailing checksum over buf[start:r.off] and
// consumes it.
func (r *frameReader) checkCRC(start int) error {
	if len(r.buf)-r.off < 4 {
		return ErrTruncated
	}
	want := binary.LittleEndian.Uint32(r.buf[r.off:])
	if crc32.ChecksumIEEE(r.buf[start:r.off]) != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r.off += 4
	return nil
}

// decodeRecordFrame decodes one record frame at the reader's position.
// Key and payload are copied (segment buffers are recycled by
// compaction; decoded records must not alias them).
func (r *frameReader) decodeRecordFrame() (Record, error) {
	start := r.off
	magic, err := r.byte_()
	if err != nil {
		return Record{}, err
	}
	if magic != recMagic {
		return Record{}, fmt.Errorf("%w: bad record magic 0x%02x", ErrCorrupt, magic)
	}
	var rec Record
	if rec.Offset, err = r.uvarint(); err != nil {
		return Record{}, err
	}
	key, err := r.bytes()
	if err != nil {
		return Record{}, err
	}
	payload, err := r.bytes()
	if err != nil {
		return Record{}, err
	}
	if err := r.checkCRC(start); err != nil {
		return Record{}, err
	}
	rec.Key = string(key)
	if len(payload) > 0 {
		rec.Payload = append([]byte(nil), payload...)
	}
	return rec, nil
}

// decodeSegment decodes every intact record frame in data, returning
// the records plus the byte length of the valid prefix. A torn or
// corrupt tail is reported through tornErr (nil when the whole buffer
// parsed) — callers recovering from a crash truncate to validLen;
// callers reading a buffer that must be whole treat tornErr as fatal.
func decodeSegment(data []byte) (recs []Record, validLen int, tornErr error) {
	r := frameReader{buf: data}
	for r.off < len(data) {
		rec, err := r.decodeRecordFrame()
		if err != nil {
			return recs, validLen, err
		}
		recs = append(recs, rec)
		validLen = r.off
	}
	return recs, validLen, nil
}
