package commitlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

	"github.com/ffdl/ffdl/internal/codec"
)

// Wire layout. The commit log's durable unit is the record frame. It
// follows the platform's wire discipline (internal/codec: bounded
// length prefixes, codec.ErrTruncated/ErrCorrupt on bad input, never a
// panic — pinned by FuzzSegmentRecordRoundtrip).
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
// first frame whose bytes are incomplete (codec.ErrTruncated) or whose
// checksum fails (codec.ErrCorrupt).
const recMagic = 0xC1

// frameLen returns the encoded size of a record frame, so a caller can
// allocate it exactly once.
func frameLen(offset uint64, key string, payload []byte) int {
	return 1 + uvarintLen(offset) + uvarintLen(uint64(len(key))) + len(key) +
		uvarintLen(uint64(len(payload))) + len(payload) + 4 // crc32
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// framePayload returns the payload of a just-encoded frame as a
// subslice of it (nil when empty), capped short of the checksum.
func framePayload(frame []byte, payloadLen int) []byte {
	if payloadLen == 0 {
		return nil
	}
	end := len(frame) - 4
	return frame[end-payloadLen : end : end]
}

// appendRecordFrame appends the encoded frame for rec to dst.
func appendRecordFrame(dst []byte, offset uint64, key string, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, recMagic)
	dst = binary.AppendUvarint(dst, offset)
	dst = codec.AppendString(dst, key)
	dst = codec.AppendBytes(dst, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return dst
}

// decodeRecordFrame decodes the record frame at the start of data and
// returns it with the frame's length. Key and payload are copied
// (segment buffers are recycled by compaction; decoded records must not
// alias them).
func decodeRecordFrame(data []byte) (Record, int, error) {
	r := codec.NewReader(data)
	magic, err := r.Byte()
	if err != nil {
		return Record{}, 0, err
	}
	if magic != recMagic {
		return Record{}, 0, fmt.Errorf("%w: bad record magic 0x%02x", codec.ErrCorrupt, magic)
	}
	var rec Record
	if rec.Offset, err = r.Uvarint(); err != nil {
		return Record{}, 0, err
	}
	key, err := r.Bytes()
	if err != nil {
		return Record{}, 0, err
	}
	payload, err := r.Bytes()
	if err != nil {
		return Record{}, 0, err
	}
	sum := crc32.ChecksumIEEE(data[:r.Off()])
	crc, err := r.Fixed(4)
	if err != nil {
		return Record{}, 0, err
	}
	if binary.LittleEndian.Uint32(crc) != sum {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", codec.ErrCorrupt)
	}
	rec.Key = string(key)
	if len(payload) > 0 {
		rec.Payload = append([]byte(nil), payload...)
	}
	return rec, r.Off(), nil
}

// decodeSegment decodes every intact record frame in data, returning
// the records plus the byte length of the valid prefix. A torn or
// corrupt tail is reported through tornErr (nil when the whole buffer
// parsed) — callers recovering from a crash truncate to validLen;
// callers reading a buffer that must be whole treat tornErr as fatal.
func decodeSegment(data []byte) (recs []Record, validLen int, tornErr error) {
	for validLen < len(data) {
		rec, n, err := decodeRecordFrame(data[validLen:])
		if err != nil {
			return recs, validLen, err
		}
		recs = append(recs, rec)
		validLen += n
	}
	return recs, validLen, nil
}
