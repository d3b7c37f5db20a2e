package mongo

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/ffdl/ffdl/internal/codec"
)

// Oplog entry codec. Every op is encoded into its record's payload —
// the record's only body, on a MemStore as on a FileStore — and decoded
// by change-stream replays, oplog-image reads and recovery (commitlog
// record frames already checksum payloads, so the codec carries no CRC
// of its own).
//
// Layout (integers, length prefixes, bounds and decode errors follow
// internal/codec):
//
//	Seq | Kind | Coll | ID | tagged Doc
//
// Every document value carries a one-byte type tag, so an int decodes
// as an int, not a wider integer — readers downstream switch on it
// (jobdoc's getI, tenant quota docs). Value types outside the tagged set
// (Doc's value model), and documents nested deeper than maxOpDepth, are
// rejected at encode time — loudly, at the write — rather than silently
// dropped at recovery.

// Doc value type tags. Tags 3–7 and 11 belonged to value types no write
// stores (int32, int64, uint64, float32, float64, []string); they are
// retired, and decoding one is codec.ErrCorrupt.
const (
	opvNil    byte = 0
	opvString byte = 1
	opvInt    byte = 2
	opvBool   byte = 8
	opvDoc    byte = 9
	opvList   byte = 10 // []any
)

var (
	errOpTag     = fmt.Errorf("%w: mongo: unknown oplog value tag", codec.ErrCorrupt)
	errOpEncType = errors.New("mongo: unencodable doc value type")
)

// maxOpDepth bounds document/list nesting (job documents nest at most
// three levels), so a corrupt payload cannot drive the recursive
// decoder into a stack overflow.
const maxOpDepth = 64

// encodeOp appends the durable form of o to dst.
func encodeOp(dst []byte, o op) ([]byte, error) {
	dst = binary.AppendUvarint(dst, o.Seq)
	dst = codec.AppendString(dst, o.Kind)
	dst = codec.AppendString(dst, o.Coll)
	dst = codec.AppendString(dst, o.ID)
	if o.Doc == nil {
		return append(dst, opvNil), nil
	}
	return appendOpDoc(dst, o.Doc, 0)
}

// decodeOp parses one durable oplog entry.
func decodeOp(data []byte) (op, error) {
	r := codec.NewReader(data)
	var o op
	var err error
	if o.Seq, err = r.Uvarint(); err != nil {
		return op{}, err
	}
	if o.Kind, err = r.String(); err != nil {
		return op{}, err
	}
	if o.Coll, err = r.String(); err != nil {
		return op{}, err
	}
	if o.ID, err = r.String(); err != nil {
		return op{}, err
	}
	v, err := decodeOpValue(&r, 0)
	if err != nil {
		return op{}, err
	}
	if v != nil {
		d, ok := v.(Doc)
		if !ok {
			return op{}, fmt.Errorf("%w: op document is %T", errOpTag, v)
		}
		o.Doc = d
	}
	return o, r.Done()
}

// appendOpValue appends one tagged document value nested inside depth
// containers.
func appendOpValue(dst []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, opvNil), nil
	case string:
		return codec.AppendString(append(dst, opvString), x), nil
	case int:
		return binary.AppendVarint(append(dst, opvInt), int64(x)), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, opvBool, b), nil
	case Doc:
		return appendOpDoc(dst, x, depth)
	case []any:
		if depth >= maxOpDepth {
			return nil, fmt.Errorf("%w: nesting deeper than %d", errOpEncType, maxOpDepth)
		}
		dst = append(dst, opvList)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		var err error
		for _, e := range x {
			if dst, err = appendOpValue(dst, e, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("%w: %T", errOpEncType, v)
	}
}

func appendOpDoc(dst []byte, d Doc, depth int) ([]byte, error) {
	if depth >= maxOpDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", errOpEncType, maxOpDepth)
	}
	dst = append(dst, opvDoc)
	dst = binary.AppendUvarint(dst, uint64(len(d)))
	var err error
	for k, v := range d {
		dst = codec.AppendString(dst, k)
		if dst, err = appendOpValue(dst, v, depth+1); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodeOpValue decodes one tagged document value nested inside depth
// containers.
func decodeOpValue(r *codec.Reader, depth int) (any, error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if (tag == opvDoc || tag == opvList) && depth >= maxOpDepth {
		return nil, fmt.Errorf("%w: oplog value nests deeper than %d", codec.ErrCorrupt, maxOpDepth)
	}
	switch tag {
	case opvNil:
		return nil, nil
	case opvString:
		return r.String()
	case opvInt:
		v, err := r.Varint()
		return int(v), err
	case opvBool:
		b, err := r.Byte()
		return b != 0, err
	case opvDoc:
		n, err := r.Count()
		if err != nil {
			return nil, err
		}
		d := make(Doc, n)
		for i := 0; i < n; i++ {
			k, err := r.String()
			if err != nil {
				return nil, err
			}
			if d[k], err = decodeOpValue(r, depth+1); err != nil {
				return nil, err
			}
		}
		return d, nil
	case opvList:
		n, err := r.Count()
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = decodeOpValue(r, depth+1); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: 0x%02x", errOpTag, tag)
	}
}
