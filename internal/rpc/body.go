package rpc

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"sync"
	"time"

	"github.com/ffdl/ffdl/internal/codec"
)

// Body codec. Every frame body is one application message in a
// descriptor-free binary layout:
//
//	uvarint fingerprint | value
//
// where value is, by kind: a bool as one byte (0 or 1); a signed int as
// a varint and an unsigned int as a uvarint, whatever its width; a
// float as 8 little-endian IEEE-754 bytes; a string as a
// uvarint-length-prefixed run; a slice as a uvarint count then each
// element; a pointer as a 0 (nil) or 1 byte, then the pointee; a struct
// as its exported fields in declaration order; and a struct that
// marshals itself (encoding.BinaryAppender and BinaryUnmarshaler:
// time.Time) as its marshaled bytes, length-prefixed — except a
// time.Time whose zone offset Time's binary form cannot carry, which
// the codec carries in a form of its own (appendZoneTime). Maps,
// interfaces, channels, funcs, arrays and complex numbers are rejected
// when the plan is built.
//
// The layout carries no type descriptors: both sides compile a plan per
// Go type once, cache it process-wide, and walk the value with it. The
// fingerprint stands in for the descriptors: it hashes the type's shape
// (field names and wire kinds, recursively), so decoding a body into a
// differently shaped type errors instead of misreading bytes. Decoding
// goes through codec.Reader, so corrupt or truncated bodies fail with
// codec.ErrCorrupt/ErrTruncated, never a panic (FuzzBodyRoundtrip).

// wireKind is a plan's encoding. Ints and uints of every width share
// one wire kind each, so the fingerprint survives a width change and
// the decoder range-checks the narrower side.
type wireKind uint8

const (
	wireBool wireKind = iota + 1
	wireInt
	wireUint
	wireFloat
	wireString
	wireSlice
	wirePtr
	wireStruct
	wireBinary
)

// maxDepth bounds pointer and slice nesting on both sides, so a cyclic
// value cannot recurse forever on encode and a crafted body cannot
// exhaust the stack on decode.
const maxDepth = 1000

// plan is the compiled codec of one Go type.
type plan struct {
	kind   wireKind
	typ    reflect.Type
	elem   *plan       // wireSlice, wirePtr
	fields []planField // wireStruct
	// empty marks a struct with no encoded bytes (no exported fields,
	// or only empty structs); it cannot be a slice element, because
	// codec.Reader.Count bounds a count by the bytes left.
	empty bool
	// fp is the shape fingerprint a body of this type starts with. It
	// is set on top-level plans only.
	fp uint64
}

type planField struct {
	index int
	name  string
	plan  *plan
}

var (
	binaryAppenderType    = reflect.TypeFor[encoding.BinaryAppender]()
	binaryUnmarshalerType = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

// plans caches top-level plans by reflect.Type.
var plans sync.Map

// planFor returns the cached plan of t, compiling it on first use.
func planFor(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	p, err := buildPlan(t, make(map[reflect.Type]*plan))
	if err != nil {
		return nil, err
	}
	h := fnv.New32a()
	p.shape(h, nil)
	p.fp = uint64(h.Sum32())
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*plan), nil
}

// buildPlan compiles t. building holds the plans under construction, so
// a recursive type (obs.Span's Children []*Span) links back to its own
// plan instead of recursing forever.
func buildPlan(t reflect.Type, building map[reflect.Type]*plan) (*plan, error) {
	if p, ok := building[t]; ok {
		return p, nil
	}
	p := &plan{typ: t}
	building[t] = p
	switch t.Kind() {
	case reflect.Bool:
		p.kind = wireBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind = wireInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.kind = wireUint
	case reflect.Float32, reflect.Float64:
		p.kind = wireFloat
	case reflect.String:
		p.kind = wireString
	case reflect.Slice, reflect.Pointer:
		p.kind = wirePtr
		if t.Kind() == reflect.Slice {
			p.kind = wireSlice
		}
		elem, err := buildPlan(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		// A struct still under construction here is on the path back
		// to this slice, so it holds a slice or pointer: never empty.
		if p.kind == wireSlice && elem.empty {
			return nil, fmt.Errorf("rpc: body: slice of empty struct %v", t.Elem())
		}
		p.elem = elem
	case reflect.Struct:
		pt := reflect.PointerTo(t)
		if pt.Implements(binaryAppenderType) && pt.Implements(binaryUnmarshalerType) {
			p.kind = wireBinary
			break
		}
		p.kind = wireStruct
		p.empty = true
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if !sf.IsExported() {
				continue
			}
			fp, err := buildPlan(sf.Type, building)
			if err != nil {
				return nil, fmt.Errorf("%w (field %s.%s)", err, t, sf.Name)
			}
			p.fields = append(p.fields, planField{index: i, name: sf.Name, plan: fp})
			p.empty = p.empty && fp.kind == wireStruct && fp.empty
		}
		if t.NumField() > 0 && len(p.fields) == 0 {
			return nil, fmt.Errorf("rpc: body: type %v has no exported fields", t)
		}
	default:
		return nil, fmt.Errorf("rpc: body: unsupported type %v (kind %v)", t, t.Kind())
	}
	return p, nil
}

// shape writes p's shape — wire kinds and field names, with a plan
// already on the stack written as a back-reference — for the
// fingerprint.
func (p *plan) shape(w io.Writer, stack []*plan) {
	for i, q := range stack {
		if q == p {
			fmt.Fprintf(w, "^%d", len(stack)-i)
			return
		}
	}
	stack = append(stack, p)
	switch p.kind {
	case wireSlice:
		io.WriteString(w, "[]")
		p.elem.shape(w, stack)
	case wirePtr:
		io.WriteString(w, "*")
		p.elem.shape(w, stack)
	case wireStruct:
		io.WriteString(w, "{")
		for _, f := range p.fields {
			fmt.Fprintf(w, "%s:", f.name)
			f.plan.shape(w, stack)
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	default:
		fmt.Fprintf(w, "%d", p.kind)
	}
}

var errBodyDepth = fmt.Errorf("rpc: body: nesting deeper than %d", maxDepth)

// appendBody appends the body encoding of v to dst. A nil v encodes to
// an empty body, which decodes as the zero value. A pointer v is
// encoded as its pointee, so a caller may pass either.
func appendBody(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return dst, fmt.Errorf("rpc: body: cannot encode nil pointer of type %v", rv.Type())
		}
		rv = rv.Elem()
	}
	p, err := planFor(rv.Type())
	if err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, p.fp)
	return p.append(dst, rv, 0)
}

func (p *plan) append(dst []byte, v reflect.Value, depth int) ([]byte, error) {
	var err error
	switch p.kind {
	case wireBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		dst = append(dst, b)
	case wireInt:
		dst = binary.AppendVarint(dst, v.Int())
	case wireUint:
		dst = binary.AppendUvarint(dst, v.Uint())
	case wireFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case wireString:
		dst = codec.AppendString(dst, v.String())
	case wireSlice:
		n := v.Len()
		if n > 0 && depth >= maxDepth {
			return dst, errBodyDepth
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		for i := 0; i < n && err == nil; i++ {
			dst, err = p.elem.append(dst, v.Index(i), depth+1)
		}
	case wirePtr:
		if v.IsNil() {
			return append(dst, 0), nil
		}
		if depth >= maxDepth {
			return dst, errBodyDepth
		}
		dst, err = p.elem.append(append(dst, 1), v.Elem(), depth+1)
	case wireStruct:
		for _, f := range p.fields {
			if dst, err = f.plan.append(dst, v.Field(f.index), depth); err != nil {
				break
			}
		}
	case wireBinary:
		dst, err = appendBinary(dst, v)
	}
	return dst, err
}

// appendBinary appends a self-marshaling value's bytes with their
// length prefix. They are written straight into dst behind a one-byte
// length placeholder, which holds any length below 128 (time.Time
// takes 15 or 16); a longer encoding is shifted behind a full uvarint.
func appendBinary(dst []byte, v reflect.Value) ([]byte, error) {
	// An addressable value is boxed by its address; a non-addressable
	// one is boxed without a copy.
	var x any
	if v.CanAddr() {
		x = v.Addr().Interface()
	} else {
		x = v.Interface()
	}
	start := len(dst)
	dst, err := x.(encoding.BinaryAppender).AppendBinary(append(dst, 0))
	if t, ok := timeOf(x); ok && (err != nil || dst[start+1] == timeBinaryV2) {
		dst, err = appendZoneTime(dst[:start+1], t), nil
	}
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - 1
	if n < 0x80 {
		dst[start] = byte(n)
		return dst, nil
	}
	b := append([]byte(nil), dst[start+1:]...)
	return codec.AppendBytes(dst[:start], b), nil
}

// decodeBody decodes body into the value v points to, overwriting every
// encoded field. Pointers beyond the first are followed (and allocated
// when nil), as gob did.
func decodeBody(v any, body []byte) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("rpc: body: decode into non-pointer or nil %T", v)
	}
	rv = rv.Elem()
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		rv = rv.Elem()
	}
	p, err := planFor(rv.Type())
	if err != nil {
		return err
	}
	r := codec.NewReader(body)
	fp, err := r.Uvarint()
	if err != nil {
		return err
	}
	if fp != p.fp {
		return fmt.Errorf("%w: body shape %#x does not match %v (shape %#x)", codec.ErrCorrupt, fp, rv.Type(), p.fp)
	}
	if err := p.read(&r, rv, 0); err != nil {
		return err
	}
	return r.Done()
}

func (p *plan) read(r *codec.Reader, v reflect.Value, depth int) error {
	switch p.kind {
	case wireBool:
		b, err := r.Byte()
		if err != nil {
			return err
		}
		if b > 1 {
			return fmt.Errorf("%w: bool byte %d", codec.ErrCorrupt, b)
		}
		v.SetBool(b == 1)
	case wireInt:
		x, err := r.Varint()
		if err != nil {
			return err
		}
		if v.OverflowInt(x) {
			return fmt.Errorf("%w: %d overflows %v", codec.ErrCorrupt, x, p.typ)
		}
		v.SetInt(x)
	case wireUint:
		x, err := r.Uvarint()
		if err != nil {
			return err
		}
		if v.OverflowUint(x) {
			return fmt.Errorf("%w: %d overflows %v", codec.ErrCorrupt, x, p.typ)
		}
		v.SetUint(x)
	case wireFloat:
		b, err := r.Fixed(8)
		if err != nil {
			return err
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if v.OverflowFloat(f) {
			return fmt.Errorf("%w: %g overflows %v", codec.ErrCorrupt, f, p.typ)
		}
		v.SetFloat(f)
	case wireString:
		s, err := r.String()
		if err != nil {
			return err
		}
		v.SetString(s)
	case wireSlice:
		n, err := r.Count()
		if err != nil {
			return err
		}
		if n == 0 {
			v.SetZero()
			return nil
		}
		if depth >= maxDepth {
			return fmt.Errorf("%w: %v", codec.ErrCorrupt, errBodyDepth)
		}
		s := reflect.MakeSlice(p.typ, n, n)
		for i := 0; i < n; i++ {
			if err := p.elem.read(r, s.Index(i), depth+1); err != nil {
				return err
			}
		}
		v.Set(s)
	case wirePtr:
		b, err := r.Byte()
		if err != nil {
			return err
		}
		switch {
		case b == 0:
			v.SetZero()
			return nil
		case b != 1:
			return fmt.Errorf("%w: pointer flag %d", codec.ErrCorrupt, b)
		case depth >= maxDepth:
			return fmt.Errorf("%w: %v", codec.ErrCorrupt, errBodyDepth)
		}
		e := reflect.New(p.typ.Elem())
		if err := p.elem.read(r, e.Elem(), depth+1); err != nil {
			return err
		}
		v.Set(e)
	case wireStruct:
		for _, f := range p.fields {
			if err := f.plan.read(r, v.Field(f.index), depth); err != nil {
				return err
			}
		}
	case wireBinary:
		b, err := r.Bytes()
		if err != nil {
			return err
		}
		if t, ok := v.Addr().Interface().(*time.Time); ok && len(b) > 0 && b[0] == zoneTimeVersion {
			return readZoneTime(t, b[1:])
		}
		if err := v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
			return fmt.Errorf("%w: %v: %v", codec.ErrCorrupt, p.typ, err)
		}
	}
	return nil
}

// Time.MarshalBinary writes version 1 for a zone offset of whole
// minutes and version 2 for any other; zoneTimeVersion, which it never
// writes, leads the codec's own time.Time form.
const (
	timeBinaryV2    = 2
	zoneTimeVersion = 0x80
)

// timeOf returns the time.Time x holds, by value or by address.
func timeOf(x any) (time.Time, bool) {
	switch t := x.(type) {
	case *time.Time:
		return *t, true
	case time.Time:
		return t, true
	}
	return time.Time{}, false
}

// appendZoneTime appends t in the codec's own form, for a zone offset
// that is not whole minutes or that MarshalBinary refuses. Time's
// binary form holds the offset as int16 minutes, in which -1 stands for
// UTC, so MarshalBinary refuses an offset from -119 s to -60 s and one
// of 22 days or more; its version 2 adds the seconds as a byte that
// UnmarshalBinary reads unsigned, so a negative offset that is not
// whole minutes decodes wrong. The codec's form is the version byte,
// then t's Unix seconds, its nanoseconds and its zone offset in
// seconds, as varints.
func appendZoneTime(dst []byte, t time.Time) []byte {
	_, offset := t.Zone()
	dst = binary.AppendVarint(append(dst, zoneTimeVersion), t.Unix())
	dst = binary.AppendUvarint(dst, uint64(t.Nanosecond()))
	return binary.AppendVarint(dst, int64(offset))
}

// readZoneTime decodes the codec's own time form, b without its version
// byte, into t: the instant in an unnamed fixed zone of the offset.
func readZoneTime(t *time.Time, b []byte) error {
	r := codec.NewReader(b)
	sec, err := r.Varint()
	if err != nil {
		return err
	}
	nsec, err := r.Uvarint()
	if err != nil {
		return err
	}
	offset, err := r.Varint()
	if err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	if nsec >= 1e9 || offset != int64(int32(offset)) {
		return fmt.Errorf("%w: time nanoseconds %d, zone offset %d", codec.ErrCorrupt, nsec, offset)
	}
	*t = time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(offset)))
	return nil
}
