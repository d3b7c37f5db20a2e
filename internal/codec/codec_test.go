package codec

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestReaderRoundtrip reads back every field kind the writers produce,
// and pins that Bytes aliases the buffer.
func TestReaderRoundtrip(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1<<40)
	buf = binary.AppendVarint(buf, -7)
	buf = append(buf, 0xAB)
	buf = AppendBytes(buf, []byte("raw"))
	buf = AppendString(buf, "str")
	buf = binary.AppendUvarint(buf, 2)
	buf = append(buf, 1, 2, 3, 4)

	r := NewReader(buf)
	u, err := r.Uvarint()
	if err != nil || u != 1<<40 {
		t.Fatalf("Uvarint = %d, %v", u, err)
	}
	if v, err := r.Varint(); err != nil || v != -7 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if b, err := r.Byte(); err != nil || b != 0xAB {
		t.Fatalf("Byte = %#x, %v", b, err)
	}
	at := r.Off()
	raw, err := r.Bytes()
	if err != nil || string(raw) != "raw" {
		t.Fatalf("Bytes = %q, %v", raw, err)
	}
	if &raw[0] != &buf[at+1] { // past the one-byte length prefix
		t.Fatal("Bytes copied instead of aliasing the buffer")
	}
	if s, err := r.String(); err != nil || s != "str" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if n, err := r.Count(); err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done with 4 unread bytes: %v, want ErrCorrupt", err)
	}
	if f, err := r.Fixed(4); err != nil || len(f) != 4 || f[3] != 4 {
		t.Fatalf("Fixed(4) = %v, %v", f, err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done at the end: %v", err)
	}
	if r.Off() != len(buf) {
		t.Fatalf("Off = %d, want %d", r.Off(), len(buf))
	}
}

// TestReaderRejects pins the error each bad input decodes to: an input
// that ends early is ErrTruncated, one that can never be valid is
// ErrCorrupt.
func TestReaderRejects(t *testing.T) {
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for _, tc := range []struct {
		name string
		buf  []byte
		read func(r *Reader) error
		want error
	}{
		{"empty byte", nil, func(r *Reader) error { _, err := r.Byte(); return err }, ErrTruncated},
		{"cut uvarint", []byte{0x80}, func(r *Reader) error { _, err := r.Uvarint(); return err }, ErrTruncated},
		{"cut varint", []byte{0x80}, func(r *Reader) error { _, err := r.Varint(); return err }, ErrTruncated},
		{"uvarint overflow", overflow, func(r *Reader) error { _, err := r.Uvarint(); return err }, ErrCorrupt},
		{"varint overflow", overflow, func(r *Reader) error { _, err := r.Varint(); return err }, ErrCorrupt},
		{"cut fixed", []byte{1, 2, 3}, func(r *Reader) error { _, err := r.Fixed(4); return err }, ErrTruncated},
		{"cut bytes", []byte{3, 'a', 'b'}, func(r *Reader) error { _, err := r.Bytes(); return err }, ErrTruncated},
		{"bytes over MaxLen", binary.AppendUvarint(nil, MaxLen+1), func(r *Reader) error { _, err := r.Bytes(); return err }, ErrCorrupt},
		{"string over MaxLen", binary.AppendUvarint(nil, MaxLen+1), func(r *Reader) error { _, err := r.String(); return err }, ErrCorrupt},
		{"count over MaxLen", binary.AppendUvarint(nil, MaxLen+1), func(r *Reader) error { _, err := r.Count(); return err }, ErrCorrupt},
		{"count past the input", []byte{3, 0, 0}, func(r *Reader) error { _, err := r.Count(); return err }, ErrTruncated},
		{"trailing bytes", []byte{0}, func(r *Reader) error { return r.Done() }, ErrCorrupt},
	} {
		r := NewReader(tc.buf)
		if err := tc.read(&r); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
