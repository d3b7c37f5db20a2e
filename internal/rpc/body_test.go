package rpc

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/codec"
)

type bodyLabel string

// bodyNode is a recursive pointer-slice type, shaped like obs.Span.
type bodyNode struct {
	Name     string
	At       time.Time
	Children []*bodyNode
}

// bodyBlob marshals itself like time.Time does, but to any length, so
// an encoding of 128 bytes or more takes the multi-byte length prefix.
type bodyBlob struct{ data []byte }

func (b bodyBlob) AppendBinary(dst []byte) ([]byte, error) { return append(dst, b.data...), nil }

func (b *bodyBlob) UnmarshalBinary(p []byte) error {
	b.data = append([]byte(nil), p...)
	return nil
}

// bodyAll carries every kind the body codec supports.
type bodyAll struct {
	B      bool
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	F32    float32
	F64    float64
	S      string
	Label  bodyLabel
	Ints   []int64
	Strs   []string
	Bools  []bool
	P      *string
	NilP   *int
	At     time.Time
	Blob   bodyBlob
	Tree   *bodyNode
	Nested struct{ X, Y int }
	Empty  struct{}
	hidden int
}

// Shapes of the core message types, declared here because core imports
// this package: a status reply with its history, a job listing, and a
// metrics snapshot.
type (
	coreStatusEntry struct {
		Status  string
		Time    time.Time
		Message string
	}
	coreStatusReply struct {
		JobID    string
		Status   string
		QueuePos int
		History  []coreStatusEntry
		Degraded bool
	}
	coreListReply struct {
		Jobs []struct {
			ID       string
			Manifest struct {
				Name, User      string
				Learners        int
				MemoryMB        int64
				Iterations      int
				CheckpointEvery int
			}
			Status  string
			History []coreStatusEntry
		}
	}
	coreMetricsReply struct {
		Snapshot struct {
			Counters []struct {
				Name  string
				Value int64
			}
			Histograms []struct {
				Name   string
				Bounds []float64
				Counts []uint64
				Count  uint64
				Sum    float64
			}
		}
	}
)

// buildBodyAll builds a bodyAll from fuzz inputs: narrower fields take
// truncations of the wide ones, the time carries a fixed (non-UTC)
// zone, and the tree is depth levels deep with fan-out two. s is cut
// to 64 bytes so that checking every prefix of the body stays cheap.
func buildBodyAll(b bool, i int64, u uint64, f float64, s string, sec int64, zoneMin int16, depth uint8) bodyAll {
	if len(s) > 64 {
		s = s[:64]
	}
	at := time.Unix(sec%(1<<40), int64(u%1e9)).In(time.FixedZone("fz", int(zoneMin)*60))
	var tree func(d int) *bodyNode
	tree = func(d int) *bodyNode {
		n := &bodyNode{Name: "n" + strconv.Itoa(d), At: at}
		if d > 0 {
			n.Children = []*bodyNode{tree(d - 1), tree(d - 1)}
		}
		return n
	}
	v := bodyAll{
		B: b, I: int(i), I8: int8(i), I16: int16(i), I32: int32(i), I64: i,
		U: uint(u), U8: uint8(u), U16: uint16(u), U32: uint32(u), U64: u,
		F32: float32(f), F64: f, S: s, Label: bodyLabel(s),
		At: at, Tree: tree(int(depth % 4)),
	}
	v.Nested.X, v.Nested.Y = int(i), -int(i)
	if s != "" {
		v.Blob.data = []byte(strings.Repeat(s, 3))
	}
	if b {
		v.P = &s
		v.Ints = []int64{i, -i, 0}
		v.Strs = []string{s, "", s + s}
		v.Bools = []bool{b, !b}
	}
	return v
}

// bodyEqual is reflect.DeepEqual with floats compared by bit pattern
// (NaN roundtrips) and times by instant and zone offset (a decoded
// fixed zone is a fresh *Location).
func bodyEqual(a, b bodyAll) bool {
	if math.Float32bits(a.F32) != math.Float32bits(b.F32) || math.Float64bits(a.F64) != math.Float64bits(b.F64) {
		return false
	}
	a.F32, b.F32, a.F64, b.F64 = 0, 0, 0, 0
	sameTime := func(x, y time.Time) bool {
		_, xo := x.Zone()
		_, yo := y.Zone()
		return x.Equal(y) && xo == yo
	}
	var walk func(x, y *bodyNode) bool
	walk = func(x, y *bodyNode) bool {
		if x == nil || y == nil {
			return x == y
		}
		if x.Name != y.Name || !sameTime(x.At, y.At) || len(x.Children) != len(y.Children) {
			return false
		}
		for i := range x.Children {
			if !walk(x.Children[i], y.Children[i]) {
				return false
			}
		}
		return true
	}
	if !sameTime(a.At, b.At) || !walk(a.Tree, b.Tree) {
		return false
	}
	a.At, b.At, a.Tree, b.Tree = time.Time{}, time.Time{}, nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzBodyRoundtrip fuzzes three properties of the body codec:
//
//  1. decode(encode(v)) == v for a value of every supported kind;
//  2. every proper prefix of the encoding errors with ErrTruncated or
//     ErrCorrupt — truncated bodies never decode silently;
//  3. arbitrary bytes decoded into that type and into core-shaped
//     types never panic, both as they come and behind the type's own
//     fingerprint (which random bytes would almost never match).
func FuzzBodyRoundtrip(f *testing.F) {
	f.Add(true, int64(-7), uint64(300), 1.5, "job-1", int64(1_700_000_000), int16(330), uint8(2), []byte{0x01, 0x02})
	f.Add(false, int64(math.MinInt64), uint64(math.MaxUint64), math.NaN(), "", int64(-5), int16(-600), uint8(0), []byte(nil))
	f.Add(true, int64(1<<40), uint64(1), math.Inf(-1), strings.Repeat("x", 200), int64(0), int16(0), uint8(3), []byte{0xFF, 0xFF, 0xFF})
	// A zone of -1 minute, whose offset Time.MarshalBinary refuses.
	f.Add(false, int64(0), uint64(0), 0.0, "", int64(0), int16(-1), uint8(0), []byte(nil))
	f.Fuzz(func(t *testing.T, b bool, i int64, u uint64, fl float64, s string, sec int64, zoneMin int16, depth uint8, raw []byte) {
		want := buildBodyAll(b, i, u, fl, s, sec, zoneMin, depth)
		data, err := appendBody(nil, want)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got bodyAll
		if err := decodeBody(&got, data); err != nil {
			t.Fatalf("decode(encode(v)): %v", err)
		}
		if !bodyEqual(want, got) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
		}
		for cut := 0; cut < len(data); cut++ {
			var v bodyAll
			err := decodeBody(&v, data[:cut])
			if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("decode of %d/%d-byte prefix: err = %v, want ErrTruncated or ErrCorrupt", cut, len(data), err)
			}
		}
		for _, dst := range []any{new(bodyAll), new(coreStatusReply), new(coreListReply), new(coreMetricsReply)} {
			p, err := planFor(reflect.TypeOf(dst).Elem())
			if err != nil {
				t.Fatal(err)
			}
			decodeBody(dst, raw)                                             //nolint:errcheck
			decodeBody(dst, append(binary.AppendUvarint(nil, p.fp), raw...)) //nolint:errcheck
		}
	})
}

// TestBodyGoldenBytes pins the body layout byte for byte: the shape
// fingerprint (FNV-32a of "{Msg:5;N:2;}" for echoReq), then each
// field — a length-prefixed string, a zigzag varint, a bool byte, a
// length-prefixed time.Time, a nil pointer flag and a counted slice of
// little-endian floats.
func TestBodyGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{echoReq{Msg: "hi", N: -2}, "87c9bbe50b02686903"},
		{struct {
			Ok bool
			At time.Time
			P  *uint16
			L  []float64
		}{Ok: true, At: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC), L: []float64{1}},
			"f79fb8c40d010f010000000ee0e92ca500000006ffff0001000000000000f03f"},
	} {
		got, err := appendBody(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Fatalf("body bytes of %T changed:\n got %x\nwant %s", tc.v, got, tc.want)
		}
	}
}

// TestBodyCarriesEveryFixedZone pins times in every fixed zone through
// the body codec by instant and zone offset, the offsets Time's binary
// form refuses (-60 s to -119 s, 22 days or more) or misreads (negative
// ones that are not whole minutes) included.
func TestBodyCarriesEveryFixedZone(t *testing.T) {
	for _, offset := range []int{0, 60, -60, -61, -90, -119, -120, 30, -30, -3599, 19800, 32768 * 60, -32769 * 60, 1 << 30} {
		at := time.Unix(1_700_000_000, 123456789).In(time.FixedZone("fz", offset))
		data, err := appendBody(nil, struct{ At time.Time }{at})
		if err != nil {
			t.Fatalf("offset %d s: encode: %v", offset, err)
		}
		var got struct{ At time.Time }
		if err := decodeBody(&got, data); err != nil {
			t.Fatalf("offset %d s: decode: %v", offset, err)
		}
		if _, o := got.At.Zone(); !got.At.Equal(at) || o != offset {
			t.Fatalf("offset %d s: decoded %v (offset %d s), want %v", offset, got.At, o, at)
		}
	}
}

// TestBodyRejectsOtherShape pins the fingerprint: a body decoded into a
// type whose shape differs — a renamed field, a changed kind, an extra
// field — errors instead of misreading bytes.
func TestBodyRejectsOtherShape(t *testing.T) {
	body, err := appendBody(nil, echoReq{Msg: "hi", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Same shape under another type name decodes.
	var same echoResp
	if err := decodeBody(&same, body); err != nil || same != (echoResp{Msg: "hi", N: 3}) {
		t.Fatalf("same shape: %+v, %v", same, err)
	}
	for _, dst := range []any{
		new(struct {
			Msg   string
			Count int
		}),
		new(struct {
			Msg string
			N   string
		}),
		new(struct {
			Msg string
			N   int
			X   bool
		}),
		new(coreStatusReply),
	} {
		err := decodeBody(dst, body)
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("decode into %T: err = %v, want ErrCorrupt", dst, err)
		}
	}
}

// TestBodyRejectsUnsupportedKinds pins that a map, interface or chan
// field fails the encode with an error, never a panic, and that an
// unsupported type is also refused on the decode side.
func TestBodyRejectsUnsupportedKinds(t *testing.T) {
	for _, v := range []any{
		struct{ M map[string]int }{M: map[string]int{"a": 1}},
		struct{ I any }{I: 1},
		struct{ C chan int }{C: make(chan int)},
		struct{ Deep []*struct{ M map[int]int } }{},
		struct{ hidden int }{},
		[]struct{}{{}},
	} {
		if _, err := appendBody(nil, v); err == nil {
			t.Errorf("encode of %T succeeded", v)
		}
		dst := reflect.New(reflect.TypeOf(v)).Interface()
		if err := decodeBody(dst, []byte{0}); err == nil {
			t.Errorf("decode into %T succeeded", dst)
		}
	}
}

// TestBodyNarrowKindsRangeCheck pins the overflow check: an int that
// fits int64 but not the decoding type's width errors. The shapes
// match — ints of every width share one wire kind.
func TestBodyNarrowKindsRangeCheck(t *testing.T) {
	body, err := appendBody(nil, struct{ N int64 }{N: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var narrow struct{ N int16 }
	if err := decodeBody(&narrow, body); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("int64 1<<20 into int16: err = %v, want ErrCorrupt", err)
	}
	var wide struct{ N int32 }
	if err := decodeBody(&wide, body); err != nil || wide.N != 1<<20 {
		t.Fatalf("int64 1<<20 into int32: %d, %v", wide.N, err)
	}
}

// TestBodyDecodeOverwrites pins that decoding replaces every field of a
// reused destination: a zero or empty field in the body clears a stale
// value instead of leaving it, and a decoded slice never aliases the
// destination's old backing array.
func TestBodyDecodeOverwrites(t *testing.T) {
	body, err := appendBody(nil, coreStatusReply{JobID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	old := []coreStatusEntry{{Status: "PENDING"}}
	dst := coreStatusReply{JobID: "a", QueuePos: 4, History: old, Degraded: true}
	if err := decodeBody(&dst, body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, coreStatusReply{JobID: "b"}) {
		t.Fatalf("decoded into reused value: %+v", dst)
	}
	if old[0].Status != "PENDING" {
		t.Fatal("decode wrote through the old History slice")
	}
}

// TestBodyDepthBound pins that nesting past maxDepth errors on both
// sides instead of recursing without bound: a cyclic value on encode,
// a crafted chain of pointer flags on decode.
func TestBodyDepthBound(t *testing.T) {
	n := &bodyNode{Name: "loop"}
	n.Children = []*bodyNode{n}
	if _, err := appendBody(nil, n); err == nil {
		t.Fatal("encode of a cyclic value succeeded")
	}
	p, err := planFor(reflect.TypeFor[bodyNode]())
	if err != nil {
		t.Fatal(err)
	}
	// Each level: an empty Name, a valid time, one child that is present.
	tb, err := time.Time{}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := binary.AppendUvarint(nil, p.fp)
	for i := 0; i < 2*maxDepth; i++ {
		body = codec.AppendBytes(append(body, 0), tb)
		body = append(body, 1, 1)
	}
	var got bodyNode
	err = decodeBody(&got, body)
	if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("decode of a %d-deep chain: err = %v, want ErrCorrupt for nesting", 2*maxDepth, err)
	}
}

// TestStreamRecvDeliversItemsRacingEnd pins the stream-end race: the
// read loop queues a stream's last data frames and then its end frame,
// and a reader that reaches Recv only after all are queued sees two
// ready channels. Every queued item must still be delivered, in order,
// before ErrStreamDone — and an item that fails to decode is reported
// as an error, not swallowed into a clean end.
func TestStreamRecvDeliversItemsRacingEnd(t *testing.T) {
	c := &Conn{calls: make(map[uint64]*call)}
	var items [][]byte
	for n := 0; n < 3; n++ {
		b, err := appendBody(nil, echoResp{Msg: "item", N: n})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, b)
	}
	for i := 0; i < 2000; i++ {
		cl := &call{data: make(chan []byte, 16), done: make(chan error, 1)}
		for _, b := range items {
			cl.data <- b
		}
		cl.data <- []byte{0xFF} // corrupt: a truncated fingerprint
		cl.done <- nil
		r := &StreamReader{conn: c, id: uint64(i), cl: cl, ctx: context.Background(), method: "Echo"}
		for n := range items {
			var got echoResp
			if err := r.Recv(&got); err != nil {
				t.Fatalf("iteration %d, item %d: %v", i, n, err)
			}
			if got.N != n {
				t.Fatalf("iteration %d: got item %d, want %d", i, got.N, n)
			}
		}
		var got echoResp
		if err := r.Recv(&got); err == nil || errors.Is(err, ErrStreamDone) {
			t.Fatalf("iteration %d: corrupt item: err = %v, want a decode error", i, err)
		}
		for k := 0; k < 2; k++ {
			if err := r.Recv(&got); !errors.Is(err, ErrStreamDone) {
				t.Fatalf("iteration %d: after the last item: err = %v, want ErrStreamDone", i, err)
			}
		}
	}
}
