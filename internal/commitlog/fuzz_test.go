package commitlog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"github.com/ffdl/ffdl/internal/codec"
)

// TestRecordFrameGoldenBytes pins the segment file layout byte for
// byte: a keyed frame with a payload, then an empty one.
func TestRecordFrameGoldenBytes(t *testing.T) {
	data := appendRecordFrame(nil, 300, "job-1", []byte("payload"))
	data = appendRecordFrame(data, 301, "", nil)
	const want = "c1ac02056a6f622d31077061796c6f6164248ef859c1ad020000c023d2ae"
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("segment bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestSegmentTornTailErrors pins how recovery tells a torn tail: a
// frame cut short is codec.ErrTruncated, a flipped byte inside a whole
// frame is codec.ErrCorrupt, and both keep the intact prefix.
func TestSegmentTornTailErrors(t *testing.T) {
	first := appendRecordFrame(nil, 1, "a", []byte("x"))
	data := appendRecordFrame(append([]byte(nil), first...), 2, "b", []byte("y"))
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-5] ^= 0xFF // the second payload byte
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"cut", data[:len(data)-1], codec.ErrTruncated},
		{"flipped", flipped, codec.ErrCorrupt},
	} {
		recs, validLen, err := decodeSegment(tc.data)
		if !errors.Is(err, tc.want) || len(recs) != 1 || validLen != len(first) {
			t.Fatalf("%s: %d records, validLen %d, err %v; want 1, %d, %v", tc.name, len(recs), validLen, err, len(first), tc.want)
		}
	}
}

// FuzzSegmentRecordRoundtrip feeds arbitrary bytes through the segment
// decoder: it must never panic, and whatever it accepts must survive a
// re-encode/decode round trip unchanged (the recovery path re-writes
// truncated segments with exactly these bytes).
func FuzzSegmentRecordRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecordFrame(nil, 0, "", nil))
	f.Add(appendRecordFrame(nil, 7, "job-1", []byte("payload")))
	multi := appendRecordFrame(nil, 1, "a", []byte("x"))
	multi = appendRecordFrame(multi, 2, "b", bytes.Repeat([]byte{0xAB}, 100))
	f.Add(multi)
	torn := appendRecordFrame(nil, 3, "k", []byte("v"))
	f.Add(torn[:len(torn)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, tornErr := decodeSegment(data)
		if validLen > len(data) {
			t.Fatalf("validLen %d exceeds input %d", validLen, len(data))
		}
		if tornErr == nil && validLen != len(data) {
			t.Fatalf("clean decode but validLen %d != %d", validLen, len(data))
		}
		// The accepted prefix must re-decode identically after the
		// canonical re-encode compaction and recovery use.
		reenc := encodeRecords(recs)
		recs2, _, err := decodeSegment(reenc)
		if err != nil {
			t.Fatalf("re-encode of accepted records failed to decode: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("roundtrip: %d records became %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i].Offset != recs2[i].Offset || recs[i].Key != recs2[i].Key ||
				!bytes.Equal(recs[i].Payload, recs2[i].Payload) {
				t.Fatalf("roundtrip: record %d diverged: %+v vs %+v", i, recs[i], recs2[i])
			}
		}
	})
}
