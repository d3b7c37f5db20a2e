package etcd

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"testing"

	"github.com/ffdl/ffdl/internal/codec"
)

// commandEqual compares commands treating nil and empty byte slices /
// batches as equal (the codec canonicalizes empties to nil).
func commandEqual(a, b *command) bool {
	if a.Op != b.Op || a.Key != b.Key || a.Prefix != b.Prefix ||
		a.ReqID != b.ReqID || a.RequestBy != b.RequestBy || a.Floor != b.Floor {
		return false
	}
	if !bytes.Equal(a.Value, b.Value) {
		return false
	}
	if len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if !commandEqual(&a.Batch[i], &b.Batch[i]) {
			return false
		}
	}
	return true
}

func codecCases() []command {
	return []command{
		{Op: opPut, Key: "jobs/x/status", Value: []byte("PROCESSING"), ReqID: 7, Floor: 5},
		{Op: opPut, Key: "k", Value: nil, ReqID: 1<<64 - 1, Floor: 1<<64 - 1},
		{Op: opDelete, Key: "jobs/", Prefix: true, ReqID: 3},
		{Op: opDelete, Key: "jobs/y/status", ReqID: 4, RequestBy: 1},
		{Op: opPut, Key: "a", Value: []byte{0, 1, 2}, ReqID: 8, RequestBy: 2},
		{Op: opBatch, Floor: 10, Batch: []command{
			{Op: opPut, Key: "b/1", Value: []byte("v1"), ReqID: 10},
			{Op: opDelete, Key: "b/2", ReqID: 11},
			{Op: opDelete, Key: "b/", Prefix: true, ReqID: 12},
		}},
	}
}

// TestCommandCodecRoundtrip pins decode(encode(x)) == x for every op
// shape.
func TestCommandCodecRoundtrip(t *testing.T) {
	var scratch command
	for _, want := range codecCases() {
		if err := decodeCommand(encodeEntry(&want), &scratch); err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !commandEqual(&want, &scratch) {
			t.Fatalf("roundtrip: got %+v, want %+v", scratch, want)
		}
	}
}

// TestCommandCodecGoldenBytes pins the entry layout byte for byte: a
// batch envelope with ack floor 7 holding a Put, a prefix Delete and a
// plain Delete.
func TestCommandCodecGoldenBytes(t *testing.T) {
	cmd := command{Op: opBatch, ReqID: 300, Floor: 7, Batch: []command{
		{Op: opPut, Key: "jobs/x/status", Value: []byte("PROCESSING"), ReqID: 7, RequestBy: 3},
		{Op: opDelete, Key: "jobs/", Prefix: true, ReqID: 1 << 40},
		{Op: opDelete, Key: "jobs/x/done", ReqID: 9},
	}}
	const want = "e70762ac02000000000301070d6a6f62732f782f7374617475730a50524f43455353494e47000602808080808020056a6f6273" +
		"2f00010002090b6a6f62732f782f646f6e65000000"
	if got := hex.EncodeToString(encodeEntry(&cmd)); got != want {
		t.Fatalf("entry bytes changed:\n got %s\nwant %s", got, want)
	}
}

// gobCommand returns cmd in the seed's gob entry encoding, the one
// foreign format a log could ever have held.
func gobCommand(t testing.TB, cmd *command) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cmd); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCommandCodecRejectsForeignEntries pins that the binary layout is
// the only entry format: a gob-encoded command, and any entry whose
// first byte is not cmdMagic, decode to codec.ErrCorrupt — never a
// panic, never a half-filled command.
func TestCommandCodecRejectsForeignEntries(t *testing.T) {
	var scratch command
	for _, want := range codecCases() {
		if err := decodeCommand(gobCommand(t, &want), &scratch); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("gob-encoded %+v: err = %v, want codec.ErrCorrupt", want, err)
		}
	}
	valid := encodeCommand(nil, &command{Op: opPut, Key: "k", Value: []byte("v"), ReqID: 1})
	for b := 0; b < 256; b++ {
		if b == cmdMagic {
			continue
		}
		data := append([]byte{byte(b)}, valid[1:]...)
		if err := decodeCommand(data, &scratch); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("leading byte %#x: err = %v, want codec.ErrCorrupt", b, err)
		}
	}
}

// TestCommandCodecAllocBudget pins the codec microstage as an absolute:
// one encode (the exact-size entry buffer) plus one decode into a
// reused scratch (the key string) is at most 2 allocations.
func TestCommandCodecAllocBudget(t *testing.T) {
	cmd := command{Op: opPut, Key: "jobs/tp-000/status", Value: []byte("PROCESSING"), ReqID: 12345}
	var scratch command
	allocs := testing.AllocsPerRun(200, func() {
		if err := decodeCommand(encodeEntry(&cmd), &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("binary round-trip = %.1f allocs/op, want <= 2", allocs)
	}
}

// TestCommandCodecTruncatedErrors pins that every proper prefix of an
// encoded command fails with an error instead of panicking or decoding
// to a valid command silently missing fields.
func TestCommandCodecTruncatedErrors(t *testing.T) {
	for _, want := range codecCases() {
		data := encodeCommand(nil, &want)
		var scratch command
		for cut := 0; cut < len(data); cut++ {
			if err := decodeCommand(data[:cut], &scratch); err == nil {
				t.Fatalf("decode of %d/%d-byte prefix of %+v succeeded", cut, len(data), want)
			}
		}
		// Trailing garbage must be rejected too: an entry is exactly one
		// command.
		if err := decodeCommand(append(data[:len(data):len(data)], 0xAB), &scratch); err == nil {
			t.Fatalf("decode with trailing byte succeeded for %+v", want)
		}
	}
}

// TestCommandCodecBatchScratchReuse pins the zero-alloc decode
// property the applier relies on: decoding batches into the same
// scratch command reuses the Batch backing array.
func TestCommandCodecBatchScratchReuse(t *testing.T) {
	env := command{Op: opBatch, Batch: []command{
		{Op: opPut, Key: "a", Value: []byte("1"), ReqID: 1},
		{Op: opPut, Key: "b", Value: []byte("2"), ReqID: 2},
	}}
	data := encodeCommand(nil, &env)
	single := command{Op: opPut, Key: "s", Value: []byte("x"), ReqID: 3}
	singleData := encodeCommand(nil, &single)

	var scratch command
	if err := decodeCommand(data, &scratch); err != nil {
		t.Fatal(err)
	}
	first := &scratch.Batch[0]
	// Interleave a single-command decode; the batch capacity must
	// survive it.
	if err := decodeCommand(singleData, &scratch); err != nil {
		t.Fatal(err)
	}
	if err := decodeCommand(data, &scratch); err != nil {
		t.Fatal(err)
	}
	if &scratch.Batch[0] != first {
		t.Fatal("batch decode did not reuse the scratch backing array")
	}
}

// FuzzCommandCodecRoundtrip fuzzes three properties at once:
//
//  1. decode(encode(x)) == x for a command built from the fuzz inputs,
//     ack floor included (and a batch envelope when op is opBatch);
//  2. decoding any proper prefix of the encoding errors — truncated
//     entries never decode silently;
//  3. decoding arbitrary bytes (the raw value payload) never panics,
//     and errors whenever the first byte is not cmdMagic (a gob-encoded
//     command is seeded as one such payload).
func FuzzCommandCodecRoundtrip(f *testing.F) {
	f.Add(uint8(opPut), "jobs/x/status", []byte("PROCESSING"), false, uint64(7), uint64(5), 0, uint8(0), uint(0))
	f.Add(uint8(opDelete), "a", []byte{1, 2}, true, uint64(6), uint64(1<<63), 1, uint8(3), uint(2))
	f.Add(uint8(opBatch), "", []byte(nil), false, uint64(0), uint64(300), 0, uint8(5), uint(9))
	f.Add(uint8(opPut), "gob", gobCommand(f, &command{Op: opPut, Key: "jobs/x/status", Value: []byte("PROCESSING"), ReqID: 7}),
		false, uint64(1), uint64(0), 0, uint8(0), uint(0))
	f.Add(uint8(opPut), "nomagic", []byte{0x00, 0xE7, 0x01}, false, uint64(2), uint64(2), 0, uint8(0), uint(0))
	f.Fuzz(func(t *testing.T, op uint8, key string, value []byte,
		prefix bool, reqID, floor uint64, requestBy int, batchN uint8, cut uint) {
		want := command{
			Op: cmdOp(op), Key: key, Value: value,
			Prefix: prefix, ReqID: reqID, RequestBy: requestBy, Floor: floor,
		}
		if want.Op == opBatch {
			// Envelopes hold non-batch sub-commands (nesting is rejected
			// by decode) without a floor of their own; synthesize a few
			// from the same inputs.
			n := int(batchN%8) + 1
			sub := want
			sub.Op = opPut
			sub.Floor = 0
			for i := 0; i < n; i++ {
				sub.ReqID = reqID + uint64(i)
				want.Batch = append(want.Batch, sub)
			}
		}
		data := encodeCommand(nil, &want)
		var got command
		if err := decodeCommand(data, &got); err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if !commandEqual(&want, &got) {
			t.Fatalf("roundtrip mismatch: got %+v, want %+v", got, want)
		}
		// Truncation at a fuzz-chosen point must error, never panic.
		if int(cut) < len(data) {
			if err := decodeCommand(data[:cut], &got); err == nil {
				t.Fatalf("decode of truncated entry (%d/%d bytes) succeeded", cut, len(data))
			}
		}
		// Arbitrary bytes must never panic, and only a cmdMagic-led
		// payload may happen to be a valid encoding.
		if err := decodeCommand(value, &got); err == nil && value[0] != cmdMagic {
			t.Fatalf("decode of %x succeeded without the command magic", value)
		}
	})
}

// benchCommands returns the two representative entry shapes: a single
// Put and a 64-command batch envelope.
func benchCommands() []namedCommand {
	single := command{Op: opPut, Key: "jobs/tp-000/status", Value: []byte("PROCESSING"), ReqID: 12345}
	env := command{Op: opBatch, Batch: make([]command, 64)}
	for i := range env.Batch {
		env.Batch[i] = single
		env.Batch[i].ReqID = uint64(i + 1)
	}
	return []namedCommand{{"Single", &single}, {"Batch64", &env}}
}

type namedCommand struct {
	name string
	cmd  *command
}

// encodeSink keeps the compiler from discarding the measured encode.
var encodeSink []byte

// BenchmarkCommandEncode measures per-entry encode cost.
func BenchmarkCommandEncode(b *testing.B) {
	for _, bc := range benchCommands() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = encodeEntry(bc.cmd)
			}
		})
	}
}

// BenchmarkCommandDecode measures per-entry decode cost into a reused
// scratch command (the applier's shape).
func BenchmarkCommandDecode(b *testing.B) {
	for _, bc := range benchCommands() {
		data := encodeEntry(bc.cmd)
		b.Run(bc.name, func(b *testing.B) {
			var scratch command
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decodeCommand(data, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
