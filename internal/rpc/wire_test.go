package rpc

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"
)

func frameCases() []frame {
	return []frame{
		{Kind: frameCall, ID: 1, Method: "Scheduler.Assign", Body: []byte("payload")},
		{Kind: frameData, ID: 1<<64 - 1, Body: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: frameEnd, ID: 7},
		{Kind: frameError, ID: 9, Method: "LCM.Halt", Err: "job not found"},
		{Kind: frameCancel, ID: 12},
		{Kind: frameData, ID: 3}, // empty body
	}
}

func frameEqual(a, b *frame) bool {
	return a.Kind == b.Kind && a.ID == b.ID && a.Method == b.Method &&
		a.Err == b.Err && bytes.Equal(a.Body, b.Body)
}

// TestFrameCodecRoundtrip pins readFrame(appendFrame(f)) == f for every
// frame shape, including several frames back to back on one stream.
func TestFrameCodecRoundtrip(t *testing.T) {
	var wire []byte
	for i := range frameCases() {
		f := frameCases()[i]
		wire = appendFrame(wire, &f)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	var got frame
	for _, want := range frameCases() {
		if err := readFrame(br, &got); err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !frameEqual(&want, &got) {
			t.Fatalf("roundtrip: got %+v, want %+v", got, want)
		}
	}
	if err := readFrame(br, &got); err != io.EOF {
		t.Fatalf("read past end: err = %v, want io.EOF", err)
	}
}

// TestFrameCodecTruncatedErrors pins that every proper prefix of an
// encoded frame errors instead of panicking or decoding silently.
func TestFrameCodecTruncatedErrors(t *testing.T) {
	for _, want := range frameCases() {
		data := appendFrame(nil, &want)
		var got frame
		for cut := 0; cut < len(data); cut++ {
			br := bufio.NewReader(bytes.NewReader(data[:cut]))
			if err := readFrame(br, &got); err == nil {
				t.Fatalf("decode of %d/%d-byte prefix of %+v succeeded", cut, len(data), want)
			}
		}
	}
}

// TestFrameCodecRejectsCorruptLengths pins the allocation bound: a
// frame whose length prefix exceeds the field cap errors before any
// oversized allocation.
func TestFrameCodecRejectsCorruptLengths(t *testing.T) {
	good := appendFrame(nil, &frame{Kind: frameCall, ID: 1, Method: "M"})
	// Corrupt the magic byte.
	bad := append([]byte(nil), good...)
	bad[0] = 0x00
	var f frame
	if err := readFrame(bufio.NewReader(bytes.NewReader(bad)), &f); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt the version byte.
	bad = append(bad[:0], good...)
	bad[1] = 0xEE
	if err := readFrame(bufio.NewReader(bytes.NewReader(bad)), &f); err == nil {
		t.Fatal("bad version accepted")
	}
	// Absurd body length: magic, version, kind, id=1, no method/err,
	// then a body length far past maxBodyLen with no actual body.
	bad = []byte{frameMagic, frameVersion, byte(frameData), 1, 0, 0,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if err := readFrame(bufio.NewReader(bytes.NewReader(bad)), &f); err == nil {
		t.Fatal("absurd body length accepted")
	}
}

// TestFrameCodecAllocBudget is the per-frame allocation guard next to
// BenchmarkRPCRoundtrip: encoding into a reused buffer allocates
// nothing, and decoding a data frame allocates only the Body copy.
func TestFrameCodecAllocBudget(t *testing.T) {
	f := frame{Kind: frameData, ID: 42, Body: bytes.Repeat([]byte{0x01}, 256)}
	buf := appendFrame(nil, &f)
	encAllocs := testing.AllocsPerRun(100, func() {
		buf = appendFrame(buf[:0], &f)
	})
	if encAllocs > 0 {
		t.Fatalf("appendFrame allocations = %.1f, want 0", encAllocs)
	}
	wire := append([]byte(nil), buf...)
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	var got frame
	decAllocs := testing.AllocsPerRun(100, func() {
		rd.Reset(wire)
		br.Reset(rd)
		if err := readFrame(br, &got); err != nil {
			t.Fatal(err)
		}
	})
	// The Body copy is the single permitted steady-state allocation.
	if decAllocs > 1 {
		t.Fatalf("readFrame allocations = %.1f, want <= 1 (the Body copy)", decAllocs)
	}
}

// TestRPCRoundtripAllocBudget guards the whole-process per-call
// allocation count of a unary echo call (all goroutines: client body
// encode + frame write, server read/dispatch/reply, client
// read/decode). Bodies encode into per-connection buffers through a
// plan compiled once per type, so what remains is the call's own
// machinery — the call record and its channels, the dispatch goroutine
// and its context, the frame Body copies, the decoded argument and
// reply boxes. The frame layer itself contributes almost nothing (see
// TestFrameCodecAllocBudget for the strict per-frame guard).
func TestRPCRoundtripAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is load-sensitive")
	}
	s := NewServer()
	s.Register("Echo", echoReq{}, func(_ context.Context, arg any) (any, error) {
		r := arg.(echoReq)
		return echoResp{Msg: r.Msg, N: r.N + 1}, nil
	})
	addr, err := s.Listen()
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer s.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	ctx := context.Background()
	req := echoReq{Msg: "alloc-budget", N: 1}
	var resp echoResp
	if err := conn.Call(ctx, "Echo", req, &resp); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(50, func() {
		if err := conn.Call(ctx, "Echo", req, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("unary call allocations = %.0f, budget 64", allocs)
	}
}

// FuzzFrameCodecRoundtrip fuzzes three properties at once:
//
//  1. readFrame(appendFrame(f)) == f for a frame built from the fuzz
//     inputs;
//  2. decoding any proper prefix of the encoding errors — truncated
//     frames never decode silently;
//  3. decoding arbitrary bytes (the raw body payload) never panics.
func FuzzFrameCodecRoundtrip(f *testing.F) {
	f.Add(uint8(frameCall), uint64(1), "Echo", []byte("body"), "", uint(0))
	f.Add(uint8(frameError), uint64(9), "LCM.Halt", []byte(nil), "job not found", uint(3))
	f.Add(uint8(frameData), uint64(1<<40), "", bytes.Repeat([]byte{0xFC}, 64), "", uint(10))
	f.Fuzz(func(t *testing.T, kind uint8, id uint64, method string, body []byte, errStr string, cut uint) {
		if len(method) > maxMethodLen || len(errStr) > maxErrLen {
			t.Skip("over field caps by construction")
		}
		want := frame{Kind: frameKind(kind), ID: id, Method: method, Body: body, Err: errStr}
		data := appendFrame(nil, &want)
		var got frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(data)), &got); err != nil {
			t.Fatalf("readFrame(appendFrame(f)): %v", err)
		}
		if !frameEqual(&want, &got) {
			t.Fatalf("roundtrip mismatch: got %+v, want %+v", got, want)
		}
		// Truncation at a fuzz-chosen point must error, never panic.
		if int(cut) < len(data) {
			if err := readFrame(bufio.NewReader(bytes.NewReader(data[:cut])), &got); err == nil {
				t.Fatalf("decode of truncated frame (%d/%d bytes) succeeded", cut, len(data))
			}
		}
		// Arbitrary bytes must never panic (error or io.EOF is fine).
		readFrame(bufio.NewReader(bytes.NewReader(body)), &got) //nolint:errcheck
	})
}

// BenchmarkFrameRoundtrip measures per-frame transport cost: encode
// into a reused buffer plus decode back out.
func BenchmarkFrameRoundtrip(b *testing.B) {
	f := frame{Kind: frameCall, ID: 42, Method: "Scheduler.Assign",
		Body: bytes.Repeat([]byte{0x01}, 256)}
	var buf []byte
	var got frame
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], &f)
		rd.Reset(buf)
		br.Reset(rd)
		if err := readFrame(br, &got); err != nil {
			b.Fatal(err)
		}
	}
}
