// Package rpc implements the lightweight RPC fabric the FfDL
// microservices communicate over. The paper's system uses gRPC; this
// stdlib-only equivalent provides the same coupling model: typed unary
// calls, server-streaming calls (used for watch/log streams), deadlines,
// and client-side load balancing across the replicas of a replicated
// microservice (the paper's Kubernetes "service" abstraction).
//
// Wire format: each connection carries length-prefixed binary frames in
// both directions (see appendFrame/readFrame). A frame's body is one
// application message in the descriptor-free body codec (body.go): a
// shape fingerprint, then the value laid out by a plan compiled once
// per Go type, so no message needs type registration and no frame
// depends on an earlier one. Requests are multiplexed by ID, so one
// connection supports many concurrent in-flight calls, like HTTP/2
// under gRPC.
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/ffdl/ffdl/internal/codec"
)

// frameKind discriminates wire frames.
type frameKind uint8

const (
	frameCall   frameKind = iota + 1 // client -> server: start a call
	frameData                        // payload (either direction)
	frameEnd                         // server -> client: call finished OK
	frameError                       // server -> client: call failed
	frameCancel                      // client -> server: abandon call
)

// frame is the unit of transmission. Body holds one message in the
// body codec (appendBody/decodeBody); the frame layer treats it as
// opaque bytes.
type frame struct {
	Kind   frameKind
	ID     uint64
	Method string
	Body   []byte
	Err    string
}

// Binary frame codec. Frames used to ride a per-connection gob stream;
// gob's per-frame reflective encode/decode (plus a fresh Body slice and
// header bookkeeping per frame) was the dominant per-call transport
// cost after PR 5 pooled the body buffers. The hand-rolled layout below
// is written by appendFrame into a reused per-connection buffer (zero
// allocations steady-state) and read by readFrame into a reused frame
// struct (allocations only for the fields a frame actually carries:
// the Body copy, and Method/Err when non-empty).
//
// Layout:
//
//	frameMagic | version | kind | uvarint ID |
//	uvarint len(Method) | Method | uvarint len(Err) | Err |
//	uvarint len(Body) | Body
//
// The magic and version bytes make every frame self-describing, so a
// future layout change (or a corrupted stream) is detected at the frame
// boundary instead of being misparsed. Length prefixes are bounded
// (maxMethodLen/maxErrLen/maxBodyLen) so a corrupt length cannot demand
// an absurd allocation; any violation surfaces as an error and the
// connection is torn down — never a panic (FuzzFrameCodecRoundtrip).
const (
	frameMagic   = 0xFC
	frameVersion = 1

	maxMethodLen = 1 << 12 // method names are short identifiers
	maxErrLen    = 1 << 20
	maxBodyLen   = codec.MaxLen
)

// Frame decode errors.
var (
	errFrameTruncated = errors.New("rpc: frame: truncated input")
	errFrameCorrupt   = errors.New("rpc: frame: corrupt input")
)

// appendFrame appends f's binary encoding to dst and returns the
// extended slice. Callers reuse dst across frames; the result is
// written to the connection before the next frame is encoded.
func appendFrame(dst []byte, f *frame) []byte {
	dst = append(dst, frameMagic, frameVersion, byte(f.Kind))
	dst = binary.AppendUvarint(dst, f.ID)
	dst = binary.AppendUvarint(dst, uint64(len(f.Method)))
	dst = append(dst, f.Method...)
	dst = binary.AppendUvarint(dst, uint64(len(f.Err)))
	dst = append(dst, f.Err...)
	dst = binary.AppendUvarint(dst, uint64(len(f.Body)))
	dst = append(dst, f.Body...)
	return dst
}

// readLimitedString reads a length-prefixed string field, enforcing
// max. Empty fields (the common case for Method and Err on data/end
// frames) allocate nothing.
func readLimitedString(br *bufio.Reader, max uint64) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", errFrameTruncated
	}
	if n > max {
		return "", fmt.Errorf("%w: field length %d exceeds %d", errFrameCorrupt, n, max)
	}
	if n == 0 {
		return "", nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", errFrameTruncated
	}
	return string(b), nil
}

// readFrame decodes the next frame from br into f, overwriting every
// field. The Body slice is freshly allocated (it outlives the read
// loop: it is handed to the in-flight call), Method/Err only when
// present.
func readFrame(br *bufio.Reader, f *frame) error {
	magic, err := br.ReadByte()
	if err != nil {
		return err // io.EOF passes through: clean close between frames
	}
	if magic != frameMagic {
		return fmt.Errorf("%w: bad magic 0x%02x", errFrameCorrupt, magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return errFrameTruncated
	}
	if version != frameVersion {
		return fmt.Errorf("%w: unknown frame version %d", errFrameCorrupt, version)
	}
	kind, err := br.ReadByte()
	if err != nil {
		return errFrameTruncated
	}
	f.Kind = frameKind(kind)
	if f.ID, err = binary.ReadUvarint(br); err != nil {
		return errFrameTruncated
	}
	if f.Method, err = readLimitedString(br, maxMethodLen); err != nil {
		return err
	}
	if f.Err, err = readLimitedString(br, maxErrLen); err != nil {
		return err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return errFrameTruncated
	}
	if n > maxBodyLen {
		return fmt.Errorf("%w: body length %d exceeds %d", errFrameCorrupt, n, maxBodyLen)
	}
	if n == 0 {
		f.Body = nil
		return nil
	}
	f.Body = make([]byte, n)
	if _, err := io.ReadFull(br, f.Body); err != nil {
		return errFrameTruncated
	}
	return nil
}

// Error values surfaced to callers.
var (
	// ErrConnClosed reports that the underlying connection was closed
	// mid-call (e.g. the server crashed). Callers treat it as retryable.
	ErrConnClosed = errors.New("rpc: connection closed")
	// ErrNoEndpoints reports that a balanced client has no live replicas.
	ErrNoEndpoints = errors.New("rpc: no endpoints available")
	// ErrMethodNotFound reports a call to an unregistered method.
	ErrMethodNotFound = errors.New("rpc: method not found")
	// ErrCanceled reports that the call context was cancelled.
	ErrCanceled = errors.New("rpc: call canceled")
	// ErrStreamDone reports reading past the end of a server stream.
	ErrStreamDone = errors.New("rpc: stream done")
)

// RemoteError is an application error propagated from the server.
type RemoteError struct {
	Method  string
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from %s: %s", e.Method, e.Message)
}
