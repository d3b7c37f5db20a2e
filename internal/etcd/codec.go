package etcd

import (
	"encoding/binary"
	"fmt"

	"github.com/ffdl/ffdl/internal/codec"
)

// Hand-rolled binary codec for replicated commands — the wire format of
// every Raft entry. Profiling pinned per-entry gob encode/decode as the
// floor of proposal cost (~800 allocs for a serial Put: a fresh encoder
// on the propose side plus a fresh decoder per replica, each paying
// reflection and type-descriptor work per entry). The binary form is
// append-style varint encoding: one exact-size buffer allocation on
// encode (the Raft log retains the entry, so the buffer cannot be
// pooled) and near-zero allocations on decode (values alias the entry
// buffer; only key strings are materialized).
//
// Layout (integers, length prefixes and decode errors follow
// internal/codec):
//
//	cmdMagic | Floor | op | ReqID | Key | Value | flags | RequestBy
//	[| batch count | sub-commands...]
//
// Floor is the entry's ack floor (storeState.raiseFloor); an entry has
// one, so it is written once, after the magic byte.
//
// The leading cmdMagic byte (0xE7) is the format tag: Raft entries are
// never read back from disk, so this is the only entry format that
// exists and decodeCommand rejects any other first byte as corrupt. A
// gob stream for these types begins with a message length whose first
// byte is a small count (< 0x80) or a multi-byte marker near 0xFF,
// never 0xE7, so an entry from the seed's gob era fails loudly instead
// of half-decoding. Raft snapshots keep gob (storeSnapshot is
// cold-path).
//
// Sub-commands of an opBatch envelope are encoded with the same field
// layout (no magic byte, no floor). Nesting is a single level: an
// opBatch inside a batch is rejected on decode, bounding recursion on
// corrupt input.
const cmdMagic = 0xE7

// commandFlag bits.
const flagPrefix = 1 << 0

// encodeCommand appends the binary encoding of cmd to dst and returns
// the extended slice. Pass a buffer sized by commandSize to encode with
// a single allocation.
func encodeCommand(dst []byte, cmd *command) []byte {
	dst = append(dst, cmdMagic)
	dst = binary.AppendUvarint(dst, cmd.Floor)
	dst = appendCommandBody(dst, cmd)
	if cmd.Op == opBatch {
		dst = binary.AppendUvarint(dst, uint64(len(cmd.Batch)))
		for i := range cmd.Batch {
			dst = appendCommandBody(dst, &cmd.Batch[i])
		}
	}
	return dst
}

// appendCommandBody appends the fixed field layout shared by top-level
// commands and batch sub-commands.
func appendCommandBody(dst []byte, cmd *command) []byte {
	dst = binary.AppendUvarint(dst, uint64(cmd.Op))
	dst = binary.AppendUvarint(dst, cmd.ReqID)
	dst = codec.AppendString(dst, cmd.Key)
	dst = codec.AppendBytes(dst, cmd.Value)
	var flags byte
	if cmd.Prefix {
		flags |= flagPrefix
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, int64(cmd.RequestBy))
	return dst
}

// commandSize returns an upper bound on the encoded size of cmd, so
// encode buffers can be allocated exactly once.
func commandSize(cmd *command) int {
	// 1 magic + the floor + ~10 bytes per varint field (5 fields) +
	// string/byte payloads; generous per-field bound beats a second pass.
	n := 1 + binary.MaxVarintLen64 + commandBodySize(cmd)
	if cmd.Op == opBatch {
		n += binary.MaxVarintLen64
		for i := range cmd.Batch {
			n += commandBodySize(&cmd.Batch[i])
		}
	}
	return n
}

func commandBodySize(cmd *command) int {
	return 5*binary.MaxVarintLen64 + 1 + len(cmd.Key) + len(cmd.Value)
}

// decodeCommandBody decodes one field-layout block into cmd.
func decodeCommandBody(r *codec.Reader, cmd *command, topLevel bool) error {
	op, err := r.Uvarint()
	if err != nil {
		return err
	}
	cmd.Op = cmdOp(op)
	if cmd.Op == opBatch && !topLevel {
		return fmt.Errorf("%w: nested batch envelope", codec.ErrCorrupt)
	}
	if cmd.ReqID, err = r.Uvarint(); err != nil {
		return err
	}
	key, err := r.Bytes()
	if err != nil {
		return err
	}
	cmd.Key = string(key)
	// The value aliases the entry buffer: Raft entries are immutable, so
	// the state machine keeps it without a copy (putLocked).
	val, err := r.Bytes()
	if err != nil {
		return err
	}
	if len(val) == 0 {
		cmd.Value = nil
	} else {
		cmd.Value = val
	}
	flags, err := r.Byte()
	if err != nil {
		return err
	}
	cmd.Prefix = flags&flagPrefix != 0
	reqBy, err := r.Varint()
	if err != nil {
		return err
	}
	cmd.RequestBy = int(reqBy)
	cmd.Floor = 0
	cmd.Batch = nil
	return nil
}

// decodeCommand decodes an encoded Raft entry into cmd, reusing cmd's
// Batch backing array when capacity allows (the applier passes a
// per-replica scratch command, so steady-state decode allocates only
// key strings). A leading byte other than cmdMagic is corrupt input.
func decodeCommand(data []byte, cmd *command) error {
	r := codec.NewReader(data)
	magic, err := r.Byte()
	if err != nil {
		return err
	}
	if magic != cmdMagic {
		return fmt.Errorf("%w: leading byte %#x is not the command magic", codec.ErrCorrupt, magic)
	}
	floor, err := r.Uvarint()
	if err != nil {
		return err
	}
	scratch := cmd.Batch[:0]
	if err := decodeCommandBody(&r, cmd, true); err != nil {
		return err
	}
	cmd.Floor = floor
	// Retain the caller's Batch backing array across single-command
	// decodes so a later batch decode into the same scratch struct can
	// reuse it.
	cmd.Batch = scratch
	if cmd.Op == opBatch {
		n, err := r.Count()
		if err != nil {
			return err
		}
		if cap(scratch) >= n {
			cmd.Batch = scratch[:n]
		} else {
			cmd.Batch = make([]command, n)
		}
		for i := range cmd.Batch {
			if err := decodeCommandBody(&r, &cmd.Batch[i], false); err != nil {
				return err
			}
		}
	}
	return r.Done()
}

// encodeEntry serializes one proposal (a single command or a batch
// envelope) for the Raft log in one exact-size allocation. The codec is
// total over command values, so encoding cannot fail.
func encodeEntry(cmd *command) []byte {
	return encodeCommand(make([]byte, 0, commandSize(cmd)), cmd)
}
