package mongo

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ffdl/ffdl/internal/codec"
	"github.com/ffdl/ffdl/internal/commitlog"
)

func openFileDB(t *testing.T, dir string) *DB {
	t.Helper()
	store, err := commitlog.OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	db, err := Open(store, Options{Persist: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestOpCodecRoundtrip(t *testing.T) {
	ops := []op{
		{Seq: 1, Kind: "insert", Coll: "jobs", Doc: Doc{
			"_id": "training-000001", "user": "alice", "iterations": 30,
			"memory_mb": 4096, "done": false,
			"nested":  Doc{"a": -7, "b": "x"},
			"history": []any{Doc{"status": "PENDING", "seq": 1}, Doc{"status": "COMPLETED"}},
			"none":    nil,
		}},
		{Seq: 99, Kind: "update", Coll: "tenants", Doc: Doc{"_id": "t-1", "gpus": 12}},
		// No document: the layout still carries the ID field and a nil Doc.
		{Seq: 100, Kind: "delete", Coll: "jobs", ID: "training-000001"},
	}
	for _, want := range ops {
		buf, err := encodeOp(nil, want)
		if err != nil {
			t.Fatalf("encodeOp(%+v): %v", want, err)
		}
		got, err := decodeOp(buf)
		if err != nil {
			t.Fatalf("decodeOp: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("roundtrip mismatch:\n got %#v\nwant %#v", got, want)
		}
	}
}

func TestOpCodecPreservesDynamicTypes(t *testing.T) {
	in := Doc{"_id": "x", "i": 5, "neg": -1 << 40, "s": "str", "b": true}
	buf, err := encodeOp(nil, op{Kind: "insert", Coll: "c", Doc: in})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeOp(buf)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range in {
		gv := got.Doc[k]
		if reflect.TypeOf(gv) != reflect.TypeOf(v) {
			t.Errorf("field %q: decoded type %T, want %T", k, gv, v)
		}
		if gv != v {
			t.Errorf("field %q: decoded %v, want %v", k, gv, v)
		}
	}
}

// TestOpCodecRejectsUnknownTypes pins that a value outside Doc's value
// model fails at the write: a struct, and each type whose tag is
// retired. A map[string]any must have been stored as a Doc first.
func TestOpCodecRejectsUnknownTypes(t *testing.T) {
	type weird struct{ X int }
	for _, v := range []any{weird{1}, int32(4), int64(-5), uint64(6), float32(1.5), 2.5,
		[]string{"a"}, map[string]any{"k": "x"}, []any{"ok", int64(1)}} {
		if _, err := encodeOp(nil, op{Kind: "insert", Coll: "c", Doc: Doc{"_id": "x", "w": v}}); !errors.Is(err, errOpEncType) {
			t.Errorf("encode of a %T value: err = %v, want errOpEncType", v, err)
		}
	}
}

// TestOpCodecRetiredTagsAreCorrupt pins the decode side: the tags of
// the retired value types (3–7, 11) and unassigned ones are
// codec.ErrCorrupt, whatever follows them.
func TestOpCodecRetiredTagsAreCorrupt(t *testing.T) {
	for _, tag := range []byte{3, 4, 5, 6, 7, 11, 12, 0xff} {
		data := []byte{0, 0, 0, 0, opvDoc, 1, 1, 'v', tag, 2, 'a', 'b', 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := decodeOp(data); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("decode of tag %d: err = %v, want codec.ErrCorrupt", tag, err)
		}
	}
}

func TestOpCodecCorruptInputErrors(t *testing.T) {
	buf, err := encodeOp(nil, op{Seq: 3, Kind: "insert", Coll: "jobs", Doc: Doc{"_id": "a", "n": 1}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeOp(buf[:cut]); err == nil {
			t.Fatalf("decodeOp accepted truncation at %d", cut)
		}
	}
}

// TestOpCodecGoldenBytes pins the oplog entry layout byte for byte:
// one value of every tag (each document holds one key, so map order
// cannot reorder the bytes), and a document-less op. The bytes are the
// ones the codec wrote while it also had the now-retired tags, so an
// oplog written then decodes unchanged.
func TestOpCodecGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		o    op
		want string
	}{
		{op{Seq: 300, Kind: "update", Coll: "jobs", Doc: Doc{"v": []any{nil, "s", -3, true, false, Doc{"k": "x"}}}},
			"ac0206757064617465046a6f627300090101760a06000101730205080108000901016b010178"},
		{op{Seq: 1, Kind: "delete", Coll: "c", ID: "id"}, "010664656c657465016302696400"},
	} {
		buf, err := encodeOp(nil, tc.o)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf); got != tc.want {
			t.Fatalf("oplog bytes changed for %+v:\n got %s\nwant %s", tc.o, got, tc.want)
		}
	}
}

// nestedListOp returns an encoded op whose document nests depth
// containers: the op document holds one list, nested depth-1 lists
// deep, the innermost holding a nil.
func nestedListOp(depth int) []byte {
	buf := make([]byte, 0, 7+2*depth)
	buf = append(buf, 0, 0, 0, 0)   // Seq, Kind, Coll, ID
	buf = append(buf, opvDoc, 1, 0) // one field, empty key
	for i := 1; i < depth; i++ {
		buf = append(buf, opvList, 1)
	}
	return append(buf, opvNil)
}

// TestOpCodecRejectsDeepNesting pins the nesting cap on both sides of
// the codec: a payload nested past maxOpDepth decodes to
// codec.ErrCorrupt instead of recursing once per level (20M levels used
// to overflow the stack and kill the process on recovery), and a
// document that deep is refused at the write.
func TestOpCodecRejectsDeepNesting(t *testing.T) {
	if _, err := decodeOp(nestedListOp(maxOpDepth)); err != nil {
		t.Fatalf("decode of %d nested containers: %v", maxOpDepth, err)
	}
	for _, depth := range []int{maxOpDepth + 1, 20_000_000} {
		if _, err := decodeOp(nestedListOp(depth)); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("decode of %d nested containers: err = %v, want codec.ErrCorrupt", depth, err)
		}
	}
	var v any = "leaf"
	for i := 1; i < maxOpDepth; i++ {
		v = []any{v}
	}
	if _, err := encodeOp(nil, op{Kind: "insert", Coll: "c", Doc: Doc{"v": v}}); err != nil {
		t.Fatalf("encode of a document nesting %d containers: %v", maxOpDepth, err)
	}
	if _, err := encodeOp(nil, op{Kind: "insert", Coll: "c", Doc: Doc{"v": []any{v}}}); !errors.Is(err, errOpEncType) {
		t.Fatalf("encode of a document nesting %d containers: err = %v, want errOpEncType", maxOpDepth+1, err)
	}
}

// FuzzOplogOpRoundtrip fuzzes the oplog codec three ways:
//
//  1. an op carrying one value of every tag, nested nest levels deep,
//     round-trips with its dynamic types preserved — re-encoding the
//     decoded op reproduces the bytes (every value carries its type
//     tag) and the op is DeepEqual; nesting past maxOpDepth is refused
//     at encode;
//  2. every proper prefix of the encoding errors;
//  3. decoding arbitrary bytes never panics.
func FuzzOplogOpRoundtrip(f *testing.F) {
	f.Add(uint64(1), "insert", "jobs", "training-000001", "PENDING", int64(-7), true, uint8(2), uint(3), []byte{})
	f.Add(uint64(1<<40), "", "", "", "", int64(0), false, uint8(0), uint(0), []byte{0, 0, 0, 0, opvDoc, 0})
	f.Add(uint64(9), "update", "t", "", "x", int64(1), false, uint8(62), uint(100), nestedListOp(maxOpDepth+1))
	f.Add(uint64(9), "update", "t", "", "x", int64(1), false, uint8(63), uint(0), []byte{0, 0, 0, 0, opvList, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, seq uint64, kind, coll, id, s string, i int64, b bool, nest uint8, cut uint, raw []byte) {
		var v any = []any{nil, s, int(i), b}
		for k := 0; k < int(nest%80); k++ {
			if k%2 == 0 {
				v = Doc{s: v}
			} else {
				v = []any{v}
			}
		}
		want := op{Seq: seq, Kind: kind, Coll: coll, ID: id, Doc: Doc{"v": v}}
		data, err := encodeOp(nil, want)
		if int(nest%80)+1 >= maxOpDepth {
			if !errors.Is(err, errOpEncType) {
				t.Fatalf("encode nested %d deep: err = %v, want errOpEncType", nest%80+1, err)
			}
		} else {
			if err != nil {
				t.Fatalf("encodeOp: %v", err)
			}
			got, err := decodeOp(data)
			if err != nil {
				t.Fatalf("decode(encode(x)): %v", err)
			}
			again, err := encodeOp(nil, got)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("re-encode of decoded op differs (err %v):\n got %x\nwant %x", err, again, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("roundtrip mismatch:\n got %#v\nwant %#v", got, want)
			}
			n := int(cut % uint(len(data)))
			if _, err := decodeOp(data[:n]); err == nil {
				t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(data))
			}
		}
		decodeOp(raw) //nolint:errcheck // must not panic
	})
}

// TestOpenRecoversCollections is the core durability contract: a
// reopened database serves the same documents and resumes the op
// sequence.
func TestOpenRecoversCollections(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir)
	jobs := db.C("jobs")
	jobs.EnsureIndex("user")
	id1, err := jobs.Insert(Doc{"_id": "j1", "user": "alice", "status": "PENDING"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := jobs.Insert(Doc{"_id": "j2", "user": "bob", "status": "PENDING"})
	if err != nil {
		t.Fatal(err)
	}
	if err := jobs.UpdateOne(Filter{"_id": id1}, Update{Set: Doc{"status": "COMPLETED"}}); err != nil {
		t.Fatal(err)
	}
	if err := jobs.UpdateOne(Filter{"_id": id2}, Update{Set: Doc{"status": "FAILED"}}); err != nil {
		t.Fatal(err)
	}
	seqBefore := db.OplogLen()

	db2 := openFileDB(t, dir)
	jobs2 := db2.C("jobs")
	if got := jobs2.size(); got != 2 {
		t.Fatalf("recovered %d docs, want 2", got)
	}
	for id, want := range map[string]string{id1: "COMPLETED", id2: "FAILED"} {
		d, err := jobs2.FindOne(Filter{"_id": id})
		if err != nil {
			t.Fatalf("recovered doc %s missing: %v", id, err)
		}
		if d["status"] != want {
			t.Fatalf("recovered %s status %v, want %s (update post-image lost)", id, d["status"], want)
		}
	}
	if got := db2.OplogLen(); got != seqBefore {
		t.Fatalf("recovered OplogLen %d, want %d", got, seqBefore)
	}
	// A recovered id stays taken.
	if _, err := jobs2.Insert(Doc{"_id": id1}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("post-recovery insert of a recovered id: err = %v, want ErrDuplicateID", err)
	}
	// Indexes rebuilt over recovered docs.
	jobs2.EnsureIndex("user")
	if n := len(jobs2.Find(Filter{"user": "alice"}, FindOpts{})); n != 1 {
		t.Fatalf("indexed count = %d, want 1", n)
	}
}

// TestOpenTornOplogTail flips a byte in the newest segment file and
// reopens: recovery must keep a strict prefix (never fail, never
// resurrect the damaged suffix) and continue appending past it.
func TestOpenTornOplogTail(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir)
	c := db.C("items")
	for i := 0; i < 20; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("it-%03d", i), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 {
		t.Fatalf("segment too small to corrupt: %d bytes", len(data))
	}
	data[len(data)-5] ^= 0xFF
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openFileDB(t, dir)
	c2 := db2.C("items")
	n := c2.size()
	if n == 0 || n > 20 {
		t.Fatalf("recovered %d docs, want a non-empty strict prefix of 20", n)
	}
	// Recovered docs must be exactly the first n inserted.
	for i := 0; i < n; i++ {
		if _, err := c2.FindOne(Filter{"_id": fmt.Sprintf("it-%03d", i)}); err != nil {
			t.Fatalf("prefix hole at %d (recovered %d): %v", i, n, err)
		}
	}
	// Appends continue with fresh offsets past the recovered tail.
	before := db2.OplogLen()
	if _, err := c2.Insert(Doc{"_id": "it-new"}); err != nil {
		t.Fatal(err)
	}
	if got := db2.OplogLen(); got != before+1 {
		t.Fatalf("OplogLen %d after append, want %d", got, before+1)
	}
}

// TestReopenedFloorYieldsResync drives enough churn that retention
// drops sealed segments, reopens, and checks a low resume token gets
// the explicit resync marker — the floor must rise across restart, not
// silently serve a gap.
func TestReopenedFloorYieldsResync(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir)
	c := db.C("churn")
	if _, err := c.Insert(Doc{"_id": "doc", "n": 0}); err != nil {
		t.Fatal(err)
	}
	// >2 segments of updates to the same key: compaction seals and merges,
	// and the reopened log's first retained record sits well above seq 1.
	for i := 1; i <= 5000; i++ {
		if err := c.UpdateOne(Filter{"_id": "doc"}, Update{Set: Doc{"n": i}}); err != nil {
			t.Fatal(err)
		}
	}

	db2 := openFileDB(t, dir)
	if floor := db2.oplog.OldestOffset(); floor <= 1 {
		t.Fatalf("reopened floor = %d, want > 1 after compaction", floor)
	}
	cs := db2.Watch("churn", 1)
	defer cs.Cancel()
	ev, ok := <-cs.Events()
	if !ok {
		t.Fatal("stream closed without events")
	}
	if ev.Kind != "resync" {
		t.Fatalf("first event Kind = %q, want explicit resync for a pre-floor token", ev.Kind)
	}
	// The latest state survived compaction.
	d, err := db2.C("churn").FindOne(Filter{"_id": "doc"})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d["n"].(int); got != 5000 {
		t.Fatalf("recovered n = %v, want 5000", d["n"])
	}
}

// TestOpenEmptyStore: an empty FileStore directory is a valid empty
// database.
func TestOpenEmptyStore(t *testing.T) {
	db := openFileDB(t, t.TempDir())
	if db.OplogLen() != 0 {
		t.Fatalf("OplogLen = %d on empty store", db.OplogLen())
	}
	if db.C("x").size() != 0 {
		t.Fatal("phantom docs in empty store")
	}
}

// TestDurableChangeStreamResumesBySeq: a change stream resumed from a
// retained token replays exactly the missed suffix.
func TestDurableChangeStreamResumesBySeq(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir)
	c := db.C("jobs")
	for i := 0; i < 10; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	db2 := openFileDB(t, dir)
	cs := db2.Watch("jobs", 4) // resume token: saw seqs 1..4
	defer cs.Cancel()
	for want := uint64(5); want <= 10; want++ {
		ev := <-cs.Events()
		if ev.Kind == "resync" {
			t.Fatalf("unexpected resync for retained token (floor %d)", db2.oplog.OldestOffset())
		}
		if ev.Seq != want {
			t.Fatalf("resumed Seq %d, want %d", ev.Seq, want)
		}
	}
}

// TestRefusedOplogAppendIsNotAcknowledged pins "acknowledged ⇒ durable"
// at the store: once the oplog's segment store fails a write (a
// FaultStore crash point), Insert and UpdateOne must return
// ErrUnavailable instead of acknowledging a write that recovery cannot
// see, the refused write must leave the in-memory document as it was,
// and a reopen holds exactly the acknowledged writes.
func TestRefusedOplogAppendIsNotAcknowledged(t *testing.T) {
	insertAll := func(c *Collection, n int) (acked []string, refused string, err error) {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("j-%03d", i)
			if _, err := c.Insert(Doc{"_id": id, "status": "PENDING"}); err != nil {
				return acked, id, err
			}
			acked = append(acked, id)
		}
		return acked, "", nil
	}
	// Measure the journal of 20 inserts, then crash halfway through it.
	probe := commitlog.NewFaultStore(commitlog.NewMemStore(), -1)
	db, err := Open(probe, Options{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := insertAll(db.C("jobs"), 20); err != nil {
		t.Fatal(err)
	}

	inner := commitlog.NewMemStore()
	db, err = Open(commitlog.NewFaultStore(inner, probe.Written()/2), Options{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	c := db.C("jobs")
	acked, refused, err := insertAll(c, 20)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("insert past the crash point: err = %v after %d acknowledged, want ErrUnavailable", err, len(acked))
	}
	if len(acked) == 0 {
		t.Fatal("crash point hit before any insert was acknowledged")
	}
	if _, err := c.FindOne(Filter{"_id": refused}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused insert left a document behind: err = %v", err)
	}
	if err := c.UpdateOne(Filter{"_id": acked[0]}, Update{Set: Doc{"status": "DEPLOYING"}}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("update on a dead oplog: err = %v, want ErrUnavailable", err)
	}
	// The refused update left no trace in memory.
	if d, err := c.FindOne(Filter{"_id": acked[0]}); err != nil || d["status"] != "PENDING" {
		t.Fatalf("after a refused update: doc %v, err %v, want status PENDING", d, err)
	}

	// Restart: exactly the acknowledged writes are there.
	db2, err := Open(inner, Options{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	c2 := db2.C("jobs")
	if c2.size() != len(acked) {
		t.Fatalf("recovered %d docs, want the %d acknowledged", c2.size(), len(acked))
	}
	for _, id := range acked {
		d, err := c2.FindOne(Filter{"_id": id})
		if err != nil || d["status"] != "PENDING" {
			t.Fatalf("acknowledged %s after restart: doc %v, err %v", id, d, err)
		}
	}
}

// TestOplogImage pins the oplog-image read: the newest post-image of a
// document, keyed by collection and _id, answered while the primary is
// unavailable and after a reopen; a never-written document is absent.
func TestOplogImage(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir)
	jobs := db.C("jobs")
	if _, err := jobs.Insert(Doc{"_id": "a", "status": "PENDING", "history": []any{"PENDING"}}); err != nil {
		t.Fatal(err)
	}
	if err := jobs.UpdateOne(Filter{"_id": "a"}, Update{Set: Doc{"status": "RUNNING"}, Push: map[string]any{"history": "RUNNING"}}); err != nil {
		t.Fatal(err)
	}
	// Same _id, other collection, written last: the key is per collection.
	if _, err := db.C("tenants").Insert(Doc{"_id": "a", "status": "OTHER"}); err != nil {
		t.Fatal(err)
	}

	check := func(db *DB, when string) {
		t.Helper()
		jobs := db.C("jobs")
		d, ok := jobs.OplogImage("a")
		if !ok || d["status"] != "RUNNING" || !reflect.DeepEqual(d["history"], []any{"PENDING", "RUNNING"}) {
			t.Fatalf("%s: OplogImage(a) = %v, %v; want the updated image", when, d, ok)
		}
		if d, ok := jobs.OplogImage("never"); ok {
			t.Fatalf("%s: OplogImage of an unwritten doc = %v, want absent", when, d)
		}
	}
	check(db, "healthy")
	db.SetUnavailable(true)
	if _, err := jobs.FindOne(Filter{"_id": "a"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("FindOne during the outage: err = %v, want ErrUnavailable", err)
	}
	check(db, "unavailable")
	check(openFileDB(t, dir), "reopened")
}
