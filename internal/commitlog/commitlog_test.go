package commitlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// mustAppend appends and checks that the returned record is the one
// the log now holds at its offset.
func mustAppend(t *testing.T, l *Log, key string, payload []byte) uint64 {
	t.Helper()
	rec, err := l.Append(key, payload)
	if err != nil {
		t.Fatalf("Append(%q): %v", key, err)
	}
	held, ok := recordAt(l, rec.Offset)
	if !ok || rec.Key != key || !bytes.Equal(rec.Payload, payload) ||
		held.Key != key || !bytes.Equal(held.Payload, payload) {
		t.Fatalf("Append(%q) returned %+v, log holds %+v (found %v)", key, rec, held, ok)
	}
	return rec.Offset
}

// recordAt returns the retained record at exactly offset.
func recordAt(l *Log, offset uint64) (rec Record, ok bool) {
	l.Scan(offset, func(r Record) bool {
		rec, ok = r, r.Offset == offset
		return false
	})
	return rec, ok
}

func TestAppendReadBasics(t *testing.T) {
	l, err := Open(NewMemStore(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		off := mustAppend(t, l, fmt.Sprintf("k%d", i%3), []byte(fmt.Sprintf("v%d", i)))
		if off != uint64(i) {
			t.Fatalf("offset %d, want %d", off, i)
		}
	}
	if got := l.NextOffset(); got != 10 {
		t.Fatalf("NextOffset = %d, want 10", got)
	}
	if rec, ok := recordAt(l, 4); !ok || string(rec.Payload) != "v4" || rec.Key != "k1" {
		t.Fatalf("recordAt(4) = %+v, %v", rec, ok)
	}
	if _, ok := recordAt(l, 10); ok {
		t.Fatal("recordAt(10) past end should miss")
	}
	recs := l.Records(0)
	if len(recs) != 10 {
		t.Fatalf("Records(0) = %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		if rec.Offset != uint64(i) {
			t.Fatalf("read offset %d, want %d", rec.Offset, i)
		}
	}
}

func TestFirstOffset(t *testing.T) {
	l, err := Open(NewMemStore(), Options{FirstOffset: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if off := mustAppend(t, l, "k", []byte("v")); off != 1 {
		t.Fatalf("first offset = %d, want 1", off)
	}
	if l.OldestOffset() != 1 {
		t.Fatalf("OldestOffset = %d, want 1", l.OldestOffset())
	}
}

func TestSegmentSealing(t *testing.T) {
	store := NewMemStore()
	l, err := Open(store, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 9; i++ {
		mustAppend(t, l, "", []byte{byte(i)})
	}
	// 9 records at 4/segment: two sealed + active holding one.
	if bases, _ := store.Segments(); len(bases) != 3 {
		t.Fatalf("store holds %d segments, want 3", len(bases))
	}
	if got := len(l.Records(0)); got != 9 {
		t.Fatalf("retained %d records, want 9", got)
	}
}

// TestReadsRightAfterRoll pins the segment search on a log whose active
// segment is empty — the state every seal and every reopen leaves
// behind: point reads and scans must still find the sealed records.
func TestReadsRightAfterRoll(t *testing.T) {
	for _, full := range []int{1, 2, 3} { // sealed segments before the empty active one
		l, err := Open(NewMemStore(), Options{SegmentRecords: 4})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		n := uint64(4 * full)
		for i := uint64(0); i < n; i++ {
			mustAppend(t, l, "", []byte{byte(i)})
		}
		for off := uint64(0); off < n; off++ {
			if rec, ok := recordAt(l, off); !ok || rec.Offset != off {
				t.Fatalf("%d full segments: recordAt(%d) = %+v, %v", full, off, rec, ok)
			}
		}
		if recs := l.Records(2); uint64(len(recs)) != n-2 || recs[0].Offset != 2 {
			t.Fatalf("%d full segments: Records(2) = %d records, want %d from offset 2", full, len(recs), n-2)
		}
	}
}

// TestScan pins the in-place iterator: offset order from the requested
// offset, compaction holes skipped, and it stops when fn says so.
func TestScan(t *testing.T) {
	l, err := Open(NewMemStore(), Options{SegmentRecords: 4, Compact: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i%2), []byte{byte(i)})
	}
	want := l.Records(3)
	var got []uint64
	l.Scan(3, func(r Record) bool {
		got = append(got, r.Offset)
		return true
	})
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("Scan(3) visited %d records, Records(3) has %d", len(got), len(want))
	}
	for i, r := range want {
		if got[i] != r.Offset {
			t.Fatalf("Scan(3) visit %d = offset %d, want %d", i, got[i], r.Offset)
		}
	}
	visits := 0
	l.Scan(0, func(Record) bool {
		visits++
		return visits < 2
	})
	if visits != 2 {
		t.Fatalf("Scan visited %d records after fn returned false on the 2nd", visits)
	}
}

func TestReopenRecoversRecords(t *testing.T) {
	store := NewMemStore()
	l, err := Open(store, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}

	r, err := Open(store, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(r.Records(0)); got != 10 {
		t.Fatalf("reopened log holds %d records, want 10", got)
	}
	if got := r.NextOffset(); got != 10 {
		t.Fatalf("reopened NextOffset = %d, want 10", got)
	}
	recs := r.Records(6)
	if len(recs) != 4 || recs[0].Offset != 6 {
		t.Fatalf("replay from offset 6: %d records from %d", len(recs), recs[0].Offset)
	}
	// Payloads survived the store round trip.
	if string(recs[0].Payload) != "v6" {
		t.Fatalf("replayed payload %q, want v6", recs[0].Payload)
	}
}

func TestReopenNeverReusesOffsets(t *testing.T) {
	// Compaction and segment merges leave holes, so the retained record
	// count says nothing about the next offset: a reopened log must
	// resume allocation past its last record.
	store := NewMemStore()
	opts := Options{SegmentRecords: 4, Compact: true, MaxSegments: 2}
	l, err := Open(store, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i%3), []byte{byte(i)})
	}
	if n := len(l.Records(0)); n >= 40 {
		t.Fatalf("retained %d records: compaction never dropped one", n)
	}
	r, err := Open(store, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if off := mustAppend(t, r, "k", []byte("w")); off != 40 {
		t.Fatalf("post-reopen append minted offset %d, want 40", off)
	}
}

func TestCompactionKeepsLatestPerKey(t *testing.T) {
	l, err := Open(NewMemStore(), Options{SegmentRecords: 4, Compact: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 16; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i%3), []byte(fmt.Sprintf("v%d", i)))
	}
	if len(l.Records(0)) == 16 {
		t.Fatal("compaction never fired")
	}
	// Latest record of each key must be retained with its payload.
	want := map[string]string{"k0": "v15", "k1": "v13", "k2": "v14"}
	got := make(map[string]string)
	for _, r := range l.Records(0) {
		got[r.Key] = string(r.Payload)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: latest %q, want %q", k, got[k], v)
		}
	}
}

// checkContiguousTail fails unless the records from OldestOffset() run
// without a hole to NextOffset()-1: the floor must count every record
// compaction, merge or retention dropped.
func checkContiguousTail(t *testing.T, l *Log) {
	t.Helper()
	want := l.OldestOffset()
	for _, r := range l.Records(want) {
		if r.Offset != want {
			t.Fatalf("hole above the floor %d: offset %d where %d was due", l.OldestOffset(), r.Offset, want)
		}
		want++
	}
	if want != l.NextOffset() {
		t.Fatalf("retained tail ends at %d, want NextOffset()-1 = %d", want-1, l.NextOffset()-1)
	}
}

// TestCompactionProperty is the twin-log property test: a compacted
// log's latest-value-per-key equals an uncompacted twin's, every record
// the compacted log retains is the twin's record verbatim, and after
// every append the records from the floor run contiguously.
func TestCompactionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	compacted, err := Open(NewMemStore(), Options{SegmentRecords: 8, Compact: true, MaxSegments: 3})
	if err != nil {
		t.Fatalf("Open compacted: %v", err)
	}
	plain, err := Open(NewMemStore(), Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("Open plain: %v", err)
	}
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("key-%d", rng.Intn(12))
		payload := []byte(fmt.Sprintf("payload-%d", i))
		offC, err := compacted.Append(key, payload)
		if err != nil {
			t.Fatalf("append compacted: %v", err)
		}
		offP, err := plain.Append(key, payload)
		if err != nil {
			t.Fatalf("append plain: %v", err)
		}
		if offC.Offset != offP.Offset {
			t.Fatalf("offset divergence: %d vs %d", offC.Offset, offP.Offset)
		}
		checkContiguousTail(t, compacted)
	}
	if compacted.OldestOffset() == 0 {
		t.Fatal("compaction never raised the floor")
	}

	latest := func(recs []Record) map[string]Record {
		m := make(map[string]Record)
		for _, r := range recs {
			m[r.Key] = r // ascending offsets: last write wins
		}
		return m
	}
	lc, lp := latest(compacted.Records(0)), latest(plain.Records(0))
	if len(lc) != len(lp) {
		t.Fatalf("latest-per-key cardinality: %d vs %d", len(lc), len(lp))
	}
	for k, p := range lp {
		c, ok := lc[k]
		if !ok {
			t.Fatalf("key %s lost by compaction", k)
		}
		if c.Offset != p.Offset || !bytes.Equal(c.Payload, p.Payload) {
			t.Fatalf("key %s: compacted latest (%d,%q) != uncompacted (%d,%q)",
				k, c.Offset, c.Payload, p.Offset, p.Payload)
		}
	}

	for _, c := range compacted.Records(0) {
		p, ok := recordAt(plain, c.Offset)
		if !ok || p.Key != c.Key || !bytes.Equal(p.Payload, c.Payload) {
			t.Fatalf("retained record %d (%q,%q) is not the twin's (%q,%q)",
				c.Offset, c.Key, c.Payload, p.Key, p.Payload)
		}
	}

	if nc, np := len(compacted.Records(0)), len(plain.Records(0)); nc >= np {
		t.Fatalf("compacted log (%d) not smaller than plain (%d): compaction never ran", nc, np)
	}
}

func TestCompactedReopenMatches(t *testing.T) {
	// Compaction rewrites sealed segments in the store; a reopen must
	// see exactly the retained records.
	store := NewMemStore()
	l, err := Open(store, Options{SegmentRecords: 4, Compact: true, MaxSegments: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i%4), []byte(fmt.Sprintf("v%d", i)))
	}
	before := l.Records(0)
	r, err := Open(store, Options{SegmentRecords: 4, Compact: true, MaxSegments: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	after := r.Records(0)
	if len(after) != len(before) {
		t.Fatalf("reopen: %d records, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i].Offset != after[i].Offset || !bytes.Equal(before[i].Payload, after[i].Payload) {
			t.Fatalf("record %d diverged across reopen", i)
		}
	}
	if r.OldestOffset() != l.OldestOffset() {
		t.Fatalf("reopened floor %d, live floor %d", r.OldestOffset(), l.OldestOffset())
	}
	checkContiguousTail(t, r)
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	store := NewMemStore()
	l, err := Open(store, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, l, "k", []byte(fmt.Sprintf("v%d", i)))
	}
	// Tear the active segment's tail mid-frame.
	bases, _ := store.Segments()
	base := bases[len(bases)-1]
	data, _ := store.Load(base)
	if err := store.Rewrite(base, data[:len(data)-3]); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	r, err := Open(store, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := len(r.Records(0)); got != 4 {
		t.Fatalf("recovered %d records, want 4 (torn tail truncated)", got)
	}
	// The store-side tail was truncated too.
	clean, _ := store.Load(base)
	if recs, _, tornErr := decodeSegment(clean); tornErr != nil || len(recs) != 4 {
		t.Fatalf("store tail not cleaned: %d recs, %v", len(recs), tornErr)
	}
	// And recovery never appends into the recovered segment.
	rec, err := r.Append("k", []byte("post"))
	if err != nil || rec.Offset != 4 {
		t.Fatalf("post-recovery append: %d, %v; want 4", rec.Offset, err)
	}
}

func TestDeadLogAfterStoreFailure(t *testing.T) {
	store := NewMemStore()
	l, err := Open(store, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fault := NewFaultStore(store, 0)
	l.store = fault // every subsequent write crashes
	if _, err := l.Append("k", []byte("v")); !errors.Is(err, ErrDead) {
		t.Fatalf("append on dead store: %v, want ErrDead", err)
	}
	if _, err := l.Append("k", []byte("v")); !errors.Is(err, ErrDead) {
		t.Fatalf("append stays dead: %v", err)
	}
}

func TestFileStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	l, err := Open(fs, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	r, err := Open(fs2, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	if got := len(r.Records(0)); got != 10 {
		t.Fatalf("reopened log holds %d records, want 10", got)
	}
	if rec, ok := recordAt(r, 9); !ok || string(rec.Payload) != "v9" {
		t.Fatalf("recordAt(9) = %+v, %v", rec, ok)
	}
}

// TestFileStoreConcurrentChurn runs parallel appenders and readers
// against one FileStore-backed log — the -race exercise for the durable
// configuration the platform actually runs (segment roll and seal-time
// compaction interleaving with reads). Correctness checks are the log's
// own invariants: strictly increasing offsets per reader pass, and a
// reopen that agrees with the final in-memory state.
func TestFileStoreConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	opts := Options{SegmentRecords: 32, Compact: true}
	l, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const (
		appenders   = 4
		perAppender = 200
	)
	var appendWG, churnWG sync.WaitGroup
	errCh := make(chan error, appenders+2)
	for a := 0; a < appenders; a++ {
		appendWG.Add(1)
		go func(a int) {
			defer appendWG.Done()
			for i := 0; i < perAppender; i++ {
				key := fmt.Sprintf("k%d", (a*perAppender+i)%8)
				if _, err := l.Append(key, []byte(fmt.Sprintf("a%d-%d", a, i))); err != nil {
					errCh <- fmt.Errorf("appender %d: %w", a, err)
					return
				}
			}
		}(a)
	}
	stop := make(chan struct{})
	// Readers: every observed pass must be strictly increasing.
	for r := 0; r < 2; r++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := uint64(0)
				seen := false
				for _, rec := range l.Records(0) {
					if seen && rec.Offset <= last {
						errCh <- fmt.Errorf("reader saw offsets %d then %d", last, rec.Offset)
						return
					}
					last, seen = rec.Offset, true
				}
			}
		}()
	}
	// Wait for the appenders, then wind the churn down.
	appendersDone := make(chan struct{})
	go func() {
		appendWG.Wait()
		close(appendersDone)
	}()
	select {
	case err := <-errCh:
		close(stop)
		churnWG.Wait()
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		close(stop)
		churnWG.Wait()
		t.Fatal("concurrent churn did not finish in 60s")
	case <-appendersDone:
	}
	close(stop)
	churnWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// The reopened log must agree with the final in-memory state.
	before := l.Records(0)
	next := l.NextOffset()
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	r, err := Open(fs2, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	after := r.Records(0)
	if len(after) != len(before) {
		t.Fatalf("reopen: %d records, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i].Offset != after[i].Offset || string(before[i].Payload) != string(after[i].Payload) {
			t.Fatalf("record %d diverged across reopen: %d vs %d", i, before[i].Offset, after[i].Offset)
		}
	}
	if got := r.NextOffset(); got != next {
		t.Fatalf("reopened NextOffset = %d, want %d", got, next)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{recMagic},
		{recMagic, 0x05, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, data := range cases {
		if recs, _, tornErr := decodeSegment(data); len(data) > 0 && tornErr == nil && len(recs) == 0 {
			t.Fatalf("case %d: garbage decoded cleanly", i)
		}
	}
	// A frame claiming an absurd payload length errors without allocating.
	huge := appendRecordFrame(nil, 1, "k", nil)
	huge[len(huge)-5] = 0xff // corrupt the CRC region harmlessly; decode fails
	if _, _, tornErr := decodeSegment(huge); tornErr == nil {
		t.Fatal("corrupt CRC accepted")
	}
}
