package mongo

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestInsertWithoutIDFails pins that every document names its own _id:
// an id-less Insert or Upsert errors and leaves no document and no
// oplog record behind.
func TestInsertWithoutIDFails(t *testing.T) {
	db := NewDB()
	jobs := db.C("jobs")
	if _, err := jobs.Insert(Doc{"user": "alice"}); !errors.Is(err, errNoID) {
		t.Fatalf("id-less Insert: err = %v, want errNoID", err)
	}
	if _, err := jobs.Insert(Doc{"_id": 7, "user": "alice"}); !errors.Is(err, errNoID) {
		t.Fatalf("Insert with a non-string _id: err = %v, want errNoID", err)
	}
	if err := jobs.Upsert(Filter{"user": "alice"}, Update{Set: Doc{"gpus": 4}}); !errors.Is(err, errNoID) {
		t.Fatalf("id-less Upsert: err = %v, want errNoID", err)
	}
	if n, seq := jobs.size(), db.OplogLen(); n != 0 || seq != 0 {
		t.Fatalf("refused writes left %d docs and %d oplog records", n, seq)
	}
	id, err := jobs.Insert(Doc{"_id": "j1", "user": "alice"})
	if err != nil || id != "j1" {
		t.Fatalf("Insert = %q, %v; want j1", id, err)
	}
	if d, err := jobs.FindOne(Filter{"_id": id}); err != nil || d["user"] != "alice" {
		t.Fatalf("doc = %v, err = %v", d, err)
	}
}

func TestInsertDuplicateIDFails(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "j1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Doc{"_id": "j1"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestFilterOperators(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	for i := 0; i < 10; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%d", i), "gpus": i, "user": fmt.Sprintf("u%d", i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	// Equality is the one filter operator.
	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"eq", Filter{"gpus": 3}, 1},
		{"combined", Filter{"user": "u0", "gpus": 4}, 1},
		{"combined-disjoint", Filter{"user": "u1", "gpus": 4}, 0},
		{"all", Filter{}, 10},
		{"missing-field", Filter{"missing": 1}, 0},
		{"no-match", Filter{"gpus": 42}, 0},
	}
	for _, tc := range cases {
		if got := len(c.Find(tc.f, FindOpts{})); got != tc.want {
			t.Errorf("%s: count = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFilterValueTypes pins the matcher's type rules: a filter value
// matches only an equal value of the same type, and a list or document
// value never matches — on an indexed field or not, and without the
// panic Go's == raises on two lists.
func TestFilterValueTypes(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("user")
	hist := []any{Doc{"status": "PENDING"}}
	if _, err := c.Insert(Doc{"_id": "j1", "user": "7", "n": 7, "history": hist, "cfg": Doc{"gpus": 2}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		f    Filter
		want int
	}{
		{"string", Filter{"user": "7"}, 1},
		{"int", Filter{"n": 7}, 1},
		{"int-on-indexed-string-field", Filter{"user": 7}, 0},
		{"string-on-int-field", Filter{"n": "7"}, 0},
		{"int64-on-int-field", Filter{"n": int64(7)}, 0},
		{"list-field", Filter{"history": hist}, 0},
		{"list-field-empty", Filter{"history": []any{}}, 0},
		{"document-field", Filter{"cfg": Doc{"gpus": 2}}, 0},
	} {
		if got := len(c.Find(tc.f, FindOpts{})); got != tc.want {
			t.Errorf("%s: Find %v = %d docs, want %d", tc.name, tc.f, got, tc.want)
		}
		if err := c.UpdateOne(tc.f, Update{Set: Doc{"touched": true}}); (err == nil) != (tc.want == 1) {
			t.Errorf("%s: UpdateOne err = %v, want a match: %v", tc.name, err, tc.want == 1)
		}
	}
}

func TestUpdateOperators(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "j1", "history": []any{}}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{
		Push: map[string]any{"history": "PENDING"},
		Set:  Doc{"user": "bob"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{
		Push: map[string]any{"history": "RUNNING"},
	}); err != nil {
		t.Fatal(err)
	}
	// Push onto an absent field starts the array.
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{Push: map[string]any{"events": "e1"}}); err != nil {
		t.Fatal(err)
	}
	d, err := c.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	hist, _ := d["history"].([]any)
	if len(hist) != 2 || hist[0] != "PENDING" || hist[1] != "RUNNING" {
		t.Fatalf("history = %v", hist)
	}
	if d["user"] != "bob" {
		t.Fatalf("user = %v", d["user"])
	}
	if ev, _ := d["events"].([]any); len(ev) != 1 || ev[0] != "e1" {
		t.Fatalf("events = %v", d["events"])
	}
	if err := c.UpdateOne(Filter{"_id": "nope"}, Update{Set: Doc{"user": "x"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of a missing doc: err = %v, want ErrNotFound", err)
	}
}

func TestUpdateCannotChangeID(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "j1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{Set: Doc{"_id": "evil"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FindOne(Filter{"_id": "j1"}); err != nil {
		t.Fatal("document lost its _id")
	}
}

func TestUpsert(t *testing.T) {
	db := NewDB()
	c := db.C("quota")
	if err := c.Upsert(Filter{"_id": "alice"}, Update{Set: Doc{"user": "alice", "gpus": 4}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(Filter{"_id": "alice"}, Update{Set: Doc{"gpus": 8}}); err != nil {
		t.Fatal(err)
	}
	if c.size() != 1 {
		t.Fatalf("len = %d, want 1", c.size())
	}
	d, _ := c.FindOne(Filter{"user": "alice"})
	if g, _ := d["gpus"].(int); g != 8 {
		t.Fatalf("gpus = %v", d["gpus"])
	}
}

// TestUpsertConcurrentFreshIDs pins that an upsert of a new _id is one
// atomic step: goroutines racing to upsert the same fresh ids must all
// succeed, one inserting and the rest updating — never ErrDuplicateID
// from an insert that lost the race to another.
func TestUpsertConcurrentFreshIDs(t *testing.T) {
	const ids, workers = 2000, 4
	db := NewDB()
	c := db.C("tenants")
	start := make(chan struct{})
	errs := make(chan error, ids*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("user-%04d", i)
				if err := c.Upsert(Filter{"_id": id}, Update{Set: Doc{"user": id, "gpus": w}}); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed == 0 {
			t.Errorf("concurrent Upsert: %v", err)
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d concurrent upserts failed", failed, ids*workers)
	}
	if c.size() != ids {
		t.Fatalf("len = %d, want %d", c.size(), ids)
	}
}

func TestFindSortLimit(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%d", i), "submitted": fmt.Sprintf("t%d", 9-i)}); err != nil {
			t.Fatal(err)
		}
	}
	docs := c.Find(Filter{}, FindOpts{SortBy: "submitted"})
	if len(docs) != 5 {
		t.Fatalf("len = %d", len(docs))
	}
	for i, d := range docs {
		if want := fmt.Sprintf("j%d", 4-i); d["_id"] != want {
			t.Fatalf("docs[%d] = %v, want %s (ascending submitted string)", i, d["_id"], want)
		}
	}
	// No SortBy: _id order.
	docs = c.Find(Filter{}, FindOpts{})
	if docs[0]["_id"] != "j0" || docs[4]["_id"] != "j4" {
		t.Fatalf("default order = %v .. %v, want j0 .. j4", docs[0]["_id"], docs[4]["_id"])
	}
}

func TestIndexEqualityMatchesScan(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("user")
	for i := 0; i < 100; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%03d", i), "user": fmt.Sprintf("u%d", i%7), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 7; u++ {
		f := Filter{"user": fmt.Sprintf("u%d", u)}
		want := 0
		for _, d := range c.Find(Filter{}, FindOpts{}) {
			if d["user"] == f["user"] {
				want++
			}
		}
		if got := len(c.Find(f, FindOpts{})); got != want {
			t.Fatalf("indexed count(u%d) = %d, want %d", u, got, want)
		}
	}
	// The index must track updates.
	u0, u1 := len(c.Find(Filter{"user": "u0"}, FindOpts{})), len(c.Find(Filter{"user": "u1"}, FindOpts{}))
	for _, d := range c.Find(Filter{"user": "u0"}, FindOpts{}) {
		if err := c.UpdateOne(Filter{"_id": d["_id"]}, Update{Set: Doc{"user": "u1"}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Find(Filter{"user": "u0"}, FindOpts{})); got != 0 {
		t.Fatalf("count(u0) after reassign = %d", got)
	}
	if got := len(c.Find(Filter{"user": "u1"}, FindOpts{})); got != u0+u1 {
		t.Fatalf("count(u1) after reassign = %d, want %d", got, u0+u1)
	}
}

// TestIndexMovesOnlyChangedKeys pins the index cost of an update: a
// write that leaves a document's user as it was leaves that user's list
// untouched, in insertion order, and a status change moves the id
// exactly once, from the old status's list to the end of the new one's.
// Reads through either index see the same documents as a scan.
func TestIndexMovesOnlyChangedKeys(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("user")
	c.EnsureIndex("status")
	for _, id := range []string{"j3", "j1", "j4", "j0", "j2"} {
		if _, err := c.Insert(Doc{"_id": id, "user": "alice", "status": "PENDING"}); err != nil {
			t.Fatal(err)
		}
	}
	users := c.indexes["user"]["alice"]
	for _, s := range []string{"DEPLOYING", "PROCESSING", "COMPLETED"} {
		if err := c.UpdateOne(Filter{"_id": "j4"}, Update{Set: Doc{"status": s}, Push: map[string]any{"history": s}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UpdateOne(Filter{"_id": "j0"}, Update{Set: Doc{"status": "PENDING", "note": "x"}}); err != nil {
		t.Fatal(err)
	}
	got := c.indexes["user"]["alice"]
	if !slices.Equal(got, []string{"j3", "j1", "j4", "j0", "j2"}) || &got[0] != &users[0] {
		t.Fatalf("user list = %v, want the insertion order in the same array", got)
	}
	status := c.indexes["status"]
	if !slices.Equal(status["PENDING"], []string{"j3", "j1", "j0", "j2"}) || !slices.Equal(status["COMPLETED"], []string{"j4"}) {
		t.Fatalf("status lists = %v", status)
	}
	seen := 0
	for _, ids := range status {
		for _, id := range ids {
			if id == "j4" {
				seen++
			}
		}
	}
	if seen != 1 {
		t.Fatalf("j4 appears %d times across the status lists, want 1", seen)
	}
	for _, f := range []Filter{{"user": "alice"}, {"status": "PENDING"}, {"status": "COMPLETED"}, {"status": "DEPLOYING"}} {
		var want []any
		for _, d := range c.Find(Filter{}, FindOpts{}) {
			if f.matches(d) {
				want = append(want, d["_id"])
			}
		}
		var ids []any
		for _, d := range c.Find(f, FindOpts{}) {
			ids = append(ids, d["_id"])
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("Find(%v) = %v, want %v", f, ids, want)
		}
	}
}

// mutationPanic runs fn and returns what it panicked with, or nil.
func mutationPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestCloneIsolation pins the mutation detector: a read returns the
// stored document itself, so assigning a field of it writes the store,
// and the detector panics at the document's next write and at Close.
// An untouched document passes both, and so does a document whose
// fields are reassigned to the values they held.
func TestCloneIsolation(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	for _, id := range []string{"j1", "j2", "j3"} {
		if _, err := c.Insert(Doc{"_id": id, "status": "PENDING", "cfg": Doc{"gpus": 2}}); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := c.FindOne(Filter{"_id": "j1"})
	d["status"] = "FAILED"
	const want = "mongo: stored document jobs/j1 was mutated"
	if r := mutationPanic(func() { c.UpdateOne(Filter{"_id": "j1"}, Update{Set: Doc{"n": 1}}) }); r != want { //nolint:errcheck
		t.Fatalf("update after a write to a read's doc panicked with %v, want %q", r, want)
	}
	if r := mutationPanic(func() { db.Close() }); r != want { //nolint:errcheck
		t.Fatalf("Close after a write to a read's doc panicked with %v, want %q", r, want)
	}
	d["status"] = "PENDING" // back to the stored value
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{Set: Doc{"n": 1}}); err != nil {
		t.Fatal(err)
	}

	// A field added to, or deleted from, a doc handed to Insert is a
	// mutation too: the store keeps that map.
	mine := Doc{"_id": "j4", "status": "PENDING"}
	if _, err := c.Insert(mine); err != nil {
		t.Fatal(err)
	}
	delete(mine, "status")
	if r := mutationPanic(func() { c.UpdateOne(Filter{"_id": "j4"}, Update{Set: Doc{"n": 1}}) }); r == nil { //nolint:errcheck
		t.Fatal("a field deleted from an inserted doc went undetected")
	}
	mine["status"] = "PENDING"
	// Replacing a nested doc by an equal one changes the field's
	// identity, so it is detected as well.
	d2, _ := c.FindOne(Filter{"_id": "j2"})
	d2["cfg"] = Doc{"gpus": 2}
	if r := mutationPanic(func() { db.Close() }); r != "mongo: stored document jobs/j2 was mutated" { //nolint:errcheck
		t.Fatalf("Close after a nested doc was replaced panicked with %v", r)
	}
}

// TestCOWViewImmuneToLaterUpdates pins that a stored version is
// immutable: a document read before an update never observes it, even
// though nested containers are shared — updates replace top-level
// values on a new top-level map and history pushes append beyond every
// earlier version's length.
func TestCOWViewImmuneToLaterUpdates(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{
		"_id": "j1", "status": "PENDING",
		"meta":    Doc{"user": "alice", "cfg": Doc{"gpus": 2}},
		"history": []any{Doc{"status": "PENDING"}},
	}); err != nil {
		t.Fatal(err)
	}
	before, _ := c.FindOne(Filter{"_id": "j1"})
	for i := 0; i < 32; i++ {
		if err := c.UpdateOne(Filter{"_id": "j1"}, Update{
			Set:  Doc{"status": "PROCESSING", "meta": Doc{"user": "alice", "cfg": Doc{"gpus": 4 + i}}},
			Push: map[string]any{"history": Doc{"status": "PROCESSING", "i": i}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s, _ := before["status"].(string); s != "PENDING" {
		t.Fatalf("view status = %q, want PENDING", s)
	}
	if g := before["meta"].(Doc)["cfg"].(Doc)["gpus"]; g != 2 {
		t.Fatalf("view nested gpus = %v, want 2", g)
	}
	hist, _ := before["history"].([]any)
	if len(hist) != 1 {
		t.Fatalf("view history length = %d, want 1", len(hist))
	}
	after, _ := c.FindOne(Filter{"_id": "j1"})
	if hist2, _ := after["history"].([]any); len(hist2) != 33 {
		t.Fatalf("stored history length = %d, want 33", len(hist2))
	}
}

// TestCloneAllocBudgetWithLongHistory pins the cost of the one copy an
// update makes: cloning a job document with a 1000-entry status history
// is O(top-level fields), not O(history).
func TestCloneAllocBudgetWithLongHistory(t *testing.T) {
	d := Doc{"_id": "j1", "status": "PROCESSING", "user": "alice"}
	hist := make([]any, 1000)
	for i := range hist {
		hist[i] = Doc{"status": "PROCESSING", "time": "t", "message": "m"}
	}
	d["history"] = hist
	var sink Doc
	allocs := testing.AllocsPerRun(100, func() {
		sink = d.Clone()
	})
	_ = sink
	if allocs > 4 {
		t.Fatalf("Clone allocations = %.1f, budget 4 (O(1)-ish); deep copy would be O(history)", allocs)
	}
}

// TestStatusAppendAllocsFlat pins the write-path half: appending to a
// long status history (read + push + oplog) must not re-copy the
// history, so its cost stays flat as the history grows.
func TestStatusAppendAllocsFlat(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	seed := func(id string, n int) {
		hist := make([]any, n)
		for i := range hist {
			hist[i] = Doc{"status": "S", "i": i}
		}
		if _, err := c.Insert(Doc{"_id": id, "status": "S", "history": hist}); err != nil {
			t.Fatal(err)
		}
	}
	seed("short", 4)
	seed("long", 4096)
	appendOnce := func(id string) func() {
		return func() {
			if err := c.UpdateOne(Filter{"_id": id}, Update{
				Push: map[string]any{"history": Doc{"status": "S"}},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(200, appendOnce("short"))
	long := testing.AllocsPerRun(200, appendOnce("long"))
	if long > short*4+64 {
		t.Fatalf("status append allocs grew with history: short=%.0f long=%.0f", short, long)
	}
}

// TestChangeStreamDeliversInOplogOrder pins the change-feed contract:
// backlog then live writes of the watched collection arrive with
// strictly increasing Seq, full post-images, and other collections
// filtered out.
func TestChangeStreamDeliversInOplogOrder(t *testing.T) {
	db := NewDB()
	jobs := db.C("jobs")
	if _, err := jobs.Insert(Doc{"_id": "j1", "status": "PENDING"}); err != nil {
		t.Fatal(err)
	}
	cs := db.Watch("jobs", 0)
	defer cs.Cancel()
	if _, err := db.C("other").Insert(Doc{"_id": "x"}); err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{"DEPLOYING", "PROCESSING"} {
		if err := jobs.UpdateOne(Filter{"_id": "j1"}, Update{Set: Doc{"status": st}}); err != nil {
			t.Fatal(err)
		}
	}
	want := []struct {
		kind   string
		status string
	}{
		{"insert", "PENDING"}, // backlog
		{"update", "DEPLOYING"},
		{"update", "PROCESSING"},
	}
	var lastSeq uint64
	for i, w := range want {
		select {
		case ev := <-cs.Events():
			if ev.Kind != w.kind || ev.Coll != "jobs" || ev.ID != "j1" {
				t.Fatalf("event %d = %+v, want %s on jobs/j1", i, ev, w.kind)
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("event %d Seq %d not increasing past %d", i, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if got, _ := ev.Doc["status"].(string); got != w.status {
				t.Fatalf("event %d post-image status = %q, want %q", i, got, w.status)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("change stream stalled before event %d", i)
		}
	}
	// The "other" collection's write must have been filtered, reflected
	// in a Seq jump the consumer can observe.
	if lastSeq != db.OplogLen() {
		t.Fatalf("lastSeq = %d, want oplog head %d", lastSeq, db.OplogLen())
	}
}

// TestChangeStreamResumesFromSeq: a stream opened at a prior resume
// token replays only the ops after it.
func TestChangeStreamResumesFromSeq(t *testing.T) {
	db := NewDB()
	jobs := db.C("jobs")
	if _, err := jobs.Insert(Doc{"_id": "a"}); err != nil {
		t.Fatal(err)
	}
	mark := db.OplogLen()
	if _, err := jobs.Insert(Doc{"_id": "b"}); err != nil {
		t.Fatal(err)
	}
	cs := db.Watch("jobs", mark)
	defer cs.Cancel()
	select {
	case ev := <-cs.Events():
		if ev.ID != "b" || ev.Seq != mark+1 {
			t.Fatalf("resumed event = %+v, want insert of b at seq %d", ev, mark+1)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("resumed stream delivered nothing")
	}
	select {
	case ev := <-cs.Events():
		t.Fatalf("resumed stream replayed pre-token op: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Insert(Doc{"_id": id, "w": w}); err != nil {
					t.Error(err)
					return
				}
				c.Find(Filter{"w": w}, FindOpts{})
				if err := c.UpdateOne(Filter{"_id": id}, Update{Set: Doc{"n": i}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.size() != 400 {
		t.Fatalf("len = %d, want 400", c.size())
	}
}

// Property: Find with an equality filter returns exactly the documents a
// naive scan would — through the hash index (string values of the
// indexed field "s") and through the full scan (int values of "v", and
// ints on the indexed field, which the index does not hold).
func TestFindMatchesNaiveScanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		db := NewDB()
		c := db.C("x")
		c.EnsureIndex("s")
		for i, v := range vals {
			d := Doc{"_id": fmt.Sprintf("d%d", i), "v": int(v % 8), "s": fmt.Sprint(v % 8)}
			if v%5 == 0 {
				d["s"] = int(v % 8)
			}
			if _, err := c.Insert(d); err != nil {
				return false
			}
		}
		for target := 0; target < 8; target++ {
			var wantV, wantS, wantSInt int
			for _, v := range vals {
				if int(v%8) == target {
					wantV++
					if v%5 == 0 {
						wantSInt++
					} else {
						wantS++
					}
				}
			}
			if len(c.Find(Filter{"v": target}, FindOpts{})) != wantV ||
				len(c.Find(Filter{"s": fmt.Sprint(target)}, FindOpts{})) != wantS ||
				len(c.Find(Filter{"s": target}, FindOpts{})) != wantSInt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateByIDAllocs pins the cost of a primary-key update — every
// status write is one — at an exact count, with the mutation detector
// on: it reads the document from the map, with no candidate list built
// or sorted, copies its top-level map once without re-boxing the _id,
// and the rest of the filter (a guard such as tenancy's "preempted") is
// still checked.
func TestUpdateByIDAllocs(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("status")
	if _, err := c.Insert(Doc{"_id": "j1", "status": "A", "user": "u", "preempted": true}); err != nil {
		t.Fatal(err)
	}
	flip := map[bool]string{false: "A", true: "B"}
	for _, tc := range []struct {
		name   string
		filter Filter
		want   float64
	}{
		{"_id", Filter{"_id": "j1"}, 5},
		{"_id and guard", Filter{"_id": "j1", "preempted": true}, 5},
	} {
		n := 0
		got := testing.AllocsPerRun(200, func() {
			n++
			if err := c.UpdateOne(tc.filter, Update{Set: Doc{"status": flip[n%2 == 0]}}); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: an update made %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
	if err := c.UpdateOne(Filter{"_id": "j1", "preempted": false}, Update{Set: Doc{"status": "C"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update whose guard does not match = %v, want ErrNotFound", err)
	}
	if err := c.UpdateOne(Filter{"_id": "j2"}, Update{Set: Doc{"status": "C"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of a missing _id = %v, want ErrNotFound", err)
	}
	if d, _ := c.FindOne(Filter{"_id": "j1"}); d["status"] == "C" {
		t.Fatal("an update that matched nothing changed the document")
	}
}

// TestReadsShareStoredDocs pins the read half of "immutable once
// stored": FindOne allocates nothing and returns the stored map, and
// Find's allocations do not grow with the number of documents it
// returns — on an index, on a full scan and sorted by another field.
func TestReadsShareStoredDocs(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("user")
	for i := 0; i < 1010; i++ {
		user := "many"
		if i >= 1000 {
			user = "few"
		}
		hist := []any{Doc{"status": "PENDING"}, Doc{"status": "PROCESSING"}}
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%04d", i), "user": user, "submitted": fmt.Sprint(2000 - i), "history": hist}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := c.FindOne(Filter{"_id": "j0007"})
	b, _ := c.FindOne(Filter{"_id": "j0007"})
	if reflect.ValueOf(a).Pointer() != reflect.ValueOf(b).Pointer() {
		t.Fatal("two reads of one version returned two maps")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.FindOne(Filter{"_id": "j0007"}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("FindOne made %.0f allocations, want 0", n)
	}
	find := func(f Filter, opts FindOpts, want int) float64 {
		return testing.AllocsPerRun(20, func() {
			if got := len(c.Find(f, opts)); got != want {
				t.Fatalf("Find(%v) = %d docs, want %d", f, got, want)
			}
		})
	}
	for _, tc := range []struct {
		name      string
		many, few Filter
		opts      FindOpts
	}{
		{"index", Filter{"user": "many"}, Filter{"user": "few"}, FindOpts{}},
		{"index sorted by another field", Filter{"user": "many"}, Filter{"user": "few"}, FindOpts{SortBy: "submitted"}},
	} {
		many, few := find(tc.many, tc.opts, 1000), find(tc.few, tc.opts, 10)
		if many != few || many > 1 {
			t.Errorf("%s: Find of 1,000 docs made %.0f allocations and of 10 made %.0f; want the same, at most 1", tc.name, many, few)
		}
	}
	if n := find(Filter{}, FindOpts{}, 1010); n > 1 {
		t.Errorf("a full-scan Find of 1,010 docs made %.0f allocations, want at most 1", n)
	}
	docs := c.Find(Filter{"user": "many"}, FindOpts{})
	if reflect.ValueOf(docs[7]).Pointer() != reflect.ValueOf(a).Pointer() {
		t.Fatal("Find and FindOne returned different maps for one version")
	}
}

// TestSharedPushValueIsNotWritten pins the write half: one flat
// map[string]any pushed into 1,000 documents — the shape of a shared
// Update value reused by every call — reads back as a Doc from each,
// sharing the map, and the store never writes it. Under -race a write
// would race with the reader that ranges over the map throughout.
func TestSharedPushValueIsNotWritten(t *testing.T) {
	const docs, writers = 1000, 4
	db := NewDB()
	c := db.C("jobs")
	for i := 0; i < docs; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%04d", i), "history": []any{}}); err != nil {
			t.Fatal(err)
		}
	}
	entry := map[string]any{"status": "PROCESSING", "time": "t", "message": "m"}
	push := Update{Set: Doc{"status": "PROCESSING"}, Push: map[string]any{"history": entry}}
	stop := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				read <- n
				return
			default:
			}
			for _, v := range entry {
				if v == nil {
					n--
				}
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < docs; i += writers {
				if err := c.UpdateOne(Filter{"_id": fmt.Sprintf("j%04d", i)}, push); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-read
	for _, d := range c.Find(Filter{}, FindOpts{}) {
		hist := d["history"].([]any)
		got, ok := hist[0].(Doc)
		if len(hist) != 1 || !ok || reflect.ValueOf(got).Pointer() != reflect.ValueOf(entry).Pointer() {
			t.Fatalf("%s history = %#v, want the pushed map as a Doc", d["_id"], hist)
		}
	}
	if len(entry) != 3 || entry["status"] != "PROCESSING" {
		t.Fatalf("the shared value changed: %v", entry)
	}
	db.Close() //nolint:errcheck // runs the mutation detector
}

// TestReadersHoldDocsWhileWritersUpdate runs readers that hold FindOne
// and Find results, and walk them, while writers update and push to
// the same documents. A held document never changes: its status and
// history length stay as read, and every entry it holds keeps its
// value. Run it under -race: reads share the stored maps and arrays
// that writes copy and append to.
func TestReadersHoldDocsWhileWritersUpdate(t *testing.T) {
	const ids, writers, readers, rounds = 8, 2, 4, 300
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("user")
	for i := 0; i < ids; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%d", i), "user": "alice", "status": "0", "history": []any{Doc{"n": 0}}}); err != nil {
			t.Fatal(err)
		}
	}
	// check verifies a held doc against what it held when read.
	check := func(d Doc, status string, n int) error {
		hist := d["history"].([]any)
		if d["status"] != status || len(hist) != n {
			return fmt.Errorf("%s changed: status %v (read %s), %d entries (read %d)", d["_id"], d["status"], status, len(hist), n)
		}
		for i, e := range hist {
			if e.(Doc)["n"] != i {
				return fmt.Errorf("%s entry %d = %v", d["_id"], i, e)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("j%d", (r*writers+w)%ids)
				// Read-modify-write under the collection lock's order:
				// the next entry's n is the history's length.
				err := func() error {
					c.mu.Lock()
					defer c.mu.Unlock()
					hist := c.docs[id]["history"].([]any)
					return c.updateLocked(Filter{"_id": id}, Update{
						Set:  Doc{"status": fmt.Sprint(len(hist))},
						Push: map[string]any{"history": map[string]any{"n": len(hist)}},
					})
				}()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			type held struct {
				d      Doc
				status string
				n      int
			}
			var hold []held
			keep := func(d Doc) {
				hist := d["history"].([]any)
				hold = append(hold, held{d, fmt.Sprint(len(hist) - 1), len(hist)})
			}
			for i := 0; i < rounds; i++ {
				if d, err := c.FindOne(Filter{"_id": fmt.Sprintf("j%d", (i+r)%ids)}); err == nil {
					keep(d)
				}
				if i%10 == 0 {
					for _, d := range c.Find(Filter{"user": "alice"}, FindOpts{}) {
						keep(d)
					}
				}
				for _, h := range hold {
					if err := check(h.d, h.status, h.n); err != nil {
						t.Error(err)
						return
					}
				}
				if len(hold) > 64 {
					hold = hold[len(hold)-16:]
				}
			}
		}(r)
	}
	wg.Wait()
	total := 0
	for _, d := range c.Find(Filter{}, FindOpts{}) {
		n := len(d["history"].([]any))
		if err := check(d, fmt.Sprint(n-1), n); err != nil {
			t.Fatal(err)
		}
		total += n - 1
	}
	if total != writers*rounds {
		t.Fatalf("%d pushes stored, want %d", total, writers*rounds)
	}
	db.Close() //nolint:errcheck // runs the mutation detector
}
