package mongo

import (
	"errors"
	"fmt"
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

func TestCloneIsolation(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "j1", "cfg": Doc{"gpus": 2}}); err != nil {
		t.Fatal(err)
	}
	// Returned docs are copy-on-write views: top-level assignment is
	// free, nested mutation requires DeepClone (the documented rules).
	d, _ := c.FindOne(Filter{"_id": "j1"})
	d["status"] = "FAILED" // top-level: never visible to the store
	mine := d.DeepClone()
	mine["cfg"].(Doc)["gpus"] = 99 // nested mutation on the deep copy
	d2, _ := c.FindOne(Filter{"_id": "j1"})
	if g := d2["cfg"].(Doc)["gpus"]; g != 2 {
		t.Fatal("stored document mutated through DeepClone")
	}
	if _, ok := d2["status"]; ok {
		t.Fatal("stored document grew a field from a view's top-level write")
	}
}

// TestCOWViewImmuneToLaterUpdates pins the copy-on-write invariant: a
// view taken before an update never observes it, even though nested
// containers are shared — updates replace top-level values and history
// pushes append beyond every handed-out length.
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

// TestCloneAllocBudgetWithLongHistory pins the tentpole read-path
// property: cloning a job document with a 1000-entry status history is
// O(top-level fields), not O(history). The deep-copy equivalent costs
// thousands of allocations.
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
	deep := testing.AllocsPerRun(10, func() {
		sink = d.DeepClone()
	})
	if deep < 1000 {
		t.Fatalf("DeepClone allocations = %.1f; expected O(history) — is the guard measuring the right thing?", deep)
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
// status write is one — at an exact count: it reads the document from
// the map, with no candidate list built or sorted, and the rest of the
// filter (a guard such as tenancy's "preempted") is still checked.
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
		{"_id", Filter{"_id": "j1"}, 6},
		{"_id and guard", Filter{"_id": "j1", "preempted": true}, 6},
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
