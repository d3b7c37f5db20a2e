package mongo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestInsertAssignsID(t *testing.T) {
	db := NewDB()
	jobs := db.C("jobs")
	id, err := jobs.Insert(Doc{"user": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty id")
	}
	d, err := jobs.FindOne(Filter{"_id": id})
	if err != nil {
		t.Fatal(err)
	}
	if d["user"] != "alice" {
		t.Fatalf("doc = %v", d)
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
		{"numeric-width", Filter{"gpus": 3.0}, 1},
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

func TestNestedFieldPaths(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "j1", "status": Doc{"phase": "RUNNING", "retries": 2}}); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Find(Filter{"status.phase": "RUNNING"}, FindOpts{})); n != 1 {
		t.Fatalf("nested eq count = %d", n)
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{Set: Doc{"status.phase": "FAILED"}}); err != nil {
		t.Fatal(err)
	}
	d, err := c.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := lookupPath(d, "status.phase")
	if !ok || v != "FAILED" {
		t.Fatalf("status.phase = %v", v)
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
	if err := c.Upsert(Filter{"user": "alice"}, Update{Set: Doc{"gpus": 4}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert(Filter{"user": "alice"}, Update{Set: Doc{"gpus": 8}}); err != nil {
		t.Fatal(err)
	}
	if c.size() != 1 {
		t.Fatalf("len = %d, want 1", c.size())
	}
	d, _ := c.FindOne(Filter{"user": "alice"})
	if g, _ := toFloat(d["gpus"]); g != 8 {
		t.Fatalf("gpus = %v", d["gpus"])
	}
}

func TestFindSortLimit(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%d", i), "submitted": 100 - i}); err != nil {
			t.Fatal(err)
		}
	}
	docs := c.Find(Filter{}, FindOpts{SortBy: "submitted"})
	if len(docs) != 5 {
		t.Fatalf("len = %d", len(docs))
	}
	for i, d := range docs {
		if want := fmt.Sprintf("j%d", 4-i); d["_id"] != want {
			t.Fatalf("docs[%d] = %v, want %s (ascending submitted)", i, d["_id"], want)
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
		if _, err := c.Insert(Doc{"user": fmt.Sprintf("u%d", i%7), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 7; u++ {
		f := Filter{"user": fmt.Sprintf("u%d", u)}
		want := 0
		for _, d := range c.Find(Filter{}, FindOpts{}) {
			if interpretedMatch(f, d) {
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
	cfg, _ := asDoc(mine["cfg"])
	cfg["gpus"] = 99 // nested mutation on the deep copy
	d2, _ := c.FindOne(Filter{"_id": "j1"})
	cfg2, _ := asDoc(d2["cfg"])
	if g, _ := toFloat(cfg2["gpus"]); g != 2 {
		t.Fatal("stored document mutated through DeepClone")
	}
	if _, ok := d2["status"]; ok {
		t.Fatal("stored document grew a field from a view's top-level write")
	}
}

// TestCOWViewImmuneToLaterUpdates pins the copy-on-write invariant: a
// view taken before an update never observes it, even though nested
// containers are shared — updates path-copy what they touch and
// history pushes append beyond every handed-out length.
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
			Set:  Doc{"status": "PROCESSING", "meta.cfg.gpus": 4 + i},
			Push: map[string]any{"history": Doc{"status": "PROCESSING", "i": i}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s, _ := before["status"].(string); s != "PENDING" {
		t.Fatalf("view status = %q, want PENDING", s)
	}
	meta, _ := asDoc(before["meta"])
	cfg, _ := asDoc(meta["cfg"])
	if g, _ := toFloat(cfg["gpus"]); g != 2 {
		t.Fatalf("view nested gpus = %v, want 2", cfg["gpus"])
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
// naive scan would.
func TestFindMatchesNaiveScanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		db := NewDB()
		c := db.C("x")
		c.EnsureIndex("v")
		for i, v := range vals {
			if _, err := c.Insert(Doc{"_id": fmt.Sprintf("d%d", i), "v": int(v % 8)}); err != nil {
				return false
			}
		}
		for target := 0; target < 8; target++ {
			want := 0
			for _, v := range vals {
				if int(v%8) == target {
					want++
				}
			}
			if len(c.Find(Filter{"v": target}, FindOpts{})) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledFilterMatchesInterpreted pins that the compiled form the
// query engine runs (Filter.compile) agrees with the interpretedMatch
// oracle on dotted paths, missing fields, incomparable values and
// numeric-width equality.
func TestCompiledFilterMatchesInterpreted(t *testing.T) {
	docs := []Doc{
		{"_id": "a", "gpus": 2, "user": "u0", "status": Doc{"phase": "RUNNING", "retries": 2}},
		{"_id": "b", "gpus": 7, "user": "u1", "status": Doc{"phase": "FAILED"}},
		{"_id": "c", "user": "u0"},
		{"_id": "d", "gpus": "not-a-number"},
	}
	filters := []Filter{
		{},
		{"gpus": 2},
		{"gpus": 2.0},
		{"gpus": int64(7)},
		{"gpus": "not-a-number"},
		{"gpus": "2"},
		{"user": "u0"},
		{"status.phase": "RUNNING"},
		{"status.retries": 2.0, "user": "u0"},
		{"status.phase": "RUNNING", "gpus": 7},
		{"user.name": "u0"}, // descends through a non-document
		{"missing.deep.path": 1},
	}
	for _, f := range filters {
		cf := f.compile()
		for _, d := range docs {
			if got, want := cf.matches(d), interpretedMatch(f, d); got != want {
				t.Errorf("filter %v on doc %v: compiled=%v interpreted=%v", f, d, got, want)
			}
		}
	}
}

// interpretedMatch reports whether d satisfies f by walking the filter
// directly, re-splitting every field path per call. It is the query
// engine's original matcher, kept here as the independent oracle for
// the compiled one (Filter.compile) and as the baseline of
// BenchmarkMongoFindCompiledFilter.
func interpretedMatch(f Filter, d Doc) bool {
	for path, want := range f {
		got, present := lookupPath(d, path)
		if !present || !equal(got, want) {
			return false
		}
	}
	return true
}
