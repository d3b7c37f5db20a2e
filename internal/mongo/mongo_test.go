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
	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"eq", Filter{"gpus": 3}, 1},
		{"gt", Filter{"gpus": Gt(6)}, 3},
		{"gte", Filter{"gpus": Gte(6)}, 4},
		{"lt", Filter{"gpus": Lt(2)}, 2},
		{"lte", Filter{"gpus": Lte(2)}, 3},
		{"ne", Filter{"user": Ne("u0")}, 5},
		{"in", Filter{"gpus": In(1, 3, 5, 99)}, 3},
		{"combined", Filter{"user": "u0", "gpus": Gte(4)}, 3},
		{"exists-true", Filter{"gpus": Exists(true)}, 10},
		{"exists-false", Filter{"missing": Exists(false)}, 10},
		{"no-match", Filter{"gpus": 42}, 0},
	}
	for _, tc := range cases {
		if got := c.Count(tc.f); got != tc.want {
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
	if n := c.Count(Filter{"status.phase": "RUNNING"}); n != 1 {
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
	if _, err := c.Insert(Doc{"_id": "j1", "retries": 0, "history": []any{}}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{
		Inc:  map[string]float64{"retries": 1},
		Push: map[string]any{"history": "PENDING"},
		Set:  Doc{"user": "bob"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{
		Inc:  map[string]float64{"retries": 1},
		Push: map[string]any{"history": "RUNNING"},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := c.FindOne(Filter{"_id": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := toFloat(d["retries"]); r != 2 {
		t.Fatalf("retries = %v", d["retries"])
	}
	hist, _ := d["history"].([]any)
	if len(hist) != 2 || hist[0] != "PENDING" || hist[1] != "RUNNING" {
		t.Fatalf("history = %v", hist)
	}
	if d["user"] != "bob" {
		t.Fatalf("user = %v", d["user"])
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{Unset: []string{"user"}}); err != nil {
		t.Fatal(err)
	}
	d, _ = c.FindOne(Filter{"_id": "j1"})
	if _, ok := d["user"]; ok {
		t.Fatal("unset did not remove field")
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
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
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
	docs := c.Find(Filter{}, FindOpts{SortBy: "submitted", Limit: 3})
	if len(docs) != 3 {
		t.Fatalf("len = %d", len(docs))
	}
	if docs[0]["_id"] != "j4" {
		t.Fatalf("first = %v, want j4 (smallest submitted)", docs[0]["_id"])
	}
	docs = c.Find(Filter{}, FindOpts{SortBy: "submitted", Desc: true, Limit: 1})
	if docs[0]["_id"] != "j0" {
		t.Fatalf("desc first = %v, want j0", docs[0]["_id"])
	}
}

func TestDelete(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	for i := 0; i < 6; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%d", i), "user": fmt.Sprintf("u%d", i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeleteOne(Filter{"_id": "j0"}); err != nil {
		t.Fatal(err)
	}
	if n := c.DeleteMany(Filter{"user": "u1"}); n != 3 {
		t.Fatalf("deleted %d, want 3", n)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if err := c.DeleteOne(Filter{"_id": "nope"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
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
		if got := c.Count(f); got != want {
			t.Fatalf("indexed count(u%d) = %d, want %d", u, got, want)
		}
	}
	// Index must track updates and deletes.
	if _, err := c.UpdateMany(Filter{"user": "u0"}, Update{Set: Doc{"user": "u1"}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(Filter{"user": "u0"}); got != 0 {
		t.Fatalf("count(u0) after reassign = %d", got)
	}
	c.DeleteMany(Filter{"user": "u1"})
	if got := c.Count(Filter{"user": "u1"}); got != 0 {
		t.Fatalf("count(u1) after delete = %d", got)
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

func TestSecondaryReplication(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "pre", "n": 1}); err != nil {
		t.Fatal(err)
	}
	sec := db.StartSecondary()
	defer sec.Stop()
	// Backlog replicated.
	if sec.C("jobs").Len() != 1 {
		t.Fatalf("secondary missing backlog")
	}
	if _, err := c.Insert(Doc{"_id": "post", "n": 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateOne(Filter{"_id": "pre"}, Update{Set: Doc{"n": 10}}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteOne(Filter{"_id": "post"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if sec.Applied() == db.OplogLen() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if sec.C("jobs").Len() != 1 {
		t.Fatalf("secondary len = %d, want 1", sec.C("jobs").Len())
	}
	d, err := sec.C("jobs").FindOne(Filter{"_id": "pre"})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := toFloat(d["n"]); n != 10 {
		t.Fatalf("secondary n = %v, want 10", d["n"])
	}
}

// TestChangeStreamDeliversInOplogOrder pins the change-feed contract:
// backlog then live writes of the watched collection arrive with
// strictly increasing Seq, full post-images for inserts/updates, and
// other collections filtered out.
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
	if err := jobs.UpdateOne(Filter{"_id": "j1"}, Update{Set: Doc{"status": "DEPLOYING"}}); err != nil {
		t.Fatal(err)
	}
	if err := jobs.DeleteOne(Filter{"_id": "j1"}); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind   string
		status string
	}{
		{"insert", "PENDING"}, // backlog
		{"update", "DEPLOYING"},
		{"delete", ""},
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
			if w.status != "" {
				if got, _ := ev.Doc["status"].(string); got != w.status {
					t.Fatalf("event %d post-image status = %q, want %q", i, got, w.status)
				}
			} else if ev.Doc != nil {
				t.Fatalf("delete event carried a document: %+v", ev)
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
				if err := c.UpdateOne(Filter{"_id": id}, Update{Inc: map[string]float64{"n": 1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 400 {
		t.Fatalf("len = %d, want 400", c.Len())
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
			if c.Count(Filter{"v": target}) != want {
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
// oracle for every operator, nested paths, and missing fields.
func TestCompiledFilterMatchesInterpreted(t *testing.T) {
	docs := []Doc{
		{"_id": "a", "gpus": 2, "user": "u0", "status": Doc{"phase": "RUNNING", "retries": 2}},
		{"_id": "b", "gpus": 7, "user": "u1", "status": Doc{"phase": "FAILED"}},
		{"_id": "c", "user": "u0"},
		{"_id": "d", "gpus": "not-a-number"},
	}
	filters := []Filter{
		{"gpus": 2},
		{"gpus": Gt(1)},
		{"gpus": Gte(7)},
		{"gpus": Lt(3)},
		{"gpus": Lte(2)},
		{"gpus": Ne(7)},
		{"gpus": In(1, 2, 3)},
		{"gpus": Exists(true)},
		{"gpus": Exists(false)},
		{"status.phase": "RUNNING"},
		{"status.phase": Ne("FAILED")},
		{"status.retries": Gt(1), "user": "u0"},
		{"missing.deep.path": Exists(false)},
		{"gpus": Op{Kind: OpKind(99), Value: 1}}, // unknown operator
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
// directly: it re-splits every field path and re-dispatches every
// operator per call. It is the query engine's original matcher, kept
// here as the independent oracle for the compiled one (Filter.compile)
// and as the baseline of BenchmarkMongoFindCompiledFilter.
func interpretedMatch(f Filter, d Doc) bool {
	for path, cond := range f {
		got, present := lookupPath(d, path)
		op, isOp := cond.(Op)
		if !isOp {
			if !present || !equal(got, cond) {
				return false
			}
			continue
		}
		switch op.Kind {
		case OpExists:
			want, _ := op.Value.(bool)
			if present != want {
				return false
			}
		case OpEq:
			if !present || !equal(got, op.Value) {
				return false
			}
		case OpNe:
			if present && equal(got, op.Value) {
				return false
			}
		case OpIn:
			if !present {
				return false
			}
			found := false
			for _, v := range op.List {
				if equal(got, v) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		default:
			if !present {
				return false
			}
			c, ok := compare(got, op.Value)
			if !ok {
				return false
			}
			switch op.Kind {
			case OpGt:
				if c <= 0 {
					return false
				}
			case OpGte:
				if c < 0 {
					return false
				}
			case OpLt:
				if c >= 0 {
					return false
				}
			case OpLte:
				if c > 0 {
					return false
				}
			}
		}
	}
	return true
}
