package mongo

import (
	"fmt"
	"testing"
)

// seedJob inserts a job document with an n-entry status history.
func seedJob(b *testing.B, c *Collection, id string, n int) {
	b.Helper()
	hist := make([]any, n)
	for i := range hist {
		hist[i] = Doc{"status": "PROCESSING", "time": "t", "message": "m"}
	}
	if _, err := c.Insert(Doc{"_id": id, "status": "PROCESSING", "user": "alice", "history": hist}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMongoFindOneLongHistory measures the copy-on-write read
// path: fetching a job document dragging a 1000-entry history.
func BenchmarkMongoFindOneLongHistory(b *testing.B) {
	db := NewDB()
	c := db.C("jobs")
	seedJob(b, c, "j1", 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindOne(Filter{"_id": "j1"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMongoStatusAppend measures the status-transition write path
// (read + history push + oplog) on a long-history document.
func BenchmarkMongoStatusAppend(b *testing.B) {
	db := NewDB()
	c := db.C("jobs")
	seedJob(b, c, "j1", 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateOne(Filter{"_id": "j1"}, Update{
			Set:  Doc{"status": "PROCESSING"},
			Push: map[string]any{"history": Doc{"status": "PROCESSING", "i": i}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMongoFindSorted measures an indexed-equality query sorted by
// a field over many matches, the shape of a user's job listing.
func BenchmarkMongoFindSorted(b *testing.B) {
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("user")
	for i := 0; i < 1000; i++ {
		if _, err := c.Insert(Doc{
			"_id": fmt.Sprintf("j%04d", i), "user": "alice",
			"submitted": i, "history": make([]any, 32),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs := c.Find(Filter{"user": "alice"}, FindOpts{SortBy: "submitted"})
		if len(docs) != 1000 {
			b.Fatalf("got %d docs", len(docs))
		}
	}
}

// BenchmarkMongoFindCompiledFilter pins the win from compiling filters
// once per query: a multi-field equality filter with nested paths
// scanned over 1000 candidates, evaluated via the compiled form Find
// uses vs the interpreted per-candidate matcher it replaced
// (interpretedMatch, which re-splits every dotted path for every
// candidate).
func BenchmarkMongoFindCompiledFilter(b *testing.B) {
	db := NewDB()
	c := db.C("jobs")
	for i := 0; i < 1000; i++ {
		if _, err := c.Insert(Doc{
			"_id": fmt.Sprintf("j%04d", i), "user": fmt.Sprintf("u%d", i%4),
			"status": Doc{"phase": "RUNNING", "retries": i % 8},
			"gpus":   i % 16,
		}); err != nil {
			b.Fatal(err)
		}
	}
	f := Filter{"status.phase": "RUNNING", "status.retries": 5, "user": "u1"}
	b.Run("Find", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if docs := c.Find(f, FindOpts{}); len(docs) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	// Isolate matcher cost from clone/sort: run both matcher forms over
	// the stored documents directly.
	c.mu.RLock()
	docs := make([]Doc, 0, len(c.docs))
	for _, d := range c.docs {
		docs = append(docs, d)
	}
	c.mu.RUnlock()
	b.Run("MatchCompiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cf := f.compile() // once per query, amortized over the scan
			n := 0
			for _, d := range docs {
				if cf.matches(d) {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("MatchInterpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, d := range docs {
				if interpretedMatch(f, d) {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no matches")
			}
		}
	})
}
