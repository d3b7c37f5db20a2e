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

// BenchmarkMongoFindOneLongHistory measures the primary-key read
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
// _id over many matches, the shape of a user's job listing.
func BenchmarkMongoFindSorted(b *testing.B) {
	db := NewDB()
	c := db.C("jobs")
	c.EnsureIndex("user")
	for i := 0; i < 1000; i++ {
		if _, err := c.Insert(Doc{
			"_id": fmt.Sprintf("j%04d", i), "user": "alice",
			"history": make([]any, 32),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs := c.Find(Filter{"user": "alice"}, FindOpts{SortBy: "_id"})
		if len(docs) != 1000 {
			b.Fatalf("got %d docs", len(docs))
		}
	}
}
