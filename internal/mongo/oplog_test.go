package mongo

import (
	"fmt"
	"testing"
	"time"

	"github.com/ffdl/ffdl/internal/commitlog"
)

// drainOne reads one change event or fails the test.
func drainOne(t *testing.T, cs *ChangeStream) ChangeEvent {
	t.Helper()
	select {
	case ev, ok := <-cs.Events():
		if !ok {
			t.Fatal("change stream closed")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for change event")
	}
	panic("unreachable")
}

// TestWatchResumeBelowRetainedFloorSignalsResync pins the oplog
// truncation hazard: a consumer resuming from a token that predates the
// retained oplog floor must receive an explicit "resync" event as its
// FIRST delivery — never a silent Seq gap — and everything after the
// marker must be the contiguous retained history.
//
// (Before the commit-log port, the oplog dropped its older half in
// place once it exceeded 64k entries: a stale resume just started at
// the new floor and the consumer had no way to tell a trimmed history
// from a quiet one.)
func TestWatchResumeBelowRetainedFloorSignalsResync(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	// Push the oplog well past its retention bound so the floor rises.
	const writes = 70_000
	for i := 0; i < writes; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%d", i), "n": i}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if floor := db.oplog.OldestOffset(); floor <= 1 {
		t.Fatalf("retention never trimmed: floor %d after %d writes", floor, writes)
	}

	cs := db.Watch("", 1) // token 1 predates the retained floor
	defer cs.Cancel()

	first := drainOne(t, cs)
	if first.Kind != "resync" {
		t.Fatalf("first event after stale resume: Kind %q Seq %d, want explicit resync marker",
			first.Kind, first.Seq)
	}
	if first.Seq <= 1 {
		t.Fatalf("resync marker Seq %d does not advance the consumer past its stale token", first.Seq)
	}
	// After the marker the retained history replays contiguously: the
	// only Seq discontinuity a consumer can ever see is the one the
	// marker announces.
	prev := first.Seq
	for i := 0; i < 100; i++ {
		ev := drainOne(t, cs)
		if ev.Seq != prev+1 {
			t.Fatalf("silent gap after resync marker: Seq %d follows %d", ev.Seq, prev)
		}
		prev = ev.Seq
	}
}

// TestWatchReplayWithinRetentionIsGapless pins the other half of the
// contract: a resume token still within the retained oplog replays
// every retained write in order with contiguous Seqs — a slow change
// stream replays, it does not silently gap.
func TestWatchReplayWithinRetentionIsGapless(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	const writes = 500
	for i := 0; i < writes; i++ {
		if _, err := c.Insert(Doc{"_id": fmt.Sprintf("j%d", i), "n": i}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	const from = 200
	cs := db.Watch("", from)
	defer cs.Cancel()
	prev := uint64(from)
	for i := 0; i < writes-from; i++ {
		ev := drainOne(t, cs)
		if ev.Kind == "resync" {
			t.Fatalf("resync signaled for in-retention resume from %d", from)
		}
		if ev.Seq != prev+1 {
			t.Fatalf("replay gap: Seq %d follows %d", ev.Seq, prev)
		}
		prev = ev.Seq
	}
}

// drainContiguous reads events until Seq last, failing on any event
// that does not follow its predecessor by exactly one.
func drainContiguous(t *testing.T, cs *ChangeStream, prev, last uint64) {
	t.Helper()
	for prev < last {
		ev := drainOne(t, cs)
		if ev.Kind == "resync" || ev.Seq != prev+1 {
			t.Fatalf("silent gap: %s Seq %d follows %d", ev.Kind, ev.Seq, prev)
		}
		prev = ev.Seq
	}
}

// TestCompactionHolesNeverReplaySilently pins the floor of a compacting
// oplog: key-compaction leaves holes where superseded ops were, so the
// floor is the first Seq of the contiguous retained tail, and a resume
// below it gets a resync marker, never a replay that skips the holes.
// The floor survives a reopen unchanged.
func TestCompactionHolesNeverReplaySilently(t *testing.T) {
	store := commitlog.NewMemStore()
	db, err := Open(store, Options{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "doc", "n": 0}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3000; i++ {
		if err := c.UpdateOne(Filter{"_id": "doc"}, Update{Set: Doc{"n": i}}); err != nil {
			t.Fatal(err)
		}
	}
	last := db.OplogLen()
	floor := db.oplog.OldestOffset()
	if floor <= 1 {
		t.Fatalf("floor %d after compaction dropped superseded ops", floor)
	}

	stale := db.Watch("", 1)
	defer stale.Cancel()
	first := drainOne(t, stale)
	if first.Kind != "resync" {
		t.Fatalf("first event after a resume into compaction holes: %s Seq %d, want resync", first.Kind, first.Seq)
	}
	drainContiguous(t, stale, first.Seq, last)

	fresh := db.Watch("", floor-1)
	defer fresh.Cancel()
	drainContiguous(t, fresh, floor-1, last)

	db2, err := Open(store, Options{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.oplog.OldestOffset(); got != floor {
		t.Fatalf("reopened floor %d, live floor %d", got, floor)
	}
}
