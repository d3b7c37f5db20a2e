package mongo

import (
	"errors"
	"testing"
	"time"
)

// TestSetUnavailableGatesOps pins the failover-window contract: erroring
// ops return ErrUnavailable, Find/Count return empty (level-triggered
// safe), and committed state is intact after heal.
func TestSetUnavailableGatesOps(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	if _, err := c.Insert(Doc{"_id": "j1", "state": "queued"}); err != nil {
		t.Fatal(err)
	}

	db.SetUnavailable(true)
	if _, err := c.Insert(Doc{"_id": "j2"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := c.FindOne(Filter{"_id": "j1"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("FindOne: %v", err)
	}
	if err := c.UpdateOne(Filter{"_id": "j1"}, Update{Set: Doc{"state": "x"}}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("UpdateOne: %v", err)
	}
	if err := c.Upsert(Filter{"_id": "j3"}, Update{Set: Doc{"v": 1}}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Upsert: %v", err)
	}
	if got := c.Find(Filter{}, FindOpts{}); len(got) != 0 {
		t.Fatalf("Find during outage returned %d docs, want 0", len(got))
	}
	if got := c.Count(Filter{}); got != 0 {
		t.Fatalf("Count during outage = %d, want 0", got)
	}

	db.SetUnavailable(false)
	d, err := c.FindOne(Filter{"_id": "j1"})
	if err != nil || d["state"] != "queued" {
		t.Fatalf("after heal: doc=%v err=%v — outage must not lose committed state", d, err)
	}
}

// TestDropFeedNextCommitsButSkipsFanout pins the dropped change-feed
// batch fault: the write commits (oplog + collection agree) but live
// subscribers see a Seq gap.
func TestDropFeedNextCommitsButSkipsFanout(t *testing.T) {
	db := NewDB()
	c := db.C("jobs")
	cs := db.Watch("jobs", 0)
	defer cs.Cancel()

	if _, err := c.Insert(Doc{"_id": "a"}); err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, cs)
	if ev.ID != "a" {
		t.Fatalf("first event %+v", ev)
	}

	db.DropFeedNext(1)
	if _, err := c.Insert(Doc{"_id": "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Doc{"_id": "c"}); err != nil {
		t.Fatal(err)
	}
	// "b" is committed but its event was dropped: the next delivery is
	// "c", with a visible Seq gap for the consumer to react to.
	ev2 := recvEvent(t, cs)
	if ev2.ID != "c" {
		t.Fatalf("post-drop event %+v, want c", ev2)
	}
	if ev2.Seq != ev.Seq+2 {
		t.Fatalf("seq gap not visible: %d -> %d", ev.Seq, ev2.Seq)
	}
	if _, err := c.FindOne(Filter{"_id": "b"}); err != nil {
		t.Fatalf("dropped-feed write must still be committed: %v", err)
	}
	if db.OplogLen() != ev2.Seq {
		t.Fatalf("oplog len %d, want %d", db.OplogLen(), ev2.Seq)
	}
}

func recvEvent(t *testing.T, cs *ChangeStream) ChangeEvent {
	t.Helper()
	select {
	case ev := <-cs.Events():
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for change event")
		return ChangeEvent{}
	}
}
