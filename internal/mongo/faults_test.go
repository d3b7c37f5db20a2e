package mongo

import (
	"errors"
	"testing"
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
