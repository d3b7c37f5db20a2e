package tenant

import (
	"errors"
	"fmt"

	"github.com/ffdl/ffdl/internal/mongo"
	"github.com/ffdl/ffdl/internal/sched"
)

// Collection is the MongoDB collection tenant records live in. Like job
// documents (§3.2), quotas are persisted before they take effect, so a
// platform restart reconstructs the registry from the store.
const Collection = "tenants"

// Registry is the durable tenant store. Reads come from MongoDB; the
// API hands each quota write to its platform's dispatcher directly
// (Dispatcher.SetQuota), and the dispatcher's resync tick re-reads the
// collection, so a write committed through another process takes
// effect within one resync interval.
type Registry struct {
	coll *mongo.Collection
}

// NewRegistry opens (creating if needed) the tenants collection.
func NewRegistry(db *mongo.DB) *Registry {
	return &Registry{coll: db.C(Collection)}
}

// Put installs or updates a tenant record.
func (r *Registry) Put(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	return r.coll.Upsert(mongo.Filter{"_id": rec.User}, mongo.Update{
		Set: mongo.Doc{
			"user": rec.User,
			"tier": int(rec.Tier),
			"gpus": rec.GPUs,
		},
	})
}

// Lookup returns a tenant record, distinguishing "no such record"
// (ok=false, nil error) from a store failure (err != nil, e.g. the
// primary is mid-failover) so admission paths can shed retryably
// instead of issuing a false "no tenant record" verdict.
func (r *Registry) Lookup(user string) (Record, bool, error) {
	doc, err := r.coll.FindOne(mongo.Filter{"_id": user})
	if err != nil {
		if errors.Is(err, mongo.ErrNotFound) {
			return Record{}, false, nil
		}
		return Record{}, false, err
	}
	rec, ok := docToRecord(doc)
	return rec, ok, nil
}

// List returns all tenant records, user-sorted. A store outage is
// mongo.ErrUnavailable, never an empty list.
func (r *Registry) List() ([]Record, error) {
	// Find has no error return; nil, as opposed to empty, is how it says
	// the primary is unavailable.
	docs := r.coll.Find(mongo.Filter{}, mongo.FindOpts{SortBy: "_id"})
	if docs == nil {
		return nil, mongo.ErrUnavailable
	}
	out := make([]Record, 0, len(docs))
	for _, d := range docs {
		if rec, ok := docToRecord(d); ok {
			out = append(out, rec)
		}
	}
	return out, nil
}

// Seed installs every stored quota into an admission controller — the
// level-triggered re-read the dispatcher runs on each resync tick. An
// outage installs nothing; the next tick re-reads.
func (r *Registry) Seed(a *sched.Admission) {
	recs, _ := r.List()
	for _, rec := range recs {
		a.SetQuota(rec.Quota())
	}
}

// docToRecord decodes a tenant document.
func docToRecord(d mongo.Doc) (Record, bool) {
	rec := Record{}
	rec.User, _ = d["user"].(string)
	if rec.User == "" {
		rec.User, _ = d["_id"].(string)
	}
	if rec.User == "" {
		return rec, false
	}
	switch v := d["tier"].(type) {
	case int:
		rec.Tier = sched.Tier(v)
	case int64:
		rec.Tier = sched.Tier(v)
	case float64:
		rec.Tier = sched.Tier(int(v))
	}
	switch v := d["gpus"].(type) {
	case int:
		rec.GPUs = v
	case int64:
		rec.GPUs = int(v)
	case float64:
		rec.GPUs = int(v)
	}
	return rec, true
}

// String renders a record for logs and CLI output.
func (r Record) String() string {
	return fmt.Sprintf("%s tier=%s gpus=%d", r.User, TierName(r.Tier), r.GPUs)
}
