package scenario

import (
	"slices"
	"testing"

	"repro/internal/maintain"
	"repro/internal/relation"
)

// TestUpdateChurnDeterministic: equal params must yield identical mixed
// histories, updates included.
func TestUpdateChurnDeterministic(t *testing.T) {
	p := DefaultUpdateChurnParams()
	a, err := UpdateChurn(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UpdateChurn(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) || len(a.Events) != p.Churn.Changes+p.Batches {
		t.Fatalf("event counts %d/%d, want %d", len(a.Events), len(b.Events), p.Churn.Changes+p.Batches)
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		switch {
		case ea.Change != nil:
			if eb.Change == nil || *ea.Change != *eb.Change {
				t.Fatalf("event %d diverged: %v vs %v", i, ea, eb)
			}
		default:
			if len(ea.Updates) != len(eb.Updates) {
				t.Fatalf("event %d batch sizes diverged", i)
			}
			for j := range ea.Updates {
				ua, ub := ea.Updates[j], eb.Updates[j]
				if ua.Kind != ub.Kind || ua.Rel != ub.Rel || !slices.EqualFunc(ua.Tuple, ub.Tuple, relation.ValueKeyEqual) {
					t.Fatalf("event %d update diverged: %v vs %v", i, ua, ub)
				}
			}
		}
	}
}

// TestUpdateChurnHistoryValid replays a mixed history directly against a
// populated space: every capability change applies at its position, every
// insert is genuinely fresh, and every delete hits a present tuple with
// the relation's current arity — the contract warehouse-level replays
// (ApplyChange / ApplyUpdates) rely on.
func TestUpdateChurnHistoryValid(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		p := DefaultUpdateChurnParams()
		p.Churn.Seed = seed
		h, err := UpdateChurn(p)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := h.BuildSpace()
		if err != nil {
			t.Fatal(err)
		}
		if err := Populate(sp, 20); err != nil {
			t.Fatal(err)
		}
		inserts, deletes := 0, 0
		for i, ev := range h.Events {
			if ev.Change != nil {
				if err := sp.ApplyChange(*ev.Change); err != nil {
					t.Fatalf("seed %d: event %d (%s) invalid: %v", seed, i, ev.Change, err)
				}
				continue
			}
			if len(ev.Updates) != p.BatchSize {
				t.Fatalf("seed %d: event %d batch size = %d, want %d", seed, i, len(ev.Updates), p.BatchSize)
			}
			for _, u := range ev.Updates {
				var err error
				rel := sp.Relation(u.Rel)
				if rel == nil {
					t.Fatalf("seed %d: event %d updates dropped relation %s", seed, i, u.Rel)
				}
				if len(u.Tuple) != rel.Schema().Len() {
					t.Fatalf("seed %d: event %d: %s tuple arity %d != schema %d",
						seed, i, u.Rel, len(u.Tuple), rel.Schema().Len())
				}
				switch u.Kind {
				case maintain.Insert:
					if rel.Contains(u.Tuple) {
						t.Fatalf("seed %d: event %d: stale insert into %s", seed, i, u.Rel)
					}
					rel, err = rel.WithDelta([]relation.Tuple{u.Tuple}, nil)
					inserts++
				case maintain.Delete:
					if !rel.Contains(u.Tuple) {
						t.Fatalf("seed %d: event %d: delete of absent tuple from %s", seed, i, u.Rel)
					}
					rel, err = rel.WithDelta(nil, []relation.Tuple{u.Tuple})
					if err == nil && rel.Contains(u.Tuple) {
						t.Fatalf("seed %d: event %d: delete from %s did not remove", seed, i, u.Rel)
					}
					deletes++
				}
				if err == nil {
					err = sp.ReplaceRelation(u.Rel, rel)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if inserts == 0 || deletes == 0 {
			t.Errorf("seed %d: degenerate mix — %d inserts, %d deletes", seed, inserts, deletes)
		}
	}
}
