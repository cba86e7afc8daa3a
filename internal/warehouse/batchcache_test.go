package warehouse

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/space"
)

// baseRead answers `SELECT <rel>.A, <rel>.B FROM <rel>` at v. No view's
// extent holds every row of rel, so the query routes to base and runs a plan
// that scans the version's captured relation.
func baseRead(t *testing.T, v *Version, rel string) *relation.Relation {
	t.Helper()
	q := fmt.Sprintf("SELECT %[1]s.A, %[1]s.B FROM %[1]s", rel)
	rt, err := v.RouteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Kind != RouteBase {
		t.Fatalf("%s routed as %v, want a base route", q, rt.Kind)
	}
	res, err := v.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestVersionBatchCacheStable pins the columnar ingest cache on the serving
// path: a published version hands out one ColumnBatch per base relation,
// and repeat reads reuse it instead of re-converting the tuple storage.
// Scans rebind relations zero-copy, sharing the cache box, so pointer
// equality across reads is the observable contract.
func TestVersionBatchCacheStable(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	ctx := context.Background()

	b1 := v.Relation("R").Columns()
	if b1 == nil || b1.Rows() != 3 {
		t.Fatalf("batch = %v, want 3 rows", b1)
	}
	for i := 0; i < 3; i++ {
		if ext, err := v.Extent("V"); err != nil || ext.Card() != 2 {
			t.Fatalf("Extent(V) = %v, %v; want 2 rows", ext, err)
		}
		if res := baseRead(t, v, "R"); res.Card() != 3 {
			t.Fatalf("base read of R: %d rows, want 3", res.Card())
		}
	}
	if b2 := v.Relation("R").Columns(); b2 != b1 {
		t.Error("repeat reads re-ingested the column batch; want cached reuse")
	}
	// A plan's rebound scan shares the same cache box as the base relation,
	// so a query compiled afresh still reuses the batch.
	if _, err := v.Query(ctx, "SELECT R.B FROM R WHERE R.B < 25"); err != nil {
		t.Fatal(err)
	}
	if b3 := v.Relation("R").Columns(); b3 != b1 {
		t.Error("fresh plan execution re-ingested the column batch; want shared cache")
	}
}

// TestVersionBatchCacheInvalidatedByUpdate pins the update boundary:
// ApplyUpdate replaces touched base relations copy-on-write and publishes a
// new version. A previously acquired version keeps serving its captured
// relation — warm batch and all — while the next Acquire hands out a fresh
// relation whose batch reflects the new data.
func TestVersionBatchCacheInvalidatedByUpdate(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()

	before := v.Relation("R").Columns()
	baseRead(t, v, "R")
	if _, err := wh.ApplyUpdates(context.Background(), []maintain.Update{{
		Kind:  maintain.Insert,
		Rel:   "R",
		Tuple: relation.IntRows([]int64{4, 40})[0],
	}}); err != nil {
		t.Fatal(err)
	}
	// The old version's captured relation is untouched: same warm batch,
	// same pre-update rows.
	if b := v.Relation("R").Columns(); b != before || b.Rows() != 3 {
		t.Fatalf("old version's batch changed under an update (rows = %d)", b.Rows())
	}
	// The freshly acquired version carries the replacement relation with a
	// new columnar image, and its (empty) route cache plans against it.
	v2 := wh.Acquire()
	after := v2.Relation("R").Columns()
	if after == before {
		t.Fatal("new version shares the pre-update column batch")
	}
	if after.Rows() != 4 {
		t.Fatalf("batch rows = %d after insert, want 4", after.Rows())
	}
	ext, err := v2.Extent("V")
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 3 { // A > 1 now matches 2, 3, 4
		t.Fatalf("post-update extent card = %d, want 3", ext.Card())
	}
	if res := baseRead(t, v2, "R"); res.Card() != 4 {
		t.Fatalf("post-update base read card = %d, want 4", res.Card())
	}
	if b := v2.Relation("R").Columns(); b != after {
		t.Fatal("the base read re-ingested the new version's column batch")
	}
	// Deleting the tuple again replaces the relation once more; v2 keeps
	// its own snapshot.
	if _, err := wh.ApplyUpdates(context.Background(), []maintain.Update{{
		Kind:  maintain.Delete,
		Rel:   "R",
		Tuple: relation.IntRows([]int64{4, 40})[0],
	}}); err != nil {
		t.Fatal(err)
	}
	if b := wh.Acquire().Relation("R").Columns(); b == after || b.Rows() != 3 {
		t.Fatalf("delete did not produce a fresh batch (rows = %d)", b.Rows())
	}
	if b := v2.Relation("R").Columns(); b != after || b.Rows() != 4 {
		t.Fatalf("mid-stream version's batch changed under a delete (rows = %d)", b.Rows())
	}
}

// TestVersionBatchCacheAcrossVersions pins the new-version boundary: a
// capability change publishes a new version, untouched relations keep their
// warm batch (the cache box rides the shared relation object), and base
// relations the change removed disappear from the new version while the
// old version still serves its captured state.
func TestVersionBatchCacheAcrossVersions(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v1 := wh.Acquire()
	ctx := context.Background()
	baseRead(t, v1, "Rep")
	repBatch := v1.Relation("Rep").Columns()

	if _, err := wh.ApplyChange(ctx, space.Change{Kind: space.DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	v2 := wh.Acquire()
	if v2.Seq() <= v1.Seq() {
		t.Fatalf("no new version published: seq %d -> %d", v1.Seq(), v2.Seq())
	}
	if v2.Relation("R") != nil {
		t.Error("deleted relation still visible in the new version")
	}
	// Rep was untouched by the change: the new version shares the relation
	// object and therefore its warm columnar image — no re-ingest on the
	// version boundary.
	if got := v2.Relation("Rep").Columns(); got != repBatch {
		t.Error("untouched relation lost its cached batch across versions")
	}
	// The adopted view's extent is served, and a base read of Rep on the
	// new version runs over the cached batch.
	ext, err := v2.Extent("V")
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 {
		t.Fatalf("adopted view card = %d, want 2", ext.Card())
	}
	if res := baseRead(t, v2, "Rep"); res.Card() != 3 {
		t.Fatalf("base read of Rep: %d rows, want 3", res.Card())
	}
	if got := v2.Relation("Rep").Columns(); got != repBatch {
		t.Error("the base read re-ingested the shared relation's batch")
	}
	// A data update replaces Rep copy-on-write: both previously acquired
	// versions keep their captured 3-row relation (v2 even keeps the warm
	// batch), and only the next Acquire sees the 4-row replacement.
	if _, err := wh.ApplyUpdates(context.Background(), []maintain.Update{{
		Kind:  maintain.Insert,
		Rel:   "Rep",
		Tuple: relation.IntRows([]int64{5, 50})[0],
	}}); err != nil {
		t.Fatal(err)
	}
	if got := v2.Relation("Rep").Columns(); got != repBatch || got.Rows() != 3 {
		t.Fatalf("captured version's batch changed under an update (rows = %d)", got.Rows())
	}
	if got := v1.Relation("Rep").Columns(); got.Rows() != 3 {
		t.Fatalf("old version sees %d rows, want its captured 3 (updates are copy-on-write)", got.Rows())
	}
	if got := wh.Acquire().Relation("Rep").Columns(); got == repBatch || got.Rows() != 4 {
		t.Fatalf("post-update version batch rows = %d, want 4 on a fresh relation", got.Rows())
	}
}
