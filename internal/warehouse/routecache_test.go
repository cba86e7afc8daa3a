package warehouse

import (
	"context"
	"testing"

	"repro/internal/esql"
	"repro/internal/maintain"
	"repro/internal/relation"
)

// TestRouteCacheInvalidatedByUpdate pins the invalidation contract of the
// route cache: ApplyUpdate republishes a new Version WITHOUT bumping the
// view epoch, and because the cache lives on the Version object (not the
// epoch), the republication drops it.
// A route priced and resolved against pre-update state must never be served
// by the post-update version.
func TestRouteCacheInvalidatedByUpdate(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const sql = "SELECT A, B FROM R WHERE A > 1"

	v1 := wh.Acquire()
	r1, err := v1.RouteQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kind != RouteViewExtent {
		t.Fatalf("route = %v, want view-extent", r1.Kind)
	}
	res1, err := r1.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Card() != 2 {
		t.Fatalf("pre-update card = %d, want 2", res1.Card())
	}

	if _, err := wh.ApplyUpdates(context.Background(), []maintain.Update{{
		Kind:  maintain.Insert,
		Rel:   "R",
		Tuple: relation.IntRows([]int64{4, 40})[0],
	}}); err != nil {
		t.Fatal(err)
	}

	v2 := wh.Acquire()
	// The epoch is unchanged (no registry change) while the sequence moved:
	// exactly the case where epoch-keyed caches would serve stale answers.
	if v2.Seq() <= v1.Seq() {
		t.Fatalf("ApplyUpdate did not republish: seq %d -> %d", v1.Seq(), v2.Seq())
	}
	if v2.Epoch() != v1.Epoch() {
		t.Fatalf("epoch moved %d -> %d on a data update; cache scoping assumption broken", v1.Epoch(), v2.Epoch())
	}

	r2, err := v2.RouteQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1 {
		t.Fatal("post-update version served the pre-update cached route")
	}
	res2, err := r2.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Card() != 3 {
		t.Fatalf("post-update routed card = %d, want 3", res2.Card())
	}
	ext, err := v2.Extent("V")
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 3 {
		t.Fatalf("post-update extent card = %d, want 3", ext.Card())
	}
	routeParity(t, wh, esql.MustParseQuery(sql), res2)
	// Maintenance folds the delta into a fresh copy-on-write extent, so the
	// stale route object keeps serving the snapshot it captured — freshness
	// comes from acquiring the new version, never from shared mutation.
	if again, err := r1.Execute(ctx); err != nil || again.Card() != 2 {
		t.Fatalf("stale route re-read = %v, %v; want its captured card 2", again, err)
	}
}
