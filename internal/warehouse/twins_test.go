package warehouse

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/scenario"
)

// TestTwinsShareOneMaterialization replays a churn history of one family of
// five twin views until changes have adopted through shared searches, and
// checks what sharing the materialization must and must not change: twins
// that adopted through one search hold extents over one column batch, each
// under its own name; the observer still sees one PhaseAdopt per adoption;
// and a data update on a relation the twins read brings every twin to
// base-only evaluation without touching the extents the pre-update Version
// serves.
func TestTwinsShareOneMaterialization(t *testing.T) {
	p := scenario.DefaultChurnParams()
	p.Families, p.TwinsPerFamily, p.Changes = 1, 5, 120
	h, err := scenario.Churn(p)
	if err != nil {
		t.Fatal(err)
	}
	metrics := &MetricsObserver{}
	w := replayWarehouse(t, h, 0, false, metrics)
	shared := 0
	for _, c := range h.Changes {
		rows, err := w.ApplyChange(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var twins []*VersionView
		for _, r := range rows {
			if r.Chosen != nil {
				twins = append(twins, w.Acquire().View(r.ViewName))
			}
		}
		if len(twins) < 2 {
			continue
		}
		shared++
		batch := twins[0].Extent.CachedColumns()
		for _, v := range twins {
			if v.Extent.Name != v.Def.Name || v.Def.Signature() != twins[0].Def.Signature() {
				t.Fatalf("%s: view %s adopted %q as extent %q", c, v.Def.Name, v.Def.Signature(), v.Extent.Name)
			}
			if got := v.Extent.CachedColumns(); got == nil || got != batch {
				t.Fatalf("%s: twins %s and %s hold separate materializations", c, twins[0].Def.Name, v.Def.Name)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no change adopted through a shared search")
	}
	if a, n := metrics.Adopts(), metrics.PhaseCount(PhaseAdopt); a == 0 || a != n {
		t.Fatalf("%d adoptions, %d PhaseAdopt observations", a, n)
	}
	checkExtents(t, "after the history", w)

	// An update on the relation the surviving twins read.
	pre := w.Acquire()
	live := pre.Views()
	rel := live[0].Def.From[0].Rel
	row := make(relation.Tuple, w.Space.Relation(rel).Schema().Len())
	for i := range row {
		row[i] = relation.Int(int64(9000 + i))
	}
	before := map[string]uint64{}
	for _, v := range live {
		ext, err := pre.Extent(v.Def.Name)
		if err != nil {
			t.Fatal(err)
		}
		before[v.Def.Name] = exec.RowChecksum(ext)
	}
	if _, err := w.ApplyUpdates(context.Background(), []maintain.Update{{Kind: maintain.Insert, Rel: rel, Tuple: row}}); err != nil {
		t.Fatal(err)
	}
	checkExtents(t, "after the update", w)
	moved := 0
	post := w.Acquire()
	for _, v := range live {
		ext, _ := pre.Extent(v.Def.Name)
		if exec.RowChecksum(ext) != before[v.Def.Name] {
			t.Fatalf("the pre-update Version's extent of %s changed", v.Def.Name)
		}
		if ext, _ := post.Extent(v.Def.Name); exec.RowChecksum(ext) != before[v.Def.Name] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("the insert into %s moved no view's extent", rel)
	}
}
