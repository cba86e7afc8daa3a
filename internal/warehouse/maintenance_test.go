package warehouse

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/space"
)

// deceaseRecorder records the views OnDecease reports.
type deceaseRecorder struct {
	NopObserver
	mu    sync.Mutex
	views []string
}

func (r *deceaseRecorder) OnDecease(view string, _ space.Change) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.views = append(r.views, view)
}

// assertMaintained checks every named view's published extent, and the
// extent its maintainer holds, against a full recomputation over the current
// space.
func assertMaintained(t *testing.T, wh *Warehouse, names ...string) {
	t.Helper()
	ver := wh.Acquire()
	for _, name := range names {
		pub, err := ver.Extent(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := exec.Evaluate(context.Background(), ver.View(name).Def, wh.Space)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range []*relation.Relation{wh.maintainers[name].Extent, pub} {
			if ext.Card() != fresh.Card() || exec.RowChecksum(ext) != exec.RowChecksum(fresh) {
				t.Errorf("view %s: extent (card %d) diverges from recomputation (card %d)", name, ext.Card(), fresh.Card())
			}
		}
	}
}

// TestFailedMaintenanceDeceasesView: a view whose maintenance fails after
// the base landed deceases — History note, OnDecease — while the views
// registered after it are still maintained, the batch publishes, and the
// error names the view. Returning on the first failure would leave every
// later view stale against the landed base, and the next publication would
// serve that state.
func TestFailedMaintenanceDeceasesView(t *testing.T) {
	ctx := context.Background()
	obs := &deceaseRecorder{}
	cfg := DefaultConfig()
	cfg.Observer = obs
	wh := New(replicaSpace(t), cfg)
	if _, err := wh.DefineView(ctx, `CREATE VIEW B AS SELECT R.A, R.B FROM R`); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{replicaView, `CREATE VIEW W AS SELECT R.B FROM R WHERE R.A < 5`} {
		if _, err := wh.DefineView(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	// Point B's maintainer at a column R does not have: its every batch fails.
	mt := wh.maintainers["B"]
	def := mt.View.Clone()
	def.Select[1].Attr.Attr = "Missing"
	mt.View = def

	seq := wh.Acquire().Seq()
	_, err := wh.ApplyUpdates(ctx, []maintain.Update{
		{Kind: maintain.Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(4), relation.Int(40)}},
		{Kind: maintain.Delete, Rel: "R", Tuple: relation.Tuple{relation.Int(2), relation.Int(20)}},
	})
	if err == nil || !strings.Contains(err.Error(), `view "B"`) {
		t.Fatalf("ApplyUpdates error = %v, want one naming view \"B\"", err)
	}
	if got := wh.Acquire().Seq(); got != seq+1 {
		t.Errorf("Seq = %d after the batch, want %d: the landed base was not published", got, seq+1)
	}
	broken := wh.Acquire().View("B")
	if !broken.Deceased || len(broken.History) == 0 || !strings.Contains(broken.History[len(broken.History)-1], "view deceased") {
		t.Errorf("B: Deceased = %v, History = %q; want deceased with a History note", broken.Deceased, broken.History)
	}
	if !slices.Equal(obs.views, []string{"B"}) {
		t.Errorf("OnDecease fired for %v, want [B]", obs.views)
	}
	if got := wh.Acquire().ViewNames(); !slices.Equal(got, []string{"V", "W"}) {
		t.Errorf("live views = %v, want [V W]", got)
	}
	if _, err := wh.Acquire().Extent("B"); !errors.Is(err, ErrViewDeceased) {
		t.Errorf("published B: err = %v, want ErrViewDeceased", err)
	}
	assertMaintained(t, wh, "V", "W")
	if wh.Space.Relation("R").Card() != 3 {
		t.Errorf("R card = %d, want 3: the base did not land", wh.Space.Relation("R").Card())
	}
	// The survivors keep being maintained.
	if _, err := wh.ApplyUpdates(ctx, []maintain.Update{
		{Kind: maintain.Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(2), relation.Int(21)}},
	}); err != nil {
		t.Fatal(err)
	}
	assertMaintained(t, wh, "V", "W")
}

// TestMaintainerOutlivesSchema: attribute changes a view does not reference
// change a read relation's schema without adopting anything, so the view's
// maintainer outlives the schema it was built over. A mixed batch after
// them must still maintain the view exactly.
func TestMaintainerOutlivesSchema(t *testing.T) {
	ctx := context.Background()
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B", "C"),
		relation.IntRows([]int64{1, 10, 100}, []int64{2, 20, 200}, []int64{3, 30, 300}, []int64{3, 31, 301})...)
	s := relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "D"),
		relation.IntRows([]int64{1, 5}, []int64{3, 7}, []int64{3, 8})...)
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", s); err != nil {
		t.Fatal(err)
	}
	wh := New(sp, DefaultConfig())
	if _, err := wh.DefineView(ctx, `CREATE VIEW J AS SELECT R.B, S.D FROM R, S WHERE R.A = S.A AND R.B > 10`); err != nil {
		t.Fatal(err)
	}
	m := wh.maintainers["J"]
	for _, c := range []space.Change{
		{Kind: space.AddAttribute, Rel: "R", Attr: "E", AttrType: relation.TypeInt},
		{Kind: space.DeleteAttribute, Rel: "R", Attr: "C"},
		{Kind: space.RenameAttribute, Rel: "R", Attr: "E", NewName: "F"},
	} {
		if _, err := wh.ApplyChange(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	if wh.maintainers["J"] != m || wh.Acquire().View("J").Deceased {
		t.Fatal("an unreferenced attribute change replaced the view's maintainer")
	}
	if got := strings.Join(wh.Space.Relation("R").Schema().Names(), ","); got != "A,B,F" {
		t.Fatalf("R's schema = %s, want A,B,F", got)
	}
	if _, err := wh.ApplyUpdates(ctx, []maintain.Update{
		{Kind: maintain.Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(1), relation.Int(11), relation.Int(9)}},
		{Kind: maintain.Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(3), relation.Int(32), {}}},
		{Kind: maintain.Delete, Rel: "R", Tuple: relation.Tuple{relation.Int(3), relation.Int(30), {}}},
		{Kind: maintain.Insert, Rel: "S", Tuple: relation.Tuple{relation.Int(2), relation.Int(6)}},
		{Kind: maintain.Delete, Rel: "S", Tuple: relation.Tuple{relation.Int(3), relation.Int(8)}},
	}); err != nil {
		t.Fatal(err)
	}
	assertMaintained(t, wh, "J")
	if ext, _ := wh.Acquire().Extent("J"); ext.Card() != 4 { // (11,5) (20,6) (31,7) (32,7)
		t.Errorf("J = %s, want 4 rows", ext)
	}
}
