package warehouse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
)

// replicaSpace: IS1 holds R(A,B), IS2 holds Rep(A,B) with Rep ≡ π(R).
func replicaSpace(t testing.TB) *space.Space {
	t.Helper()
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})...)
	rep := relation.MustFromRows("Rep", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})...)
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", rep); err != nil {
		t.Fatal(err)
	}
	if err := sp.MKB().AddPCConstraint(misd.PCConstraint{
		Left:  misd.Fragment{Rel: misd.RelRef{Rel: "R"}, Attrs: []string{"A", "B"}},
		Right: misd.Fragment{Rel: misd.RelRef{Rel: "Rep"}, Attrs: []string{"A", "B"}},
		Rel:   misd.Equal,
	}); err != nil {
		t.Fatal(err)
	}
	return sp
}

const replicaView = `
CREATE VIEW V (VE = ~) AS
SELECT R.A (AR = true), R.B (AD = true, AR = true)
FROM R (RR = true)
WHERE (R.A > 1) (CR = true)
`

func TestDefineViewMaterializes(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	v, err := wh.DefineView(context.Background(), replicaView)
	if err != nil {
		t.Fatal(err)
	}
	if v.Extent.Card() != 2 {
		t.Errorf("extent = %d, want 2", v.Extent.Card())
	}
	if ver := wh.Acquire(); ver.View("V") != v || ver.View("Z") != nil {
		t.Error("view registry wrong")
	}
	if got := wh.Acquire().ViewNames(); len(got) != 1 || got[0] != "V" {
		t.Errorf("ViewNames = %v", got)
	}
	if _, err := wh.DefineView(context.Background(), replicaView); err == nil {
		t.Error("duplicate view name should fail")
	}
	if _, err := wh.DefineView(context.Background(), "garbage"); err == nil {
		t.Error("unparseable view should fail")
	}
}

func TestApplyChangeSubstitutes(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	results, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Deceased || results[0].Chosen == nil {
		t.Fatalf("results = %+v", results)
	}
	v := wh.Acquire().View("V")
	if v.Deceased {
		t.Fatal("view should have survived")
	}
	if v.Def.From[0].Rel != "Rep" {
		t.Errorf("adopted FROM = %+v", v.Def.From)
	}
	if v.Extent.Card() != 2 {
		t.Errorf("re-materialized extent = %d, want 2", v.Extent.Card())
	}
	// The quality model should see the replica as fully preserving:
	// DD == 0 (equal PC constraint, interface intact).
	if got := results[0].Chosen.DD; got != 0 {
		t.Errorf("DD = %g, want 0 for an exact replica", got)
	}
	if len(v.History) != 1 || !strings.Contains(v.History[0], "Rep") {
		t.Errorf("history = %v", v.History)
	}
}

func TestApplyChangeDeceases(t *testing.T) {
	sp := replicaSpace(t)
	wh := New(sp, DefaultConfig())
	// Non-replaceable relation: no rewriting can exist.
	if _, err := wh.DefineView(context.Background(), `CREATE VIEW V AS SELECT R.A FROM R`); err != nil {
		t.Fatal(err)
	}
	results, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Deceased || !wh.Acquire().View("V").Deceased {
		t.Fatal("view should be deceased")
	}
	if got := wh.Acquire().ViewNames(); len(got) != 0 {
		t.Errorf("published live views = %v", got)
	}
	// Further changes skip deceased views.
	results, err = wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "Rep"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("deceased view still synchronized: %+v", results)
	}
}

func TestApplyChangeUnaffected(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	results, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "Rep"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Ranking != nil || results[0].Deceased {
		t.Errorf("unaffected view synchronized: %+v", results[0])
	}
}

func TestApplyUpdateRoutesThroughMaintenance(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	metrics, err := wh.ApplyUpdates(context.Background(), []maintain.Update{{
		Kind: maintain.Insert, Rel: "R",
		Tuple: relation.Tuple{relation.Int(7), relation.Int(70)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ext, _ := wh.Acquire().Extent("V"); ext.Card() != 3 {
		t.Errorf("extent after insert = %d, want 3", ext.Card())
	}
	if metrics.Messages == 0 {
		t.Error("no metrics collected")
	}
	// Updates with no registered views still mutate the base data.
	wh2 := New(replicaSpace(t), DefaultConfig())
	if _, err := wh2.ApplyUpdates(context.Background(), []maintain.Update{{
		Kind: maintain.Insert, Rel: "R",
		Tuple: relation.Tuple{relation.Int(9), relation.Int(90)},
	}}); err != nil {
		t.Fatal(err)
	}
	if wh2.Space.Relation("R").Card() != 4 {
		t.Error("viewless update not applied")
	}
}

// TestApplyUpdatesMaintainsEveryLiveView is the regression test for the
// multi-view maintenance bug: the old per-view Apply loop let the first
// maintainer land the base change, so every later maintainer saw the
// update as a no-op (its containment re-check short-circuited) and kept a
// stale extent. With the base applied once and the delta folded per view,
// both extents must match a full recompute after inserts and deletes.
func TestApplyUpdatesMaintainsEveryLiveView(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.DefineView(context.Background(), `CREATE VIEW W AS SELECT R.B FROM R`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	total, err := wh.ApplyUpdates(ctx, []maintain.Update{
		{Kind: maintain.Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(4), relation.Int(40)}},
		{Kind: maintain.Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(5), relation.Int(50)}},
		{Kind: maintain.Delete, Rel: "R", Tuple: relation.Tuple{relation.Int(2), relation.Int(20)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ver := wh.Acquire()
	for _, v := range ver.Views() {
		fresh, err := exec.Evaluate(ctx, v.Def, wh.Space)
		if err != nil {
			t.Fatal(err)
		}
		if v.Extent.Card() != fresh.Card() ||
			exec.RowChecksum(v.Extent) != exec.RowChecksum(fresh) {
			t.Errorf("view %s extent (card %d) diverges from full recompute (card %d)",
				v.Def.Name, v.Extent.Card(), fresh.Card())
		}
	}
	if second := ver.View("W"); second.Extent.Card() != 4 { // 3 rows + 2 inserts - 1 delete
		t.Errorf("second view card = %d, want 4 — stale extent, delta not folded", second.Extent.Card())
	}
	// Both views live at the warehouse and R is each view's only relation,
	// so the only messages are the update notifications — one per source
	// update, no matter how many views consume the delta. The old loop
	// charged the notification once per view.
	if total.Messages != 3 {
		t.Errorf("messages = %d, want 3 (one notification per update, charged once)", total.Messages)
	}
	// The published version serves the extents the maintainers hold.
	for _, name := range []string{"V", "W"} {
		ext, err := ver.Extent(name)
		if err != nil {
			t.Fatal(err)
		}
		if ext != wh.maintainers[name].Extent {
			t.Errorf("published extent of %s is not its maintainer's", name)
		}
	}
}

func TestScenarioForPlacement(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	v, err := wh.DefineView(context.Background(), `CREATE VIEW V2 AS SELECT R.A, Rep.B FROM R, Rep WHERE R.A = Rep.A`)
	if err != nil {
		t.Fatal(err)
	}
	u := wh.ScenarioFor(v.Def, nil)
	if u.NumSites() != 2 {
		t.Fatalf("sites = %d, want 2", u.NumSites())
	}
	if u.N1() != 0 {
		t.Errorf("n1 = %d, want 0 (R alone at IS1)", u.N1())
	}
	if len(u.Sites[1].Relations) != 1 || u.Sites[1].Relations[0].Card != 3 {
		t.Errorf("site 2 = %+v", u.Sites[1])
	}
}

// TestMultiViewSynchronization: one capability change hits two registered
// views with different evolution parameters — one survives by substitution,
// the other deceases — while a third, unrelated view stays untouched.
func TestMultiViewSynchronization(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil { // replaceable → survives
		t.Fatal(err)
	}
	if _, err := wh.DefineView(context.Background(), `CREATE VIEW Rigid AS SELECT R.B FROM R`); err != nil { // dies
		t.Fatal(err)
	}
	bystander, err := wh.DefineView(context.Background(), `CREATE VIEW Bystander AS SELECT Rep.A FROM Rep`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]SyncResult{}
	for _, r := range results {
		byName[r.ViewName] = r
	}
	ver := wh.Acquire()
	if byName["V"].Deceased || ver.View("V").Deceased {
		t.Error("flexible view should survive")
	}
	if !byName["Rigid"].Deceased || !ver.View("Rigid").Deceased {
		t.Error("rigid view should decease")
	}
	if byName["Bystander"].Ranking != nil || ver.View("Bystander") != bystander {
		t.Error("bystander view should be untouched")
	}
	if got := wh.Acquire().ViewNames(); len(got) != 2 {
		t.Errorf("published live views = %v", got)
	}
}

// TestViewNamesPrunesDeceased is the regression test for the published
// registry's live list: a view dying mid-sequence must disappear from
// ViewNames and Views, which keep registration order, while View keeps the
// corpse reachable for its History.
func TestViewNamesPrunesDeceased(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil { // "V", survives
		t.Fatal(err)
	}
	if _, err := wh.DefineView(context.Background(), `CREATE VIEW Rigid AS SELECT R.B FROM R`); err != nil { // dies
		t.Fatal(err)
	}
	if _, err := wh.DefineView(context.Background(), `CREATE VIEW Bystander AS SELECT Rep.A FROM Rep`); err != nil {
		t.Fatal(err)
	}
	if got := wh.Acquire().ViewNames(); len(got) != 3 {
		t.Fatalf("ViewNames before change = %v", got)
	}
	if _, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	ver := wh.Acquire()
	names := ver.ViewNames()
	if len(names) != 2 || names[0] != "V" || names[1] != "Bystander" {
		t.Errorf("ViewNames after decease = %v, want [V Bystander] in registration order", names)
	}
	live := ver.Views()
	if len(live) != len(names) {
		t.Fatalf("published live views %d inconsistent with ViewNames %v", len(live), names)
	}
	for i, v := range live {
		if v.Deceased || v.Name != names[i] {
			t.Errorf("Views()[%d] = %s (deceased=%v), ViewNames %v", i, v.Name, v.Deceased, names)
		}
	}
	corpse := ver.View("Rigid")
	if corpse == nil || !corpse.Deceased || len(corpse.History) == 0 {
		t.Errorf("deceased view should stay reachable with its history, got %+v", corpse)
	}
}

// TestEndToEndExp1Lifecycle drives the full Experiment 1 walk through the
// public warehouse API.
func TestEndToEndExp1Lifecycle(t *testing.T) {
	sp, err := scenario.Exp1Space(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tradeoff.RhoAttr, cfg.Tradeoff.RhoExt = 1, 0
	cfg.Tradeoff.RhoQuality, cfg.Tradeoff.RhoCost = 1, 0
	wh := New(sp, cfg)
	v, err := wh.RegisterView(context.Background(), scenario.Exp1View())
	if err != nil {
		t.Fatal(err)
	}
	name := v.Name
	// Change 1: delete R.A → with default w1 > w2 the replica S or T wins.
	if _, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteAttribute, Rel: "R", Attr: "A"}); err != nil {
		t.Fatal(err)
	}
	v = wh.Acquire().View(name)
	if v.Deceased {
		t.Fatal("view died prematurely")
	}
	first := v.Def.From[0].Rel
	if first != "S" && first != "T" {
		t.Fatalf("w1>w2 should pick a replica, got %q", first)
	}
	// Change 2: delete the adopted replica → the other replica salvages.
	if _, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: first}); err != nil {
		t.Fatal(err)
	}
	v = wh.Acquire().View(name)
	if v.Deceased {
		t.Fatal("view should have switched to the second replica")
	}
	second := v.Def.From[0].Rel
	if second == first || (second != "S" && second != "T") {
		t.Fatalf("unexpected second replica %q", second)
	}
	// Change 3: delete the second replica → deceased.
	if _, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: second}); err != nil {
		t.Fatal(err)
	}
	if !wh.Acquire().View(name).Deceased {
		t.Fatal("view should be deceased after losing both replicas")
	}
}

// TestTravelScenarioEndToEnd exercises the motivating example end to end:
// extents match a recomputation after each change.
func TestTravelScenarioEndToEnd(t *testing.T) {
	sp, err := scenario.TravelSpace(7)
	if err != nil {
		t.Fatal(err)
	}
	wh := New(sp, DefaultConfig())
	v, err := wh.DefineView(context.Background(), scenario.AsiaCustomerESQL)
	if err != nil {
		t.Fatal(err)
	}
	before := v.Extent.Card()
	if before == 0 {
		t.Fatal("empty initial extent — scenario misconfigured")
	}
	if _, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "Customer"}); err != nil {
		t.Fatal(err)
	}
	v = wh.Acquire().View(v.Name)
	if v.Deceased {
		t.Fatal("view should survive via the Client replica")
	}
	if v.Def.From[0].Rel != "Client" {
		t.Errorf("adopted relation = %q", v.Def.From[0].Rel)
	}
	// Client ≡ Customer on (Name, Address): same joined extent.
	if v.Extent.Card() != before {
		t.Errorf("extent changed: %d -> %d", before, v.Extent.Card())
	}
}
