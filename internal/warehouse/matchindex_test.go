package warehouse

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
)

// pruneTally counts what a soundness sweep saw, so that a sweep cannot pass
// by never meeting a match, a substitution, or a pruned view.
type pruneTally struct {
	matched     int // (query, view) pairs readView answers
	substituted int // of those, pairs reached through a PC-Equal twin
	pruned      int // (query, view) pairs the index never visits
}

// assertPruningSound holds the match index to its obligations: every live
// view of v that readView can answer q from is among the index's candidates
// for q's FROM clause, the candidates keep registration order, and so the
// routed decision is the one a walk over every live view makes. A query that
// does not qualify has nothing to prune.
func assertPruningSound(t testing.TB, v *Version, q *esql.ViewDef, tally *pruneTally) {
	t.Helper()
	qq, err := v.qualify(q)
	if err != nil {
		return
	}
	idx := newMatchIndex(v.pcs, v.views)
	cands := idx.candidates(qq.From)
	cm := v.cfg.Cost
	got, err := v.route(qq, v.memo)
	if err != nil {
		t.Fatalf("route %s: %v", esql.Print(qq), err)
	}
	// The unpruned decision, by route's own tie rule: a view wins a cost tie
	// against base, a later view must be strictly cheaper.
	wantKind, wantView, wantCost := RouteBase, "", got.BaseCost
	var visitedInOrder []*VersionView
	for _, vv := range v.Views() {
		visited := slices.Contains(cands, vv)
		if visited {
			visitedInOrder = append(visitedInOrder, vv)
		} else {
			tally.pruned++
		}
		vp := proveView(qq, vv, v.pcs)
		r, _ := v.readView(qq, &vp, cm, &v.memo.plans)
		if r == nil {
			continue
		}
		if r.Cost < wantCost || (wantKind == RouteBase && r.Cost == wantCost) {
			wantKind, wantView, wantCost = r.Kind, r.View, r.Cost
		}
		tally.matched++
		if slices.ContainsFunc(qq.From, func(qf esql.FromItem) bool {
			return !slices.ContainsFunc(vv.Def.From, func(vf esql.FromItem) bool { return vf.Rel == qf.Rel })
		}) {
			tally.substituted++
		}
		if !visited {
			t.Fatalf("view %s answers %s, but the match index files it under %q and the query under %q",
				vv.Name, esql.Print(qq), idx.fromKey(vv.Def.From), idx.fromKey(qq.From))
		}
	}
	if !slices.Equal(visitedInOrder, cands) {
		t.Fatalf("candidates for %s are not a registration-order subsequence of the live views", esql.Print(qq))
	}
	if got.Kind != wantKind || got.View != wantView || got.Cost != wantCost {
		t.Fatalf("%s routed %v via %q cost %g; a walk over every live view routes %v via %q cost %g",
			esql.Print(qq), got.Kind, got.View, got.Cost, wantKind, wantView, wantCost)
	}
}

// sweepQueries generates n seeded random SELECTs over v's base relations:
// one or two FROM items (the second under an alias, so it may repeat the
// first; joined on a shared attribute when there is one), a random
// projection, and up to two integer-constant predicates.
func sweepQueries(v *Version, rng *rand.Rand, n int) []*esql.ViewDef {
	rels := v.RelationNames()
	ops := []relation.Op{relation.OpLT, relation.OpLE, relation.OpEQ, relation.OpGE, relation.OpGT, relation.OpNE}
	out := make([]*esql.ViewDef, 0, n)
	for len(out) < n {
		q := &esql.ViewDef{Name: esql.QueryName, From: []esql.FromItem{{Rel: rels[rng.Intn(len(rels))]}}}
		if rng.Intn(3) == 0 {
			q.From = append(q.From, esql.FromItem{Rel: rels[rng.Intn(len(rels))], Alias: "U"})
			if shared := v.rels[q.From[0].Rel].Schema().Common(v.rels[q.From[1].Rel].Schema()); len(shared) > 0 {
				q.Where = append(q.Where, esql.CondItem{Clause: esql.Clause{
					Left:  esql.AttrRef{Rel: q.From[0].Binding(), Attr: shared[0]},
					Op:    relation.OpEQ,
					Right: esql.AttrRef{Rel: "U", Attr: shared[0]},
				}})
			}
		}
		var refs []esql.AttrRef // every int attribute of every binding
		for _, f := range q.From {
			for _, a := range v.rels[f.Rel].Schema().Attrs() {
				if a.Type == relation.TypeInt {
					refs = append(refs, esql.AttrRef{Rel: f.Binding(), Attr: a.Name})
				}
			}
		}
		for _, i := range rng.Perm(len(refs))[:1+rng.Intn(min(4, len(refs)))] {
			q.Select = append(q.Select, esql.SelectItem{Attr: refs[i], Alias: fmt.Sprintf("C%d", len(q.Select))})
		}
		for k := rng.Intn(3); k > 0; k-- {
			q.Where = append(q.Where, esql.CondItem{Clause: esql.Clause{
				Left:  refs[rng.Intn(len(refs))],
				Op:    ops[rng.Intn(len(ops))],
				Const: relation.Int(int64(rng.Intn(400) - 50)),
			}})
		}
		out = append(out, q)
	}
	return out
}

// churnWarehouse builds the populated churn harness with its views
// registered.
func churnWarehouse(t *testing.T, p scenario.ChurnParams) (*Warehouse, *scenario.ChurnHistory) {
	t.Helper()
	h, err := scenario.Churn(p)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 30); err != nil {
		t.Fatal(err)
	}
	wh := New(sp, DefaultConfig())
	for _, def := range h.Views() {
		if _, err := wh.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	return wh, h
}

// TestMatchIndexPruningIsSound sweeps the routing corpora — the fuzz seeds
// over the replica fixture, the churn harness (twins, donors, spares), the
// wide join scenario — and asserts over every (query, live view) pair that
// a view the router can answer from is never pruned, including on the
// versions published after changes that move PC constraints.
func TestMatchIndexPruningIsSound(t *testing.T) {
	ctx := context.Background()
	churn := scenario.ChurnParams{
		Families: 3, TwinsPerFamily: 2, Width: 5, Donors: 2,
		Spares: 2, SpareAttrs: 3, Changes: 10, Seed: 17,
		FamilyDeleteRatio: 0.15, FamilyRenameRatio: 0.25, DonorRatio: 0.3,
	}
	sweep := func(t *testing.T, v *Version, seed int64, n int, tally *pruneTally) {
		t.Helper()
		for _, q := range sweepQueries(v, rand.New(rand.NewSource(seed)), n) {
			assertPruningSound(t, v, q, tally)
		}
	}
	requireSeen := func(t *testing.T, tally pruneTally) {
		t.Helper()
		if tally.matched == 0 || tally.substituted == 0 || tally.pruned == 0 {
			t.Fatalf("vacuous sweep: %+v", tally)
		}
		t.Logf("%+v", tally)
	}

	t.Run("replica", func(t *testing.T) {
		wh := New(replicaSpace(t), DefaultConfig())
		for _, def := range []string{
			replicaView,
			// Both FROM items fall in one PC-Equal class: the key repeats it.
			`CREATE VIEW VJ (VE = ~) AS SELECT R.A, U.B AS B2 FROM R, Rep U WHERE R.A = U.A`,
		} {
			if _, err := wh.DefineView(ctx, def); err != nil {
				t.Fatal(err)
			}
		}
		var tally pruneTally
		v := wh.Acquire()
		for _, sql := range routeFuzzSeeds {
			assertPruningSound(t, v, esql.MustParseQuery(sql), &tally)
		}
		sweep(t, v, 3, 300, &tally)
		requireSeen(t, tally)
	})

	t.Run("wide", func(t *testing.T) {
		sp, err := scenario.WideSpace(6, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := scenario.Populate(sp, 30); err != nil {
			t.Fatal(err)
		}
		wh := New(sp, DefaultConfig())
		if _, err := wh.RegisterView(ctx, scenario.WideView(6)); err != nil {
			t.Fatal(err)
		}
		var tally pruneTally
		sweep(t, wh.Acquire(), 5, 600, &tally)
		requireSeen(t, tally)
	})

	// The churn history, swept at every version it publishes.
	t.Run("churn-history", func(t *testing.T) {
		wh, h := churnWarehouse(t, churn)
		var tally pruneTally
		sweep(t, wh.Acquire(), 7, 300, &tally)
		requireSeen(t, tally)
		for i, c := range h.Changes {
			if _, err := wh.ApplyChange(ctx, c); err != nil {
				t.Fatalf("change %d (%s): %v", i, c, err)
			}
			sweep(t, wh.Acquire(), int64(100+i), 150, &tally)
		}
	})

	// Changes that move PC constraints: losing a donor's Equal constraint
	// (rename, delete) must split its class, and gaining one must merge it —
	// an index built from any other version's constraints would prune the
	// late twin's matches.
	t.Run("churn-donors", func(t *testing.T) {
		wh, _ := churnWarehouse(t, churn)
		routesToView := func(sql string) bool {
			t.Helper()
			r, err := wh.Acquire().RouteQuery(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			return r.Kind != RouteBase && strings.HasPrefix(r.View, "V1_")
		}
		if !routesToView("SELECT D1_2.A1, D1_2.A3 FROM D1_2") {
			t.Fatal("the Equal donor D1_2 does not route to a W1 view to begin with")
		}
		var tally pruneTally
		for i, c := range []space.Change{
			{Kind: space.RenameRelation, Rel: "D1_2", NewName: "D1_2x"},
			{Kind: space.DeleteRelation, Rel: "D2_2"},
		} {
			if _, err := wh.ApplyChange(ctx, c); err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			sweep(t, wh.Acquire(), int64(200+i), 300, &tally)
		}
		if routesToView("SELECT D1_2x.A1, D1_2x.A3 FROM D1_2x") {
			t.Fatal("the renamed donor lost its PC constraint but still routes to a W1 view")
		}
		attrs := []string{"K", "A1", "A2", "A3", "A4", "A5"}
		if err := wh.Space.MKB().AddPCConstraint(misd.PCConstraint{
			Left:  misd.Fragment{Rel: misd.RelRef{Rel: "W1"}, Attrs: attrs},
			Right: misd.Fragment{Rel: misd.RelRef{Rel: "D1_2x"}, Attrs: attrs},
			Rel:   misd.Equal,
		}); err != nil {
			t.Fatal(err)
		}
		wh.PublishVersion(nil)
		if !routesToView("SELECT D1_2x.A1, D1_2x.A3 FROM D1_2x") {
			t.Fatal("the re-constrained donor does not route to a W1 view")
		}
		sweep(t, wh.Acquire(), 202, 300, &tally)
		requireSeen(t, tally)
	})
}
