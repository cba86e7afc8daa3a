package warehouse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/misd"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
)

// The route memo — plan templates per query shape, match proofs per
// (shape, epoch, PC set) — is shared by every Version of a warehouse and
// outlives publications. These tests hold it to one oracle: a route that
// reuses memoized proofs and binds memoized templates is the route that
// proves and compiles everything cold, whatever was routed before and
// whatever was published since.

// proofsDerived returns the number of match proofs m has derived.
func proofsDerived(m *routeMemo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.derived
}

// routeText renders what a route's plan would run: its Explain, which
// shows every operator's estimate, empty for an extent read.
func routeText(r *Route) string {
	if r.plan == nil {
		return ""
	}
	return r.plan.Explain()
}

// assertMemoMatchesCold routes q at v through the warehouse's route memo
// and through a fresh one — every proof derived and every plan compiled
// cold — and requires the same decision: Kind, View, Cost and BaseCost bit
// for bit, the plan's Explain (estimates and the root the bind chose
// included) byte for byte, or the same error. It reports whether the
// memoized route compiled no plan (planHit), derived no proof (proofHit)
// and bound a plan whose root deduplicates nothing (elided).
func assertMemoMatchesCold(t testing.TB, v *Version, q *esql.ViewDef) (planHit, proofHit, elided bool) {
	t.Helper()
	qq, err := v.qualify(q)
	if err != nil {
		return false, false, false
	}
	compiled, proved := plan.Compiles(), proofsDerived(v.memo)
	warm, werr := v.route(qq, v.memo)
	planHit, proofHit = plan.Compiles() == compiled, proofsDerived(v.memo) == proved
	cold, cerr := v.route(qq, new(routeMemo))
	if werr != nil || cerr != nil {
		if fmt.Sprint(werr) != fmt.Sprint(cerr) {
			t.Fatalf("%s: memoized route error %v, cold %v", esql.Print(qq), werr, cerr)
		}
		return planHit, proofHit, false
	}
	if warm.Kind != cold.Kind || warm.View != cold.View ||
		math.Float64bits(warm.Cost) != math.Float64bits(cold.Cost) ||
		math.Float64bits(warm.BaseCost) != math.Float64bits(cold.BaseCost) {
		t.Fatalf("%s: memoized route %v via %q cost %v base %v; cold %v via %q cost %v base %v",
			esql.Print(qq), warm.Kind, warm.View, warm.Cost, warm.BaseCost, cold.Kind, cold.View, cold.Cost, cold.BaseCost)
	}
	if w, c := routeText(warm), routeText(cold); w != c {
		t.Fatalf("%s: memoized plan\n%s\ncold plan\n%s", esql.Print(qq), w, c)
	}
	return planHit, proofHit, warm.plan != nil && strings.Contains(warm.plan.Root.Label(), "[elided: ")
}

// deleteFirstRow is a data-only publication: one batch deleting the first
// row of rel, which moves rel's cardinality and every extent over it.
func deleteFirstRow(t *testing.T, wh *Warehouse, rel string) {
	t.Helper()
	r := wh.Acquire().Relation(rel)
	if _, err := wh.ApplyUpdates(context.Background(), []maintain.Update{{Kind: maintain.Delete, Rel: rel, Tuple: r.Tuples()[0]}}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteMemoMatchesColdCompile runs the oracle over the routing corpora
// — the fuzz seeds and typed constants over the replica fixture, the sweeps
// over the wide scenario and the churn history — at Versions on both sides
// of data-only publications (a republication that changes nothing, and
// update batches that move cardinalities and extents), across the
// history's capability changes, and across each kind of registry and
// PC-set move: a registration, a decease, and a PC constraint added at an
// unchanged epoch. The sweeps must meet plan and proof memo hits, so the
// oracle cannot pass by deriving everything cold.
func TestRouteMemoMatchesColdCompile(t *testing.T) {
	ctx := context.Background()
	planHits, proofHits, elided, routes := 0, 0, 0, 0
	check := func(t *testing.T, v *Version, qs ...*esql.ViewDef) {
		t.Helper()
		for _, q := range qs {
			routes++
			planHit, proofHit, elide := assertMemoMatchesCold(t, v, q)
			if planHit {
				planHits++
			}
			if proofHit {
				proofHits++
			}
			if elide {
				elided++
			}
		}
	}
	sweep := func(t *testing.T, v *Version, seed int64, n int) {
		t.Helper()
		check(t, v, sweepQueries(v, rand.New(rand.NewSource(seed)), n)...)
	}

	t.Run("replica", func(t *testing.T) {
		wh := New(replicaSpace(t), DefaultConfig())
		for _, def := range []string{replicaView, `CREATE VIEW VJ (VE = ~) AS SELECT R.A, U.B AS B2 FROM R, Rep U WHERE R.A = U.A`} {
			if _, err := wh.DefineView(ctx, def); err != nil {
				t.Fatal(err)
			}
		}
		typed := func(c relation.Value) *esql.ViewDef {
			return &esql.ViewDef{
				Name:   esql.QueryName,
				Select: []esql.SelectItem{{Attr: esql.AttrRef{Attr: "A"}}, {Attr: esql.AttrRef{Attr: "B"}}},
				From:   []esql.FromItem{{Rel: "R"}},
				Where: []esql.CondItem{
					{Clause: esql.Clause{Left: esql.AttrRef{Attr: "A"}, Op: relation.OpGT, Const: relation.Int(1)}},
					{Clause: esql.Clause{Left: esql.AttrRef{Attr: "B"}, Op: relation.OpGE, Const: c}},
				},
			}
		}
		for round := range 3 {
			v := wh.Acquire()
			for _, sql := range routeFuzzSeeds {
				check(t, v, esql.MustParseQuery(sql))
			}
			for _, c := range []relation.Value{
				relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1)), relation.Float(math.Inf(1)),
				relation.Int(-5), relation.Int(25), relation.String("x"), relation.Float(12.5),
			} {
				check(t, v, typed(c))
			}
			sweep(t, v, int64(3+round), 200)
			if round == 0 {
				wh.PublishVersion(nil)
			} else {
				deleteFirstRow(t, wh, "R")
			}
		}
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
		for round, rel := range []string{"", wh.Acquire().RelationNames()[0]} {
			if rel != "" {
				deleteFirstRow(t, wh, rel)
			}
			sweep(t, wh.Acquire(), int64(5+round), 300)
		}
	})

	t.Run("churn-history", func(t *testing.T) {
		wh, h := churnWarehouse(t, scenario.ChurnParams{
			Families: 3, TwinsPerFamily: 2, Width: 5, Donors: 2,
			Spares: 2, SpareAttrs: 3, Changes: 10, Seed: 17,
			FamilyDeleteRatio: 0.15, FamilyRenameRatio: 0.25, DonorRatio: 0.3,
		})
		sweep(t, wh.Acquire(), 7, 200)
		for i, c := range h.Changes {
			if _, err := wh.ApplyChange(ctx, c); err != nil {
				t.Fatalf("change %d (%s): %v", i, c, err)
			}
			sweep(t, wh.Acquire(), int64(100+i), 100)
			if views := wh.Acquire().Views(); len(views) > 0 {
				deleteFirstRow(t, wh, views[i%len(views)].Def.From[0].Rel)
				sweep(t, wh.Acquire(), int64(100+i), 100)
			}
		}
	})

	t.Run("registry-and-pcs", func(t *testing.T) {
		sp := replicaSpace(t)
		// R2 mirrors R under no PC constraint yet; the view over S
		// deceases under a change no PC constraint mentions.
		for _, r := range []*relation.Relation{
			relation.MustFromRows("R2", relation.MustSchema(relation.TypeInt, "A", "B"),
				relation.IntRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})...),
			relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "C"),
				relation.IntRows([]int64{1, 5}, []int64{4, 8})...),
		} {
			if err := sp.AddRelation("IS1", r); err != nil {
				t.Fatal(err)
			}
		}
		wh := New(sp, DefaultConfig())
		for _, def := range []string{replicaView, `CREATE VIEW VS AS SELECT S.A, S.C FROM S WHERE S.A > 0`} {
			if _, err := wh.DefineView(ctx, def); err != nil {
				t.Fatal(err)
			}
		}
		mirror := esql.MustParseQuery("SELECT A, B FROM R2 WHERE A > 2")
		for i, step := range []struct {
			name          string
			move          func() error
			epoch, pcs    bool // which of the proof key's generations move
			mirrorRouting RouteKind
		}{
			{"register", func() error {
				_, err := wh.DefineView(ctx, `CREATE VIEW VJ (VE = ~) AS SELECT R.A, U.B AS B2 FROM R, Rep U WHERE R.A = U.A`)
				return err
			}, true, false, RouteBase},
			{"decease", func() error {
				_, err := wh.ApplyChange(ctx, space.Change{Kind: space.DeleteAttribute, Rel: "S", Attr: "C"})
				if err == nil && !wh.Acquire().View("VS").Deceased {
					err = fmt.Errorf("VS survived the loss of S.C")
				}
				return err
			}, true, false, RouteBase},
			{"pc-set", func() error {
				err := wh.Space.MKB().AddPCConstraint(misd.PCConstraint{
					Left:  misd.Fragment{Rel: misd.RelRef{Rel: "R2"}, Attrs: []string{"A", "B"}},
					Right: misd.Fragment{Rel: misd.RelRef{Rel: "R"}, Attrs: []string{"A", "B"}},
					Rel:   misd.Equal,
				})
				wh.PublishVersion(nil)
				return err
			}, false, true, RouteViewResidual},
		} {
			before := wh.Acquire()
			sweep(t, before, int64(40+i), 100)
			check(t, before, mirror)
			if err := step.move(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			v := wh.Acquire()
			if (v.Epoch() != before.Epoch()) != step.epoch || (v.pcGen != before.pcGen) != step.pcs {
				t.Fatalf("%s: epoch %d -> %d, PC-set generation %d -> %d", step.name, before.Epoch(), v.Epoch(), before.pcGen, v.pcGen)
			}
			sweep(t, v, int64(40+i), 100)
			check(t, v, mirror)
			if r, err := v.RouteDef(mirror); err != nil || r.Kind != step.mirrorRouting {
				t.Fatalf("%s: %s routed %v (%v), want %v", step.name, esql.Print(mirror), r.Kind, err, step.mirrorRouting)
			}
		}
	})

	if planHits == 0 || proofHits == 0 || proofHits == routes || elided == 0 || elided == routes {
		t.Fatalf("vacuous oracle: of %d routes, %d bound memoized templates only, %d reused a proof and %d elided the root",
			routes, planHits, proofHits, elided)
	}
	t.Logf("of %d routes, %d bound memoized templates only, %d reused a proof and %d elided the root", routes, planHits, proofHits, elided)
}

// TestRouteMemoSchemaTrap adds an attribute to a relation no view reads:
// no view moves, so neither does the epoch, yet a template compiled for
// the old schema would scan the new relation under the wrong schema. The
// next route must compile again and match the cold route.
func TestRouteMemoSchemaTrap(t *testing.T) {
	ctx := context.Background()
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(ctx, replicaView); err != nil {
		t.Fatal(err)
	}
	q := esql.MustParseQuery("SELECT A, B FROM Rep WHERE A > 2")
	v1 := wh.Acquire()
	assertMemoMatchesCold(t, v1, q)
	if planHit, proofHit, _ := assertMemoMatchesCold(t, v1, q); !planHit || !proofHit {
		t.Fatal("routing the same query twice compiled or proved twice")
	}
	if _, err := wh.ApplyChange(ctx, space.Change{Kind: space.AddAttribute, Rel: "Rep", Attr: "C", AttrType: relation.TypeInt}); err != nil {
		t.Fatal(err)
	}
	v2 := wh.Acquire()
	if v2.Epoch() != v1.Epoch() {
		t.Fatalf("epoch moved %d -> %d: the trap needs a change no view reads", v1.Epoch(), v2.Epoch())
	}
	if planHit, _, _ := assertMemoMatchesCold(t, v2, q); planHit {
		t.Fatal("a template compiled for Rep's old schema served its new one")
	}
	r, err := v2.RouteQuery("SELECT A, B, C FROM Rep WHERE A > 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRouteMemoCardTrap moves a FROM relation's advertised cardinality:
// the join order is read from it, so the next route must compile again
// and order the join by the new card, as a cold route does.
func TestRouteMemoCardTrap(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	q := esql.MustParseQuery("SELECT R.A, Rep.B FROM R, Rep WHERE R.A = Rep.A")
	v1 := wh.Acquire()
	assertMemoMatchesCold(t, v1, q)
	before, err := v1.RouteDef(q)
	if err != nil {
		t.Fatal(err)
	}
	wh.Space.MKB().SetCard("R", 1000)
	wh.PublishVersion(nil)
	v2 := wh.Acquire()
	if planHit, _, _ := assertMemoMatchesCold(t, v2, q); planHit {
		t.Fatal("a template ordered by R's old card served its new one")
	}
	after, err := v2.RouteDef(q)
	if err != nil {
		t.Fatal(err)
	}
	b, a := routeText(before), routeText(after)
	if strings.Index(b, "Scan R ") > strings.Index(b, "Scan Rep ") || strings.Index(a, "Scan Rep ") > strings.Index(a, "Scan R ") {
		t.Fatalf("the join order did not follow R's card:\nbefore\n%s\nafter\n%s", b, a)
	}
}

// TestRouteCompilesOncePerShape pins what the plan memo saves: once a
// query shape has been routed, a data-only publication and a new constant
// in the same shape route without compiling a single plan — neither the
// base plan nor the residual one — whether the batch left the query's
// relations alone or moved the cardinality of the one it reads.
func TestRouteCompilesOncePerShape(t *testing.T) {
	ctx := context.Background()
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(ctx, replicaView); err != nil {
		t.Fatal(err)
	}
	r, err := wh.Acquire().RouteQuery("SELECT A, B FROM R WHERE A > 2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != RouteViewResidual {
		t.Fatalf("route = %v, want view-residual", r.Kind)
	}
	for i, write := range []func(){
		func() { deleteFirstRow(t, wh, "Rep") },
		func() {
			if _, err := wh.ApplyUpdates(ctx, []maintain.Update{{Kind: maintain.Insert, Rel: "R", Tuple: relation.IntRows([]int64{4, 40})[0]}}); err != nil {
				t.Fatal(err)
			}
		},
	} {
		write()
		sql := fmt.Sprintf("SELECT A, B FROM R WHERE A > %d", 3+i)
		before := plan.Compiles()
		r, err = wh.Acquire().RouteQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n := plan.Compiles() - before; n != 0 {
			t.Fatalf("write %d: a known shape with a new constant compiled %d plans, want 0", i, n)
		}
		res, err := r.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		routeParity(t, wh, esql.MustParseQuery(sql), res)
	}
}

// TestRouteProofMemoHitsAcrossDataWrites pins what the proof memo saves:
// update batches move cardinalities and extents but neither the epoch nor
// the PC set, so after one a known shape with new constants re-derives no
// proof and compiles no plan, while its answers stay those of base
// evaluation.
func TestRouteProofMemoHitsAcrossDataWrites(t *testing.T) {
	ctx := context.Background()
	wh := New(replicaSpace(t), DefaultConfig())
	for _, def := range []string{replicaView, `CREATE VIEW VJ (VE = ~) AS SELECT R.A, U.B AS B2 FROM R, Rep U WHERE R.A = U.A`} {
		if _, err := wh.DefineView(ctx, def); err != nil {
			t.Fatal(err)
		}
	}
	shapes := []string{
		"SELECT A, B FROM R WHERE A > %d",                                  // V's residual
		"SELECT A, B FROM Rep WHERE A > %d",                                // V through the PC-Equal twin
		"SELECT R.A, U.B AS B2 FROM R, Rep U WHERE R.A = U.A AND R.A > %d", // VJ's residual
		"SELECT A FROM Rep WHERE B < %d",                                   // base
	}
	route := func(c int) map[RouteKind]int {
		kinds := map[RouteKind]int{}
		for _, shape := range shapes {
			sql := fmt.Sprintf(shape, c)
			r, err := wh.Acquire().RouteQuery(sql)
			if err != nil {
				t.Fatal(err)
			}
			kinds[r.Kind]++
			res, err := r.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			routeParity(t, wh, esql.MustParseQuery(sql), res)
		}
		return kinds
	}
	route(2)
	for i := range 3 {
		if _, err := wh.ApplyUpdates(ctx, []maintain.Update{
			{Kind: maintain.Insert, Rel: "R", Tuple: relation.IntRows([]int64{int64(10 + i), int64(100 + i)})[0]},
			{Kind: maintain.Insert, Rel: "Rep", Tuple: relation.IntRows([]int64{int64(10 + i), int64(100 + i)})[0]},
		}); err != nil {
			t.Fatal(err)
		}
		proved, compiled := proofsDerived(&wh.memo), plan.Compiles()
		kinds := route(3 + i)
		if n := proofsDerived(&wh.memo) - proved; n != 0 {
			t.Fatalf("batch %d: known shapes re-derived %d proofs, want 0", i, n)
		}
		if n := plan.Compiles() - compiled; n != 0 {
			t.Fatalf("batch %d: known shapes compiled %d plans, want 0", i, n)
		}
		if kinds[RouteViewResidual] < 3 || kinds[RouteBase] < 1 {
			t.Fatalf("batch %d: routes %v; the shapes must reach views and base", i, kinds)
		}
	}
}

// TestRouteWideMissBindsOnePlan routes reads of the route-wide scenario —
// 48 family relations with two twin views each, every read a new
// signature of a known shape — and pins the cost of such a miss: it binds
// one plan, where pricing the base plan and both twins' residuals used to
// bind three, and it allocates, parse and execution included, at most 84
// times (142 before the proof memo, 77 measured; each further bind costs
// 11 more). A read of a shape never seen before proves and compiles, and
// allocates at most 250 times (262 before the proof memo, 231 measured;
// 443 when each proof miss rebuilt the Version's match index).
func TestRouteWideMissBindsOnePlan(t *testing.T) {
	ctx := context.Background()
	wh, _ := churnWarehouse(t, scenario.ChurnParams{
		Families: 48, TwinsPerFamily: 2, Width: 6, Donors: 2, Spares: 4, SpareAttrs: 4, Changes: 1, Seed: 1,
	})
	const n = 400
	sqls := make([]string, n)
	for i := range sqls {
		f := i%48 + 1
		sqls[i] = fmt.Sprintf("SELECT W%d.A1, W%d.A2 FROM W%d WHERE W%d.A1 > %d AND W%d.A2 < %d", f, f, f, f, i%200, f, 1_000_000+i)
	}
	v, i := wh.Acquire(), 0
	read := func() {
		r, err := v.RouteQuery(sqls[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != RouteViewResidual {
			t.Fatalf("%s routed %v, want view-residual", sqls[i], r.Kind)
		}
		if _, err := r.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 96 { // every shape proved and compiled
		read()
	}
	if a := testing.AllocsPerRun(n-100, read); a > 84 {
		t.Fatalf("a miss allocates %.0f times, want at most 84", a)
	}

	sqls = sqls[:0]
	for f := 1; f <= 48; f++ {
		for a := 1; a <= 6; a++ {
			for b := 1; b <= 6; b++ {
				if a != b {
					sqls = append(sqls, fmt.Sprintf("SELECT W%d.A%d, W%d.A%d FROM W%d WHERE W%d.A%d < 100", f, a, f, b, f, f, (a+b)%6+1))
				}
			}
		}
	}
	i = 0
	if a := testing.AllocsPerRun(len(sqls)-1, read); a > 250 {
		t.Fatalf("a read of a new shape allocates %.0f times, want at most 250", a)
	}
}

// TestStressRouteMemoRaceFree has four readers route queries of a few
// shapes with ever new constants at whatever Version is published, while
// the writer lands update batches that republish and move cardinalities
// and extents, and every 25 batches an attribute rename that V4 adopts —
// the synchronization pass EvolveBatch runs — so the epoch moves too. The
// readers share, miss, re-prove, recompile and replace route memo entries
// concurrently. Every routed answer must checksum like the base plan
// compiled cold at the reader's pinned Version.
func TestStressRouteMemoRaceFree(t *testing.T) {
	const n, batches = 200, 300
	wh := chainWarehouse(t, n)
	shapes := []string{
		"SELECT R1.K, R1.A1 FROM R1 WHERE R1.A1 > %d",
		"SELECT R1.K, R2.A2 FROM R1, R2 WHERE R1.K = R2.K AND R1.A1 > %d",
		"SELECT R1.K, R3.A3 FROM R1, R2, R3 WHERE R1.K = R2.K AND R2.K = R3.K AND R2.A2 < %d",
		"SELECT R1.K, R2.A2 FROM R1, R2, R3, R4 WHERE R1.K = R2.K AND R2.K = R3.K AND R3.K = R4.K AND R1.A1 > %d",
	}
	var wg sync.WaitGroup
	var viewRoutes atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer wg.Wait()
	defer cancel()
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil || i == 0; i++ {
				v := wh.Acquire()
				q := esql.MustParseQuery(fmt.Sprintf(shapes[(g+i)%len(shapes)], (g*131+i*17)%(2*n)))
				r, err := v.RouteDef(q)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Kind != RouteBase {
					viewRoutes.Add(1)
				}
				got, err := r.Execute(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				qq, err := v.qualify(q)
				if err != nil {
					t.Error(err)
					return
				}
				p, err := plan.CompileCatalog(qq, versionCatalog{v})
				if err != nil {
					t.Error(err)
					return
				}
				want, err := p.Execute(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if exec.RowChecksum(got) != exec.RowChecksum(want) {
					t.Errorf("seq %d: %s routed %v via %q diverges from its cold base plan", v.Seq(), esql.Print(q), r.Kind, r.View)
					return
				}
			}
		}()
	}
	names := [2]string{"A4", "B4"}
	for i := range batches {
		if i%25 == 24 {
			c := space.Change{Kind: space.RenameAttribute, Rel: "R4", Attr: names[i/25%2], NewName: names[(i/25+1)%2]}
			epoch := wh.Acquire().Epoch()
			if _, err := wh.ApplyChange(ctx, c); err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			if wh.Acquire().Epoch() == epoch {
				t.Fatalf("%s moved no epoch", c)
			}
		}
		_, batch := chainOp(i, n)
		if _, err := wh.ApplyUpdates(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
	if viewRoutes.Load() == 0 {
		t.Fatal("no read routed through a view")
	}
}
