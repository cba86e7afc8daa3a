package warehouse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
)

// The plan template memo (plan.Memo) is shared by every Version of a
// warehouse and outlives publications. These tests hold it to one oracle:
// a route that binds memoized templates is the route that compiles every
// plan cold, whatever was routed before and whatever was published since.

// routeText renders what a route's plan would run and price: its Explain
// and its EstRowCounts, empty for an extent read.
func routeText(r *Route) string {
	if r.plan == nil {
		return ""
	}
	return fmt.Sprintf("%s%v", r.plan.Explain(), r.plan.EstRowCounts())
}

// assertMemoMatchesCold routes q at v through the warehouse's memo and with
// every plan compiled cold, and requires the same decision: Kind, View,
// Cost and BaseCost bit for bit, the plan's Explain and EstRowCounts byte
// for byte, or the same error. It reports whether the memoized route
// compiled nothing — a memo hit for every plan it bound.
func assertMemoMatchesCold(t testing.TB, v *Version, q *esql.ViewDef) (hit bool) {
	t.Helper()
	qq, err := v.qualify(q)
	if err != nil {
		return false
	}
	before := plan.Compiles()
	warm, werr := v.route(qq, v.memo)
	hit = plan.Compiles() == before
	cold, cerr := v.route(qq, new(plan.Memo))
	if werr != nil || cerr != nil {
		if fmt.Sprint(werr) != fmt.Sprint(cerr) {
			t.Fatalf("%s: memoized route error %v, cold %v", esql.Print(qq), werr, cerr)
		}
		return hit
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
	return hit
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
// update batches that move cardinalities and extents), and across the
// history's capability changes. The sweeps must meet memo hits, so the
// oracle cannot pass by compiling everything cold.
func TestRouteMemoMatchesColdCompile(t *testing.T) {
	ctx := context.Background()
	hits, routes := 0, 0
	check := func(t *testing.T, v *Version, qs ...*esql.ViewDef) {
		t.Helper()
		for _, q := range qs {
			routes++
			if assertMemoMatchesCold(t, v, q) {
				hits++
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

	if hits == 0 || hits == routes {
		t.Fatalf("vacuous oracle: %d of %d routes hit the memo", hits, routes)
	}
	t.Logf("%d of %d routes bound memoized templates only", hits, routes)
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
	if !assertMemoMatchesCold(t, v1, q) {
		t.Fatal("routing the same query twice compiled twice")
	}
	if _, err := wh.ApplyChange(ctx, space.Change{Kind: space.AddAttribute, Rel: "Rep", Attr: "C", AttrType: relation.TypeInt}); err != nil {
		t.Fatal(err)
	}
	v2 := wh.Acquire()
	if v2.Epoch() != v1.Epoch() {
		t.Fatalf("epoch moved %d -> %d: the trap needs a change no view reads", v1.Epoch(), v2.Epoch())
	}
	if assertMemoMatchesCold(t, v2, q) {
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
	if assertMemoMatchesCold(t, v2, q) {
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

// TestRouteCompilesOncePerShape pins what the memo saves: once a query
// shape has been routed, a data-only publication that leaves the query's
// relations alone and a new constant in the same shape route without
// compiling a single plan — neither the base plan nor the residual one.
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
	deleteFirstRow(t, wh, "Rep")
	before := plan.Compiles()
	r, err = wh.Acquire().RouteQuery("SELECT A, B FROM R WHERE A > 3")
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.Compiles() - before; n != 0 {
		t.Fatalf("a known shape with a new constant compiled %d plans, want 0", n)
	}
	res, err := r.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	routeParity(t, wh, esql.MustParseQuery("SELECT A, B FROM R WHERE A > 3"), res)
}

// TestStressRouteMemoRaceFree has four readers route queries of a few
// shapes with ever new constants at whatever Version is published, while
// the writer lands update batches that republish and move cardinalities
// and extents — so the readers share, miss, recompile and replace memo
// entries concurrently. Every routed answer must checksum like the base
// plan compiled cold at the reader's pinned Version.
func TestStressRouteMemoRaceFree(t *testing.T) {
	const n, batches = 200, 300
	wh := chainWarehouse(t, n)
	shapes := []string{
		"SELECT R1.K, R1.A1 FROM R1 WHERE R1.A1 > %d",
		"SELECT R1.K, R2.A2 FROM R1, R2 WHERE R1.K = R2.K AND R1.A1 > %d",
		"SELECT R1.K, R3.A3 FROM R1, R2, R3 WHERE R1.K = R2.K AND R2.K = R3.K AND R2.A2 < %d",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
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
	for i := range batches {
		_, batch := chainOp(i, n)
		if _, err := wh.ApplyUpdates(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
}
