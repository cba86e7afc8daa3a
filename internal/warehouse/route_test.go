package warehouse

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/relation"
)

// routeParity asserts a routed execution matches base-only naive evaluation
// of the same query: same column names, same cardinality, same multiset
// checksum — the differential contract of the router.
func routeParity(t *testing.T, wh *Warehouse, q *esql.ViewDef, got *relation.Relation) {
	t.Helper()
	want, err := exec.EvaluateNaive(q, wh.Space)
	if err != nil {
		t.Fatalf("naive evaluation: %v", err)
	}
	g, w := got.Schema().Names(), want.Schema().Names()
	if len(g) != len(w) {
		t.Fatalf("schema = %v, want %v", g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("schema = %v, want %v", g, w)
		}
	}
	if got.Card() != want.Card() {
		t.Fatalf("card = %d, want %d", got.Card(), want.Card())
	}
	if exec.RowChecksum(got) != exec.RowChecksum(want) {
		t.Fatalf("checksum mismatch:\nrouted:\n%s\nnaive:\n%s", got, want)
	}
}

func TestRouteQueryViewExtent(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	const sql = "SELECT A, B FROM R WHERE A > 1"
	r, err := v.RouteQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != RouteViewExtent || r.View != "V" {
		t.Fatalf("route = %v via %q, want view-extent via V", r.Kind, r.View)
	}
	if r.Cost >= r.BaseCost {
		t.Errorf("extent route cost %v not below base cost %v", r.Cost, r.BaseCost)
	}
	res, err := r.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 2 {
		t.Fatalf("card = %d, want 2", res.Card())
	}
	routeParity(t, wh, esql.MustParseQuery(sql), res)
}

func TestRouteQueryResidual(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	// A > 1 is enforced by the view; B < 25 must be re-checked over the
	// exposed B column, and the projection narrows to A.
	const sql = "SELECT A FROM R WHERE A > 1 AND B < 25"
	r, err := v.RouteQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != RouteViewResidual || r.View != "V" {
		t.Fatalf("route = %v via %q, want view-residual via V", r.Kind, r.View)
	}
	res, err := v.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 1 {
		t.Fatalf("card = %d, want 1 (only A=2 has B<25)", res.Card())
	}
	routeParity(t, wh, esql.MustParseQuery(sql), res)
}

func TestRouteQueryBaseFallback(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	// No WHERE clause: the view's A > 1 selection is not implied, so the
	// extent may be missing rows and the router must fall back to base.
	const sql = "SELECT A, B FROM R"
	r, err := v.RouteQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != RouteBase || r.View != "" {
		t.Fatalf("route = %v via %q, want base", r.Kind, r.View)
	}
	if r.Cost != r.BaseCost {
		t.Errorf("base route cost %v != base cost %v", r.Cost, r.BaseCost)
	}
	res, err := r.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Card() != 3 {
		t.Fatalf("card = %d, want 3", res.Card())
	}
	routeParity(t, wh, esql.MustParseQuery(sql), res)
}

// TestRouteQuerySubstitution pins the PC-Equal leg: a query over the replica
// Rep is answered from the view over R because the MKB asserts R ≡ Rep on
// (A, B).
func TestRouteQuerySubstitution(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	const sql = "SELECT A, B FROM Rep WHERE A > 1"
	r, err := v.RouteQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != RouteViewExtent || r.View != "V" {
		t.Fatalf("route = %v via %q, want view-extent via V (PC substitution)", r.Kind, r.View)
	}
	res, err := r.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	routeParity(t, wh, esql.MustParseQuery(sql), res)
}

func TestRouteQueryCachedPerSignature(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	r1, err := v.RouteQuery("SELECT A FROM R WHERE A > 1")
	if err != nil {
		t.Fatal(err)
	}
	// Same query, different surface spelling, same qualified signature.
	r2, err := v.RouteQuery("SELECT R.A FROM R WHERE (R.A > 1)")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("equivalent queries should share one cached route per version")
	}
}

// TestRouteDefInexpressibleConstants exercises the programmatic entry with
// constants the SQL surface cannot spell (NaN, negatives) and checks routed
// answers still match naive base evaluation.
func TestRouteDefInexpressibleConstants(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	for _, c := range []relation.Value{
		relation.Float(math.NaN()),
		relation.Int(-5),
		relation.Float(math.Inf(-1)),
	} {
		q := &esql.ViewDef{
			Name:   esql.QueryName,
			Select: []esql.SelectItem{{Attr: esql.AttrRef{Attr: "A"}}},
			From:   []esql.FromItem{{Rel: "R"}},
			Where: []esql.CondItem{{Clause: esql.Clause{
				Left: esql.AttrRef{Attr: "B"}, Op: relation.OpGE, Const: c,
			}}},
		}
		r, err := v.RouteDef(q)
		if err != nil {
			t.Fatalf("const %s: %v", c.Text(), err)
		}
		res, err := r.Execute(context.Background())
		if err != nil {
			t.Fatalf("const %s: %v", c.Text(), err)
		}
		routeParity(t, wh, q, res)
		// RouteDef qualifies a clone; the caller's definition stays unqualified.
		if q.Select[0].Attr.Rel != "" {
			t.Error("RouteDef mutated the caller's definition")
		}
	}
}

func TestRouteQueryErrors(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	v := wh.Acquire()
	if _, err := v.RouteQuery("not sql at all"); err == nil {
		t.Error("garbage must not route")
	}
	if _, err := v.RouteQuery("SELECT X FROM Nope"); err == nil {
		t.Error("unknown relation must not route")
	}
	if _, err := v.Query(context.Background(), "SELECT Zzz FROM R"); err == nil {
		t.Error("unknown attribute must not route")
	}
}

// TestRouteSelfJoinAssignmentsBounded routes against a view over ten
// bindings of one relation. Every query binding may map to every view
// binding, so there are 10! FROM assignments; for a query that does not
// imply the view's r1.A > 100 none of them passes, and trying them all
// would take seconds a query. The router must give up after a bounded
// number and answer from base, and must still find the assignment that
// does pass when the query implies the view.
func TestRouteSelfJoinAssignmentsBounded(t *testing.T) {
	const k = 10
	var from, chain []string
	for i := 1; i <= k; i++ {
		from = append(from, fmt.Sprintf("R r%d", i))
		if i > 1 {
			chain = append(chain, fmt.Sprintf("r%d.A = r%d.A", i-1, i))
		}
	}
	joins := strings.Join(chain, " AND ")
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), fmt.Sprintf(
		"CREATE VIEW VK AS SELECT r1.A FROM %s WHERE %s AND r1.A > 100", strings.Join(from, ", "), joins)); err != nil {
		t.Fatal(err)
	}
	v := wh.Acquire()
	start := time.Now()
	r, err := v.RouteQuery(fmt.Sprintf("SELECT r1.A FROM %s WHERE %s", strings.Join(from, ", "), joins))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("routing against a %d-way self-join view took %v", k, d)
	}
	if r.Kind != RouteBase {
		t.Fatalf("route = %v via %q, want base", r.Kind, r.View)
	}
	r, err = v.RouteQuery(fmt.Sprintf("SELECT r1.A FROM %s WHERE %s AND r1.A > 100", strings.Join(from, ", "), joins))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != RouteViewExtent || r.View != "VK" {
		t.Fatalf("route = %v via %q, want the extent of VK", r.Kind, r.View)
	}
}
