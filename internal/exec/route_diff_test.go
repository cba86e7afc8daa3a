package exec_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/warehouse"
)

// The checksum-differential protocol of the MV router: every routed query
// is replayed against base-only naive evaluation of the same definition,
// and the two results must agree on column names, cardinality, and the
// order-insensitive multiset row checksum. The suite spans three universes
// (an adversarial typed space with NaN/±0/Inf/string data, the churn
// scenario, and the wide-view scenario), generates well over 200 queries —
// deterministic anchors plus seeded random sweeps — and runs them all in
// parallel under -race against shared immutable versions.

// diffCase is one differential query: a definition to route and the space
// to replay it naively against.
type diffCase struct {
	name string
	q    *esql.ViewDef
	wh   *warehouse.Warehouse
	sp   *space.Space
}

// runDiff routes, executes, replays, and compares one case, returning the
// chosen route kind.
func runDiff(t *testing.T, c diffCase) warehouse.RouteKind {
	t.Helper()
	rt, err := c.wh.Acquire().RouteDef(c.q)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	got, err := rt.Execute(context.Background())
	if err != nil {
		t.Fatalf("execute (%v via %q): %v", rt.Kind, rt.View, err)
	}
	want, err := exec.EvaluateNaive(c.q, c.sp)
	if err != nil {
		t.Fatalf("naive replay: %v", err)
	}
	g, w := got.Schema().Names(), want.Schema().Names()
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("schema = %v, want %v (route %v via %q)", g, w, rt.Kind, rt.View)
	}
	if got.Card() != want.Card() {
		t.Fatalf("card = %d, want %d (route %v via %q)", got.Card(), want.Card(), rt.Kind, rt.View)
	}
	gotSum, wantSum := exec.RowChecksum(got), exec.RowChecksum(want)
	if gotSum != wantSum {
		t.Fatalf("checksum mismatch (route %v via %q):\nrouted:\n%s\nnaive:\n%s",
			rt.Kind, rt.View, got, want)
	}
	// The currency itself must not have moved: both sums equal the retained
	// tuple-and-key-string oracle's.
	if o := rowChecksumOracle(got); gotSum != o {
		t.Fatalf("routed checksum %016x != oracle %016x (route %v via %q)", gotSum, o, rt.Kind, rt.View)
	}
	if o := rowChecksumOracle(want); wantSum != o {
		t.Fatalf("naive checksum %016x != oracle %016x", wantSum, o)
	}
	return rt.Kind
}

// adversarialUniverse builds a typed space whose data exercises the value
// semantics corners: T(K int, F float, S string, G float) holds NaN, ±0,
// ±Inf, empty and numeric-looking strings; T2 is a PC-Equal replica; three
// views cover no-selection, aliased-selective, and join shapes.
func adversarialUniverse(t *testing.T) (*warehouse.Warehouse, *space.Space) {
	t.Helper()
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	schema := func() *relation.Schema {
		return relation.NewSchema(
			relation.Attribute{Name: "K", Type: relation.TypeInt, Size: 20},
			relation.Attribute{Name: "F", Type: relation.TypeFloat, Size: 20},
			relation.Attribute{Name: "S", Type: relation.TypeString, Size: 20},
			relation.Attribute{Name: "G", Type: relation.TypeFloat, Size: 20},
		)
	}
	specials := []float64{
		math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, 1.5,
	}
	// "|", "s"-prefixed strings and the checksum's framing bytes: values a
	// "s"-tagged, "|"-joined row key would confuse.
	strs := []string{"", "1", "a", "b10", "NaN", "|", "sa", "s|", "a|s", "|s", "\x1e", "\x1f"}
	row := func(i int) relation.Tuple {
		return relation.Tuple{
			relation.Int(int64(i)),
			relation.Float(specials[i%len(specials)] + float64(i/len(specials))),
			relation.String(strs[i%len(strs)]),
			relation.Float(float64(i%13) - 6),
		}
	}
	fill := func(name string) *relation.Relation {
		r := relation.New(name, schema())
		for i := 0; i < 60; i++ {
			if err := r.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		// The corner rows proper: exact NaN/±0 in every float column.
		for i, f := range specials {
			if err := r.Insert(relation.Tuple{
				relation.Int(int64(100 + i)), relation.Float(f),
				relation.String(strs[i%len(strs)]), relation.Float(f),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	if err := sp.AddRelation("IS1", fill("T")); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", fill("T2")); err != nil {
		t.Fatal(err)
	}
	if err := sp.MKB().AddPCConstraint(misd.PCConstraint{
		Left:  misd.Fragment{Rel: misd.RelRef{Rel: "T"}, Attrs: []string{"K", "F", "S", "G"}},
		Right: misd.Fragment{Rel: misd.RelRef{Rel: "T2"}, Attrs: []string{"K", "F", "S", "G"}},
		Rel:   misd.Equal,
	}); err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(sp, warehouse.DefaultConfig())
	for _, def := range []string{
		`CREATE VIEW VA (VE = ~) AS SELECT T.K, T.F, T.S, T.G FROM T`,
		`CREATE VIEW VB (VE = ~) AS SELECT T.K AS Key, T.F AS FF FROM T WHERE T.K > 20`,
		`CREATE VIEW VJ (VE = ~) AS SELECT T.K, T.F, U.G AS G2 FROM T, T2 U WHERE T.K = U.K`,
	} {
		if _, err := wh.DefineView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	return wh, sp
}

// adversarialCases yields the anchors plus a seeded random sweep over the
// typed universe: random projections of T/T2 with predicates drawn from a
// constant pool full of NaN, ±0, infinities, negatives, and strings, plus
// attribute-attribute comparisons.
func adversarialCases(t *testing.T) []diffCase {
	wh, sp := adversarialUniverse(t)
	q := func(name string) *esql.ViewDef { return &esql.ViewDef{Name: name} }
	sel := func(rel string, attrs ...string) []esql.SelectItem {
		out := make([]esql.SelectItem, len(attrs))
		for i, a := range attrs {
			out[i] = esql.SelectItem{Attr: esql.AttrRef{Rel: rel, Attr: a}}
		}
		return out
	}
	cl := func(rel, attr string, op relation.Op, c relation.Value) esql.CondItem {
		return esql.CondItem{Clause: esql.Clause{Left: esql.AttrRef{Rel: rel, Attr: attr}, Op: op, Const: c}}
	}
	var cases []diffCase
	add := func(name string, def *esql.ViewDef) {
		cases = append(cases, diffCase{name: "adv/" + name, q: def, wh: wh, sp: sp})
	}

	// Anchors: one guaranteed hit per route kind.
	exact := q("Q")
	exact.Select = sel("T", "K", "F", "S", "G")
	exact.From = []esql.FromItem{{Rel: "T"}}
	add("extent-exact", exact)

	aliased := q("Q")
	aliased.Select = []esql.SelectItem{
		{Attr: esql.AttrRef{Rel: "T", Attr: "K"}, Alias: "Key"},
		{Attr: esql.AttrRef{Rel: "T", Attr: "F"}, Alias: "FF"},
	}
	aliased.From = []esql.FromItem{{Rel: "T"}}
	aliased.Where = []esql.CondItem{cl("T", "K", relation.OpGT, relation.Int(20))}
	add("extent-aliased", aliased)

	resid := q("Q")
	resid.Select = []esql.SelectItem{{Attr: esql.AttrRef{Rel: "T", Attr: "F"}}}
	resid.From = []esql.FromItem{{Rel: "T"}}
	resid.Where = []esql.CondItem{
		cl("T", "K", relation.OpGT, relation.Int(25)),
		cl("T", "F", relation.OpGE, relation.Float(0)),
	}
	add("residual", resid)

	nan := q("Q")
	nan.Select = sel("T2", "K", "F")
	nan.From = []esql.FromItem{{Rel: "T2"}}
	nan.Where = []esql.CondItem{cl("T2", "F", relation.OpLE, relation.Float(math.NaN()))}
	add("nan-predicate", nan)

	base := q("Q")
	base.Select = sel("T", "S")
	base.From = []esql.FromItem{{Rel: "T"}}
	base.Where = []esql.CondItem{cl("T", "S", relation.OpNE, relation.String(""))}
	add("base-string", base)

	// Random sweep. Same seed every run: the sweep is randomized in shape
	// but fully reproducible.
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"K", "F", "S", "G"}
	consts := []relation.Value{
		relation.Int(-5), relation.Int(0), relation.Int(25), relation.Int(104),
		relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1)), relation.Float(0),
		relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)), relation.Float(1.5),
		relation.String(""), relation.String("1"), relation.String("a"),
		relation.String("|"), relation.String("sa"), relation.String("s|"), relation.String("\x1e"),
	}
	ops := []relation.Op{relation.OpLT, relation.OpLE, relation.OpEQ, relation.OpGE, relation.OpGT, relation.OpNE}
	for i := 0; i < 120; i++ {
		rel := []string{"T", "T2"}[rng.Intn(2)]
		def := q("Q")
		def.From = []esql.FromItem{{Rel: rel}}
		perm := rng.Perm(len(attrs))[:1+rng.Intn(len(attrs))]
		for _, j := range perm {
			def.Select = append(def.Select, esql.SelectItem{Attr: esql.AttrRef{Rel: rel, Attr: attrs[j]}})
		}
		for n := rng.Intn(3); n > 0; n-- {
			if rng.Intn(5) == 0 { // attribute-attribute comparison
				a, b := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
				def.Where = append(def.Where, esql.CondItem{Clause: esql.Clause{
					Left:  esql.AttrRef{Rel: rel, Attr: a},
					Op:    ops[rng.Intn(len(ops))],
					Right: esql.AttrRef{Rel: rel, Attr: b},
				}})
				continue
			}
			def.Where = append(def.Where,
				cl(rel, attrs[rng.Intn(len(attrs))], ops[rng.Intn(len(ops))], consts[rng.Intn(len(consts))]))
		}
		add(fmt.Sprintf("rand%03d", i), def)
	}
	return cases
}

// churnCases routes queries against the populated churn scenario: twin
// views expose A1..Awidth (never the key K), donors D*_2 are PC-Equal
// replicas, so exact twin shapes hit extents, narrowed shapes go residual,
// K-touching shapes fall back to base, and Equal-donor shapes substitute.
func churnCases(t *testing.T) []diffCase {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families: 2, TwinsPerFamily: 1, Width: 4, Donors: 2,
		Spares: 1, SpareAttrs: 2, Changes: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 60); err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(sp, warehouse.DefaultConfig())
	for _, def := range h.Views() {
		if _, err := wh.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	var cases []diffCase
	add := func(name string, def *esql.ViewDef) {
		cases = append(cases, diffCase{name: "churn/" + name, q: def, wh: wh, sp: sp})
	}
	attrsOf := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("A%d", i+1)
		}
		return out
	}
	mk := func(rel string, where []esql.CondItem, attrs ...string) *esql.ViewDef {
		def := &esql.ViewDef{Name: "Q", From: []esql.FromItem{{Rel: rel}}, Where: where}
		for _, a := range attrs {
			def.Select = append(def.Select, esql.SelectItem{Attr: esql.AttrRef{Rel: rel, Attr: a}})
		}
		return def
	}
	gt := func(rel, attr string, c int64) esql.CondItem {
		return esql.CondItem{Clause: esql.Clause{
			Left: esql.AttrRef{Rel: rel, Attr: attr}, Op: relation.OpGT, Const: relation.Int(c),
		}}
	}
	for f := 1; f <= 2; f++ {
		fam := fmt.Sprintf("W%d", f)
		eqDonor := fmt.Sprintf("D%d_2", f)  // containment index 1 → Equal
		supDonor := fmt.Sprintf("D%d_1", f) // containment index 0 → Superset
		add(fam+"-twin-exact", mk(fam, nil, attrsOf(4)...))
		add(fam+"-subset", mk(fam, nil, "A2", "A3"))
		add(fam+"-subset-filtered", mk(fam, []esql.CondItem{gt(fam, "A1", 100)}, "A1", "A4"))
		add(fam+"-key-base", mk(fam, nil, "K", "A1"))
		add(fam+"-key-filtered", mk(fam, []esql.CondItem{gt(fam, "K", 200)}, "K"))
		add(eqDonor+"-subst-exact", mk(eqDonor, nil, attrsOf(4)...))
		add(eqDonor+"-subst-filtered", mk(eqDonor, []esql.CondItem{gt(eqDonor, "A2", 150)}, "A2"))
		add(supDonor+"-no-subst", mk(supDonor, nil, attrsOf(4)...))
	}
	// Random sweep over families, donors, and spares.
	rng := rand.New(rand.NewSource(11))
	rels := []string{"W1", "W2", "D1_1", "D1_2", "D2_1", "D2_2"}
	pool := []string{"K", "A1", "A2", "A3", "A4"}
	ops := []relation.Op{relation.OpLT, relation.OpLE, relation.OpEQ, relation.OpGE, relation.OpGT, relation.OpNE}
	for i := 0; i < 60; i++ {
		rel := rels[rng.Intn(len(rels))]
		perm := rng.Perm(len(pool))[:1+rng.Intn(4)]
		attrs := make([]string, len(perm))
		for j, k := range perm {
			attrs[j] = pool[k]
		}
		var where []esql.CondItem
		for n := rng.Intn(3); n > 0; n-- {
			where = append(where, esql.CondItem{Clause: esql.Clause{
				Left: esql.AttrRef{Rel: rel, Attr: pool[rng.Intn(len(pool))]},
				Op:   ops[rng.Intn(len(ops))],
				// Populated values are i*7+j, so thresholds around the data range.
				Const: relation.Int(int64(rng.Intn(500) - 50)),
			}})
		}
		add(fmt.Sprintf("rand%03d", i), mk(rel, where, attrs...))
	}
	return cases
}

// wideCases routes two-relation join queries against the wide scenario:
// VWide materializes RA ⋈ W0 on K, exposing W0.K and A1..A6, and the
// PC-Equal donor D2 substitutes for W0 inside join queries.
func wideCases(t *testing.T) []diffCase {
	sp, err := scenario.WideSpace(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 50); err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(sp, warehouse.DefaultConfig())
	if _, err := wh.RegisterView(context.Background(), scenario.WideView(6)); err != nil {
		t.Fatal(err)
	}
	var cases []diffCase
	add := func(name string, def *esql.ViewDef) {
		cases = append(cases, diffCase{name: "wide/" + name, q: def, wh: wh, sp: sp})
	}
	join := func(w0 string) esql.CondItem {
		return esql.CondItem{Clause: esql.Clause{
			Left:  esql.AttrRef{Rel: "RA", Attr: "K"},
			Op:    relation.OpEQ,
			Right: esql.AttrRef{Rel: w0, Attr: "K"},
		}}
	}
	mk := func(w0 string, extra []esql.CondItem, attrs ...string) *esql.ViewDef {
		def := &esql.ViewDef{
			Name:  "Q",
			From:  []esql.FromItem{{Rel: "RA"}, {Rel: w0}},
			Where: append([]esql.CondItem{join(w0)}, extra...),
		}
		for _, a := range attrs {
			r := w0
			if a == "X" {
				r = "RA"
			}
			def.Select = append(def.Select, esql.SelectItem{Attr: esql.AttrRef{Rel: r, Attr: a}})
		}
		return def
	}
	all := []string{"K", "A1", "A2", "A3", "A4", "A5", "A6"}
	add("extent-exact", mk("W0", nil, all...))
	add("project", mk("W0", nil, "A1", "K"))
	add("filtered", mk("W0", []esql.CondItem{{Clause: esql.Clause{
		Left: esql.AttrRef{Rel: "W0", Attr: "A3"}, Op: relation.OpLT, Const: relation.Int(170),
	}}}, "A3", "A4"))
	add("anchor-base", mk("W0", nil, "X", "K")) // RA.X is not exposed → base
	add("donor-subst", mk("D2", nil, all...))   // D2 is the PC-Equal donor
	add("donor-no-subst", mk("D1", nil, "K", "A1"))
	rng := rand.New(rand.NewSource(13))
	ops := []relation.Op{relation.OpLT, relation.OpLE, relation.OpGE, relation.OpGT, relation.OpNE}
	for i := 0; i < 40; i++ {
		w0 := []string{"W0", "D1", "D2"}[rng.Intn(3)]
		perm := rng.Perm(len(all))[:1+rng.Intn(4)]
		attrs := make([]string, len(perm))
		for j, k := range perm {
			attrs[j] = all[k]
		}
		var extra []esql.CondItem
		if rng.Intn(2) == 0 {
			extra = append(extra, esql.CondItem{Clause: esql.Clause{
				Left:  esql.AttrRef{Rel: w0, Attr: all[rng.Intn(len(all))]},
				Op:    ops[rng.Intn(len(ops))],
				Const: relation.Int(int64(rng.Intn(400))),
			}})
		}
		add(fmt.Sprintf("rand%03d", i), mk(w0, extra, attrs...))
	}
	return cases
}

// TestRouteDifferential is the suite: every generated query must checksum
// identically under routed and base-only evaluation, all three route kinds
// must be exercised, and the total must clear 200 cases. Subtests run in
// parallel against shared versions, so `go test -race` doubles as the
// concurrency proof of the routing read path.
func TestRouteDifferential(t *testing.T) {
	var cases []diffCase
	cases = append(cases, adversarialCases(t)...)
	cases = append(cases, churnCases(t)...)
	cases = append(cases, wideCases(t)...)
	if len(cases) < 200 {
		t.Fatalf("only %d cases generated, want >= 200", len(cases))
	}
	var kinds [3]atomic.Int64
	t.Run("cases", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				kinds[runDiff(t, c)].Add(1)
			})
		}
	})
	if t.Failed() {
		return
	}
	total := int64(0)
	for k := range kinds {
		got := kinds[k].Load()
		total += got
		if got == 0 {
			t.Errorf("route kind %v never chosen across %d cases", warehouse.RouteKind(k), len(cases))
		}
		t.Logf("%v: %d cases", warehouse.RouteKind(k), got)
	}
	if total != int64(len(cases)) {
		t.Errorf("ran %d of %d cases", total, len(cases))
	}
}
