package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
)

// assertParity evaluates one view through the naive algebra reference and
// the planned columnar executor, and fails unless both extents are
// identical tuple sets over identical column names.
func assertParity(t *testing.T, sp *space.Space, v *esql.ViewDef) {
	t.Helper()
	naive, err := EvaluateNaive(v, sp)
	if err != nil {
		t.Fatalf("view %s: naive: %v", v.Name, err)
	}
	got, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatalf("view %s: planned: %v", v.Name, err)
	}
	if got.Card() != naive.Card() {
		t.Fatalf("view %s: columnar card %d != naive card %d", v.Name, got.Card(), naive.Card())
	}
	if !got.Equal(naive) {
		t.Fatalf("view %s: columnar extent diverges from naive:\n%s\nvs\n%s", v.Name, got, naive)
	}
	gotNames := fmt.Sprint(got.Schema().Names())
	wantNames := fmt.Sprint(naive.Schema().Names())
	if gotNames != wantNames {
		t.Fatalf("view %s: columnar columns %s != naive columns %s", v.Name, gotNames, wantNames)
	}
}

// TestColumnarParityChurn runs the churn generator's twin views — scan +
// project + dedup shapes over wide populated families — across several
// seeds and checks parity with the naive evaluator for every view. Subtests run in
// parallel so `go test -race` exercises concurrent columnar evaluation
// against shared base relations.
func TestColumnarParityChurn(t *testing.T) {
	for seed := int64(1); seed <= 7; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			params := scenario.DefaultChurnParams()
			params.Seed = seed
			h, err := scenario.Churn(params)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := h.BuildSpace()
			if err != nil {
				t.Fatal(err)
			}
			if err := scenario.Populate(sp, 150); err != nil {
				t.Fatal(err)
			}
			for _, v := range h.Views() {
				assertParity(t, sp, v)
			}
		})
	}
}

// TestColumnarParityWide runs the wide-view generator — an RA ⋈ W0
// equi-join selecting the full attribute payload — across widths and donor
// counts, populated so the join actually produces rows.
func TestColumnarParityWide(t *testing.T) {
	for _, width := range []int{1, 2, 5, 9} {
		for _, donors := range []int{1, 3} {
			t.Run(fmt.Sprintf("width=%d/donors=%d", width, donors), func(t *testing.T) {
				t.Parallel()
				sp, err := scenario.WideSpace(width, donors)
				if err != nil {
					t.Fatal(err)
				}
				if err := scenario.Populate(sp, 200); err != nil {
					t.Fatal(err)
				}
				assertParity(t, sp, scenario.WideView(width))
			})
		}
	}
}

// randomParitySpace builds a small space with mixed-type relations and
// adversarial values: duplicate join keys, floats that collide numerically
// with ints, NaN, negative zero, empty strings, and an empty relation every
// few seeds. Cardinalities and domains stay small so every code path —
// including cross products — finishes instantly.
func randomParitySpace(t *testing.T, rng *rand.Rand) *space.Space {
	t.Helper()
	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	mkValue := func(typ relation.Type) relation.Value {
		switch typ {
		case relation.TypeInt:
			return relation.Int(int64(rng.Intn(9) - 2))
		case relation.TypeFloat:
			switch rng.Intn(6) {
			case 0:
				return relation.Float(math.NaN())
			case 1:
				return relation.Float(0.0)
			default:
				return relation.Float(float64(rng.Intn(9)-2) + float64(rng.Intn(2))*0.5)
			}
		case relation.TypeString:
			return relation.String([]string{"", "a", "b", "ab", "z"}[rng.Intn(5)])
		default:
			return relation.Bool(rng.Intn(2) == 0)
		}
	}
	types := []relation.Type{relation.TypeInt, relation.TypeInt, relation.TypeFloat, relation.TypeString, relation.TypeBool}
	for ri := 0; ri < 3; ri++ {
		width := 2 + rng.Intn(3)
		attrs := make([]relation.Attribute, width)
		for c := 0; c < width; c++ {
			attrs[c] = relation.Attribute{Name: fmt.Sprintf("A%d", c), Type: types[(ri+c)%len(types)], Size: 8}
		}
		rel := relation.New(fmt.Sprintf("T%d", ri), relation.NewSchema(attrs...))
		card := rng.Intn(60)
		if rng.Intn(8) == 0 {
			card = 0
		}
		for i := 0; i < card; i++ {
			row := make(relation.Tuple, width)
			for c := 0; c < width; c++ {
				row[c] = mkValue(attrs[c].Type)
			}
			if err := rel.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.AddRelation("IS1", rel); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

// randomParityView builds a random view over the randomParitySpace
// relations: 1–3 FROM relations, a random projection, and a random mix of
// attribute-constant clauses (every operator), equi-join clauses, and
// non-equi attribute-attribute clauses — covering the vectorized filter
// kernels, hash-join residuals, nested-loop joins, and cross products.
func randomParityView(rng *rand.Rand, sp *space.Space, name string) *esql.ViewDef {
	ops := []relation.Op{relation.OpLT, relation.OpLE, relation.OpEQ, relation.OpGE, relation.OpGT, relation.OpNE}
	v := &esql.ViewDef{Name: name, Extent: esql.ExtentAny}
	nFrom := 1 + rng.Intn(3)
	type col struct{ rel, attr string }
	var cols []col
	for i := 0; i < nFrom; i++ {
		relName := fmt.Sprintf("T%d", i)
		v.From = append(v.From, esql.FromItem{Rel: relName, Dispensable: true})
		sc := sp.Relation(relName).Schema()
		for _, a := range sc.Names() {
			cols = append(cols, col{relName, a})
		}
	}
	// Projection: 1..4 distinct random columns (the naive evaluator's
	// set-algebra projection rejects repeated source columns).
	perm := rng.Perm(len(cols))
	nSel := 1 + rng.Intn(4)
	if nSel > len(cols) {
		nSel = len(cols)
	}
	for i := 0; i < nSel; i++ {
		c := cols[perm[i]]
		v.Select = append(v.Select, esql.SelectItem{
			Attr:  esql.AttrRef{Rel: c.rel, Attr: c.attr},
			Alias: fmt.Sprintf("O%d", i),
		})
	}
	// Constant clauses against random columns.
	for i := rng.Intn(3); i > 0; i-- {
		c := cols[rng.Intn(len(cols))]
		typ := sp.Relation(c.rel).Schema().Attr(sp.Relation(c.rel).Schema().IndexOf(c.attr)).Type
		var cv relation.Value
		switch typ {
		case relation.TypeInt:
			cv = relation.Int(int64(rng.Intn(7) - 2))
			if rng.Intn(4) == 0 { // cross-type numeric predicate
				cv = relation.Float(float64(rng.Intn(7)-2) + 0.5*float64(rng.Intn(2)))
			}
		case relation.TypeFloat:
			cv = relation.Float(float64(rng.Intn(7) - 2))
			if rng.Intn(6) == 0 {
				cv = relation.Float(math.NaN())
			}
		case relation.TypeString:
			cv = relation.String([]string{"", "a", "b", "m"}[rng.Intn(4)])
		default:
			cv = relation.Bool(rng.Intn(2) == 0)
		}
		v.Where = append(v.Where, esql.CondItem{Clause: esql.Clause{
			Left:  esql.AttrRef{Rel: c.rel, Attr: c.attr},
			Op:    ops[rng.Intn(len(ops))],
			Const: cv,
		}})
	}
	// Attribute-attribute clauses spanning FROM relations: usually
	// equi-joins (hash join), sometimes theta (nested loop), sometimes
	// none at all (cross product).
	for i := 1; i < nFrom; i++ {
		if rng.Intn(5) == 0 {
			continue // leave a cross product
		}
		lRel, rRel := fmt.Sprintf("T%d", rng.Intn(i)), fmt.Sprintf("T%d", i)
		lCols, rCols := sp.Relation(lRel).Schema().Names(), sp.Relation(rRel).Schema().Names()
		op := relation.OpEQ
		if rng.Intn(4) == 0 {
			op = ops[rng.Intn(len(ops))]
		}
		v.Where = append(v.Where, esql.CondItem{Clause: esql.Clause{
			Left:  esql.AttrRef{Rel: lRel, Attr: lCols[rng.Intn(len(lCols))]},
			Op:    op,
			Right: esql.AttrRef{Rel: rRel, Attr: rCols[rng.Intn(len(rCols))]},
		}})
	}
	return v
}

// TestColumnarParityRandomViews is the adversarial arm of the parity suite:
// 120 randomized (space, view) combinations with mixed value types, NaN and
// negative-zero floats, duplicate join keys, empty inputs, every comparison
// operator, and random join shapes. Each seed must agree with the naive
// evaluator.
func TestColumnarParityRandomViews(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			sp := randomParitySpace(t, rng)
			for i := 0; i < 4; i++ {
				assertParity(t, sp, randomParityView(rng, sp, fmt.Sprintf("VRand%d_%d", seed, i)))
			}
		})
	}
}

// TestColumnarParityIntsBeyondFloatPrecision is the ±2^53 arm: int columns
// and int constants whose neighbours share one float64. The typed int64
// kernels always compared payloads exactly; the naive evaluator goes
// through Value.Compare, which once widened both sides to float64 and
// called such neighbours equal. Both must agree with each other and with
// plain int64 comparison.
func TestColumnarParityIntsBeyondFloatPrecision(t *testing.T) {
	const big = int64(1) << 53
	vals := []int64{
		big - 1, big, big + 1, big + 2, -big + 1, -big, -big - 1, -big - 2,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1, 0,
	}
	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"T0", "T1"} {
		rel := relation.New(name, relation.MustSchema(relation.TypeInt, "A", "B"))
		for i, v := range vals {
			if err := rel.Insert(relation.Tuple{relation.Int(v), relation.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.AddRelation("IS1", rel); err != nil {
			t.Fatal(err)
		}
	}
	pass := func(op relation.Op, a, b int64) bool {
		switch op {
		case relation.OpLT:
			return a < b
		case relation.OpLE:
			return a <= b
		case relation.OpEQ:
			return a == b
		case relation.OpGE:
			return a >= b
		case relation.OpGT:
			return a > b
		default:
			return a != b
		}
	}
	sel := []esql.SelectItem{
		{Attr: esql.AttrRef{Rel: "T0", Attr: "A"}, Alias: "A"},
		{Attr: esql.AttrRef{Rel: "T0", Attr: "B"}, Alias: "B"},
	}
	ops := []relation.Op{relation.OpLT, relation.OpLE, relation.OpEQ, relation.OpGE, relation.OpGT, relation.OpNE}
	for _, op := range ops {
		for _, c := range []int64{big, big + 1, -big, -big - 1, math.MaxInt64 - 1, math.MinInt64 + 1} {
			v := &esql.ViewDef{
				Name: fmt.Sprintf("VBig%s%d", op, c), Extent: esql.ExtentAny, Select: sel,
				From: []esql.FromItem{{Rel: "T0", Dispensable: true}},
				Where: []esql.CondItem{{Clause: esql.Clause{
					Left: esql.AttrRef{Rel: "T0", Attr: "A"}, Op: op, Const: relation.Int(c),
				}}},
			}
			assertParity(t, sp, v)
			want := 0
			for _, a := range vals {
				if pass(op, a, c) {
					want++
				}
			}
			got, err := Evaluate(context.Background(), v, sp)
			if err != nil {
				t.Fatal(err)
			}
			if got.Card() != want {
				t.Errorf("T0.A %s %d: %d rows, want %d", op, c, got.Card(), want)
			}
		}
		// Attribute against attribute across two scans of the same values.
		v := &esql.ViewDef{
			Name: fmt.Sprintf("VBigJoin%s", op), Extent: esql.ExtentAny,
			Select: append(sel[:2:2], esql.SelectItem{Attr: esql.AttrRef{Rel: "T1", Attr: "B"}, Alias: "C"}),
			From:   []esql.FromItem{{Rel: "T0", Dispensable: true}, {Rel: "T1", Dispensable: true}},
			Where: []esql.CondItem{{Clause: esql.Clause{
				Left: esql.AttrRef{Rel: "T0", Attr: "A"}, Op: op, Right: esql.AttrRef{Rel: "T1", Attr: "A"},
			}}},
		}
		assertParity(t, sp, v)
		want := 0
		for _, a := range vals {
			for _, b := range vals {
				if pass(op, a, b) {
					want++
				}
			}
		}
		got, err := Evaluate(context.Background(), v, sp)
		if err != nil {
			t.Fatal(err)
		}
		if got.Card() != want {
			t.Errorf("T0.A %s T1.A: %d rows, want %d", op, got.Card(), want)
		}
	}
}
