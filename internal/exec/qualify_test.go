package exec

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
)

// TestQualifyWithCustomLookup exercises the lookup-injection variant the
// synchronizer uses to qualify views against MKB schemas (e.g. for a
// relation that has already been deleted from the space).
func TestQualifyWithCustomLookup(t *testing.T) {
	schemas := map[string]*relation.Schema{
		"Gone":  relation.MustSchema(relation.TypeInt, "A", "B"),
		"Still": relation.MustSchema(relation.TypeInt, "C"),
	}
	lookup := func(rel string) *relation.Schema { return schemas[rel] }

	v := esql.MustParse("CREATE VIEW V AS SELECT A, C FROM Gone, Still WHERE B > 1")
	q, err := QualifyWith(v, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Attr.Rel != "Gone" || q.Select[1].Attr.Rel != "Still" {
		t.Errorf("qualified selects = %+v", q.Select)
	}
	if q.Where[0].Clause.Left.Rel != "Gone" {
		t.Errorf("qualified where = %+v", q.Where[0])
	}
}

func TestQualifyWithNilSchemas(t *testing.T) {
	v := esql.MustParse("CREATE VIEW V AS SELECT A FROM Ghost")
	_, err := QualifyWith(v, func(string) *relation.Schema { return nil })
	if err == nil {
		t.Error("lookup returning nil schemas should fail resolution")
	}
}

func TestQualifyAlreadyQualifiedPassesThrough(t *testing.T) {
	v := esql.MustParse("CREATE VIEW V AS SELECT G.A FROM Gone G")
	q, err := QualifyWith(v, func(string) *relation.Schema { return nil })
	if err != nil {
		t.Fatalf("fully qualified views need no schema lookup: %v", err)
	}
	if q.Select[0].Attr.Rel != "G" {
		t.Errorf("qualified ref changed: %+v", q.Select[0])
	}
}

// TestQualifyColumnsCopy is the regression test for the naive path's
// column qualification: the qualified relation must hold exactly the base
// tuples, in the base's insertion order, under "binding.attr" names — it
// must never drop or reorder rows.
func TestQualifyColumnsCopy(t *testing.T) {
	base := relation.New("R", relation.MustSchema(relation.TypeInt, "A", "B"))
	// Insertion order deliberately non-sorted.
	rows := relation.IntRows([]int64{3, 30}, []int64{1, 10}, []int64{2, 20}, []int64{0, 0})
	for _, r := range rows {
		if err := base.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	q, err := qualifyColumns(base, "X")
	if err != nil {
		t.Fatal(err)
	}
	if q.Card() != base.Card() {
		t.Fatalf("qualified card = %d, want %d", q.Card(), base.Card())
	}
	for i, want := range rows {
		got := q.Tuples()[i]
		if !slices.EqualFunc(got, want, func(x, y relation.Value) bool { return x.Key() == y.Key() }) {
			t.Errorf("tuple %d = %v, want %v (order not preserved)", i, got, want)
		}
	}
	if names := q.Schema().Names(); names[0] != "X.A" || names[1] != "X.B" {
		t.Errorf("qualified names = %v", names)
	}
	if src := q.Schema().Attr(0).Source; src != "R.A" {
		t.Errorf("provenance = %q, want R.A", src)
	}
	// The re-binding shares the base's storage, so both are sealed.
	for _, r := range []*relation.Relation{q, base} {
		if err := r.Insert(relation.Tuple{relation.Int(9), relation.Int(90)}); !errors.Is(err, relation.ErrSealed) {
			t.Errorf("Insert after qualifyColumns = %v, want ErrSealed", err)
		}
	}
}

func TestQualifyRejectsUnboundQualifier(t *testing.T) {
	v := &esql.ViewDef{
		Name:   "V",
		Select: []esql.SelectItem{{Attr: esql.AttrRef{Rel: "Z", Attr: "A"}}},
		From:   []esql.FromItem{{Rel: "R"}},
	}
	// Validate would reject this too, but QualifyWith must not mask it.
	if _, err := QualifyWith(v, func(string) *relation.Schema {
		return relation.MustSchema(relation.TypeInt, "A")
	}); err == nil {
		t.Error("reference to unbound relation should fail")
	}
}
