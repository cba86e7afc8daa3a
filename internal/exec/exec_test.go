package exec

import (
	"context"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
	"repro/internal/space"
)

// twoSourceSpace builds IS1: R(A,B), IS2: S(A,C) with small extents.
func twoSourceSpace(t *testing.T) *space.Space {
	t.Helper()
	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.AddSource("IS2"); err != nil {
		t.Fatal(err)
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})...)
	s := relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "C"),
		relation.IntRows([]int64{1, 100}, []int64{3, 300}, []int64{4, 400})...)
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", s); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestEvaluateSingleRelation(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT R.A, R.B FROM R WHERE R.A > 1")
	ext, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 {
		t.Errorf("extent card = %d, want 2", ext.Card())
	}
	if !ext.Schema().Has("A") || !ext.Schema().Has("B") {
		t.Errorf("output schema = %v", ext.Schema().Names())
	}
}

func TestEvaluateJoin(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A")
	ext, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 { // A=1 and A=3 match
		t.Errorf("join extent card = %d, want 2", ext.Card())
	}
}

func TestEvaluateAlias(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT R.A AS Key FROM R")
	ext, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Schema().Has("Key") {
		t.Errorf("alias not applied: %v", ext.Schema().Names())
	}
	if ext.Card() != 3 {
		t.Errorf("card = %d", ext.Card())
	}
}

func TestEvaluateBindingAlias(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT X.A FROM R X WHERE X.B >= 20")
	ext, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 {
		t.Errorf("card = %d, want 2", ext.Card())
	}
}

func TestEvaluateMissingRelation(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT Z.A FROM Z")
	if _, err := Evaluate(context.Background(), v, sp); err == nil {
		t.Error("evaluating over a missing relation should fail")
	}
}

func TestEvaluateDeduplicates(t *testing.T) {
	sp := twoSourceSpace(t)
	// Project B only; insert two R tuples with the same B.
	land(t, sp, "R", []relation.Tuple{{relation.Int(9), relation.Int(10)}}, nil)
	v := esql.MustParse("CREATE VIEW V AS SELECT R.B FROM R")
	ext, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 3 { // B values 10, 20, 30 (10 duplicated)
		t.Errorf("deduplicated card = %d, want 3", ext.Card())
	}
}

func TestQualifyResolvesUnambiguous(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT B, C FROM R, S WHERE B > 0")
	q, err := Qualify(v, sp)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Attr.Rel != "R" || q.Select[1].Attr.Rel != "S" {
		t.Errorf("qualified = %+v", q.Select)
	}
	if q.Where[0].Clause.Left.Rel != "R" {
		t.Errorf("where not qualified: %+v", q.Where[0])
	}
	// The original is untouched.
	if v.Select[0].Attr.Rel != "" {
		t.Error("Qualify mutated its input")
	}
}

func TestQualifyAmbiguous(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT A FROM R, S")
	if _, err := Qualify(v, sp); err == nil {
		t.Error("ambiguous attribute should fail")
	}
}

func TestQualifyUnknownAttribute(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT Zed FROM R")
	if _, err := Qualify(v, sp); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestEvaluateStringCondition(t *testing.T) {
	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	r := relation.New("P", relation.NewSchema(
		relation.Attribute{Name: "Name", Type: relation.TypeString},
		relation.Attribute{Name: "City", Type: relation.TypeString},
	))
	r.Insert(relation.Tuple{relation.String("a"), relation.String("Tokyo")}) //nolint:errcheck
	r.Insert(relation.Tuple{relation.String("b"), relation.String("Lima")})  //nolint:errcheck
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	v := esql.MustParse("CREATE VIEW V AS SELECT P.Name FROM P WHERE P.City = 'Tokyo'")
	ext, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 1 {
		t.Errorf("card = %d, want 1", ext.Card())
	}
}

// TestEvaluateMatchesManualJoin cross-checks the executor against a manual
// algebra computation of the same query.
func TestEvaluateMatchesManualJoin(t *testing.T) {
	sp := twoSourceSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT R.A, S.C FROM R, S WHERE R.A = S.A AND S.C > 100")
	got, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	// Manual: R ⋈ S on A, filter C>100, project (A, C) → {(3, 300)}.
	if got.Card() != 1 {
		t.Fatalf("card = %d, want 1", got.Card())
	}
	tu := got.Tuples()[0]
	if tu[0].AsInt() != 3 || tu[1].AsInt() != 300 {
		t.Errorf("tuple = %v", tu)
	}
}
