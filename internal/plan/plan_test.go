package plan

import (
	"context"
	"strings"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
	"repro/internal/space"
)

// testSpace builds IS1: R(A,B) [3 tuples], IS2: S(A,C) [3 tuples],
// IS2: T(A,D) [2 tuples] so cardinality-based ordering is observable.
func testSpace(t *testing.T) *space.Space {
	t.Helper()
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})...)
	s := relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "C"),
		relation.IntRows([]int64{1, 100}, []int64{3, 300}, []int64{4, 400})...)
	u := relation.MustFromRows("T", relation.MustSchema(relation.TypeInt, "A", "D"),
		relation.IntRows([]int64{1, 7}, []int64{3, 9})...)
	for _, pair := range []struct {
		src string
		rel *relation.Relation
	}{{"IS1", r}, {"IS2", s}, {"IS2", u}} {
		if err := sp.AddRelation(pair.src, pair.rel); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

func compile(t *testing.T, sp *space.Space, src string) *Plan {
	t.Helper()
	v := esql.MustParse(src)
	// Views in these tests are written fully qualified, so no exec.Qualify
	// round trip is needed (and the package dependency stays one-way).
	p, err := Compile(v, sp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileSingleRelation(t *testing.T) {
	sp := testSpace(t)
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.A, R.B FROM R WHERE R.A > 1")
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 {
		t.Errorf("card = %d, want 2", ext.Card())
	}
	if ext.Name != "V" {
		t.Errorf("extent name = %q", ext.Name)
	}
	// The constant predicate must be pushed below the dedup/project, onto
	// the scan.
	text := p.Explain()
	if !strings.Contains(text, "Filter [R.A > 1]") {
		t.Errorf("local predicate not pushed down:\n%s", text)
	}
}

func TestCompileHashJoinForEquiClause(t *testing.T) {
	sp := testSpace(t)
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A")
	text := p.Explain()
	if !strings.Contains(text, "HashJoin") {
		t.Fatalf("equi-join should compile to a hash join:\n%s", text)
	}
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 { // A=1 and A=3 match
		t.Errorf("card = %d, want 2", ext.Card())
	}
}

func TestCompileNestedLoopForThetaJoin(t *testing.T) {
	sp := testSpace(t)
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A < S.A")
	text := p.Explain()
	if !strings.Contains(text, "NestedLoop") || strings.Contains(text, "HashJoin") {
		t.Fatalf("pure theta join should fall back to nested loops:\n%s", text)
	}
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// R.A < S.A pairs: (1,3) (1,4) (2,3) (2,4) (3,4) → 5 combined rows,
	// projected to (B, C), all distinct.
	if ext.Card() != 5 {
		t.Errorf("card = %d, want 5", ext.Card())
	}
}

func TestCompileResidualOnHashJoin(t *testing.T) {
	sp := testSpace(t)
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A AND R.B < S.C")
	text := p.Explain()
	if !strings.Contains(text, "HashJoin") || !strings.Contains(text, "residual") {
		t.Fatalf("non-equi clause over the joined pair should ride as residual:\n%s", text)
	}
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 { // both matches satisfy B < C
		t.Errorf("card = %d, want 2", ext.Card())
	}
}

func TestJoinOrderPlacesSmallestFirst(t *testing.T) {
	sp := testSpace(t)
	// T (2 tuples) is smallest and should become the build side even
	// though it is last in FROM order.
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B, S.C, T.D FROM R, S, T WHERE R.A = S.A AND S.A = T.A")
	text := p.Explain()
	ti := strings.Index(text, "Scan T")
	ri := strings.Index(text, "Scan R")
	si := strings.Index(text, "Scan S")
	if ti < 0 || ri < 0 || si < 0 {
		t.Fatalf("missing scans:\n%s", text)
	}
	if ti > ri || ti > si {
		t.Errorf("smallest relation T should be planned first:\n%s", text)
	}
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 2 { // A=1 and A=3 survive the 3-way chain
		t.Errorf("card = %d, want 2", ext.Card())
	}
}

func TestJoinOrderAvoidsCrossProduct(t *testing.T) {
	sp := testSpace(t)
	// T is smallest, but R–S are only connected through S: after starting
	// at T, the planner must pick the equi-connected relation next rather
	// than the smaller unconnected one — no cross product in the plan.
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B, T.D FROM R, S, T WHERE R.A = S.A AND S.A = T.A")
	if text := p.Explain(); strings.Contains(text, "cross") {
		t.Errorf("chain query must not plan a cross product:\n%s", text)
	}
}

func TestCompileCrossJoinWhenUnconnected(t *testing.T) {
	sp := testSpace(t)
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B, S.C FROM R, S")
	text := p.Explain()
	if !strings.Contains(text, "cross") {
		t.Fatalf("join without predicates should be a cross product:\n%s", text)
	}
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 9 {
		t.Errorf("card = %d, want 9", ext.Card())
	}
}

func TestCompileMissingRelation(t *testing.T) {
	sp := testSpace(t)
	v := esql.MustParse("CREATE VIEW V AS SELECT Z.A FROM Z")
	if _, err := Compile(v, sp); err == nil {
		t.Error("compiling over a missing relation should fail")
	}
}

func TestDedupEliminatesDuplicates(t *testing.T) {
	sp := testSpace(t)
	next, err := sp.Relation("R").WithDelta([]relation.Tuple{{relation.Int(9), relation.Int(10)}}, nil)
	if err == nil {
		err = sp.ReplaceRelation("R", next)
	}
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B FROM R")
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 3 { // B values 10 (×2), 20, 30
		t.Errorf("deduplicated card = %d, want 3", ext.Card())
	}
}

func TestScanSharesBaseTuples(t *testing.T) {
	sp := testSpace(t)
	base := sp.Relation("R")
	scan, err := NewScan(base, "X", base.Card())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := scan.exec(context.Background(), vecChunk)
	if err != nil {
		t.Fatal(err)
	}
	if fr.n != base.Card() {
		t.Fatalf("scan rows = %d, want %d", fr.n, base.Card())
	}
	// Zero-copy: the scan's one leaf is the base's own columnar batch.
	if len(fr.leaves) != 1 || fr.leaves[0] != base.Columns() {
		t.Error("scan copied the base; expected its shared columnar batch")
	}
	if got := scan.Schema().Names(); got[0] != "X.A" || got[1] != "X.B" {
		t.Errorf("rebound names = %v", got)
	}
}

func TestExplainShape(t *testing.T) {
	sp := testSpace(t)
	p := compile(t, sp, "CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A")
	text := p.Explain()
	for _, want := range []string{"Plan V", "Dedup → V", "Project [B, C]", "Scan R", "Scan S"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
}
