package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/esql"
)

// compileWith prepares q over cat through m and binds it.
func compileWith(m *Memo, q *esql.ViewDef, cat Catalog) (*Plan, error) {
	p, err := m.Prepare(q, cat)
	if err != nil {
		return nil, err
	}
	return p.Plan(), nil
}

// TestMemoBindsConstants compiles one query shape through a Memo with two
// sets of constants: the second compile only binds, and every constant
// lands in the filter of its own clause — in the rendered plan and in what
// the plan returns. A cardinality that keeps the join order only re-binds,
// with the cold compile's estimates; one that reorders the join compiles
// again.
func TestMemoBindsConstants(t *testing.T) {
	sp := testSpace(t)
	const src = "CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A > %s AND R.A = S.A AND S.C < %s AND R.B <> %s"
	var m Memo
	cat := spaceCatalog{sp}
	if _, err := compileWith(&m, esql.MustParse(strings.NewReplacer("%s", "0").Replace(src)), cat); err != nil {
		t.Fatal(err)
	}
	q := esql.MustParse("CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A > 1 AND R.A = S.A AND S.C < 350 AND R.B <> 20")
	before := Compiles()
	p, err := compileWith(&m, q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n := Compiles() - before; n != 0 {
		t.Fatalf("a known shape compiled %d templates, want 0", n)
	}
	text := p.Explain()
	for _, want := range []string{"Filter [R.A > 1 AND R.B <> 20]", "Filter [S.C < 350]"} {
		if !strings.Contains(text, want) {
			t.Errorf("bound plan lacks %q:\n%s", want, text)
		}
	}
	cold, err := CompileCatalog(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Explain() != text {
		t.Errorf("bound plan\n%s\ncold plan\n%s", text, cold.Explain())
	}
	ext, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() != 1 { // only A=3 (B=30, C=300) passes every filter
		t.Errorf("card = %d, want 1:\n%s", ext.Card(), ext)
	}

	// S at card 1 still sorts after R (both leaves estimate 1 row, and R
	// comes first in FROM): the template fits, and only its estimates move.
	sp.MKB().SetCard("S", 1)
	before = Compiles()
	p, err = compileWith(&m, q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n := Compiles() - before; n != 0 {
		t.Fatalf("a cardinality that keeps the join order compiled %d templates, want 0", n)
	}
	if cold, err = CompileCatalog(q, cat); err != nil {
		t.Fatal(err)
	}
	if p.Explain() != cold.Explain() {
		t.Errorf("bound plan\n%s\ncold plan\n%s", p.Explain(), cold.Explain())
	}
	// R at card 100 sorts after S: the join order moves, so it compiles.
	sp.MKB().SetCard("R", 100)
	before = Compiles()
	if _, err := compileWith(&m, q, cat); err != nil {
		t.Fatal(err)
	}
	if n := Compiles() - before; n != 1 {
		t.Fatalf("a join-reordering cardinality compiled %d templates, want 1", n)
	}
	if len(m.byShape) != 1 {
		t.Fatalf("memo holds %d templates for one shape", len(m.byShape))
	}
}

// TestMemoBounded compiles more shapes than a Memo holds: it stays at its
// capacity.
func TestMemoBounded(t *testing.T) {
	sp := testSpace(t)
	var m Memo
	for i := range memoCap + 64 {
		if _, err := compileWith(&m, esql.MustParse(fmt.Sprintf("CREATE VIEW V AS SELECT R.A AS C%d FROM R WHERE R.B > %d", i, i)), spaceCatalog{sp}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.byShape); n == 0 || n > memoCap {
		t.Fatalf("memo holds %d templates, want 1..%d", n, memoCap)
	}
}

// TestTemplateEstimatesAreCompiles holds pricing and binding to compile's
// arithmetic: over the inputs a template was compiled from, the estimates
// Prepared.EstRowCounts recomputes, and those the bound plan carries, are
// the ones compile put in the template, operator for operator — across
// filters, hash joins, theta joins and cross products, and after a
// cardinality change that keeps the join order.
func TestTemplateEstimatesAreCompiles(t *testing.T) {
	sp := testSpace(t)
	cat := spaceCatalog{sp}
	preorder := func(n Node) []int {
		var out []int
		var walk func(Node)
		walk = func(n Node) {
			out = append(out, n.EstRows())
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(n)
		return out
	}
	for _, src := range []string{
		"CREATE VIEW V AS SELECT R.A FROM R WHERE R.A > 1 AND R.B < 30",
		"CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A AND S.C < 350 AND R.B <> 20",
		"CREATE VIEW V AS SELECT R.B, T.D FROM R, S, T WHERE R.A = S.A AND S.A = T.A AND R.B < T.D",
		"CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A < S.A",
		"CREATE VIEW V AS SELECT R.B, T.D FROM R, T",
	} {
		var m Memo // reused across cards while they keep the join order
		q := esql.MustParse(src)
		for _, card := range []int{0, 2, 1000, 1 << 40} {
			sp.MKB().SetCard("R", card)
			p, err := m.Prepare(q, cat)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := new(Memo).Prepare(q, cat)
			if err != nil {
				t.Fatal(err)
			}
			want := preorder(fresh.t.root)
			if got := p.EstRowCounts(nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s at card %d: priced %v, compiled %v", src, card, got, want)
			}
			if got := preorder(p.Plan().Root); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s at card %d: bound %v, compiled %v", src, card, got, want)
			}
		}
	}
}
