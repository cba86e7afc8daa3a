package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/esql"
)

// TestMemoBindsConstants compiles one query shape through a Memo with two
// sets of constants: the second compile only binds, and every constant
// lands in the filter of its own clause — in the rendered plan and in what
// the plan returns — while a changed input compiles again.
func TestMemoBindsConstants(t *testing.T) {
	sp := testSpace(t)
	const src = "CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A > %s AND R.A = S.A AND S.C < %s AND R.B <> %s"
	var m Memo
	cat := spaceCatalog{sp}
	if _, err := m.Compile(esql.MustParse(strings.NewReplacer("%s", "0").Replace(src)), cat); err != nil {
		t.Fatal(err)
	}
	q := esql.MustParse("CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A > 1 AND R.A = S.A AND S.C < 350 AND R.B <> 20")
	before := Compiles()
	p, err := m.Compile(q, cat)
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

	sp.MKB().SetCard("S", 1)
	before = Compiles()
	if _, err := m.Compile(q, cat); err != nil {
		t.Fatal(err)
	}
	if n := Compiles() - before; n != 1 {
		t.Fatalf("a new cardinality compiled %d templates, want 1", n)
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
		if _, err := m.Compile(esql.MustParse(fmt.Sprintf("CREATE VIEW V AS SELECT R.A AS C%d FROM R WHERE R.B > %d", i, i)), spaceCatalog{sp}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.byShape); n == 0 || n > memoCap {
		t.Fatalf("memo holds %d templates, want 1..%d", n, memoCap)
	}
}
