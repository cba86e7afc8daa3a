package relation

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func abSchema() *Schema { return MustSchema(TypeInt, "A", "B") }

func rel(t *testing.T, name string, rows ...[]int64) *Relation {
	t.Helper()
	r, err := FromRows(name, abSchema(), IntRows(rows...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Attribute{Name: "A", Type: TypeInt},
		Attribute{Name: "B", Type: TypeString, Size: 12},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.IndexOf("B") != 1 || s.IndexOf("C") != -1 {
		t.Error("IndexOf wrong")
	}
	if !s.Has("A") || s.Has("Z") {
		t.Error("Has wrong")
	}
	if got := s.TupleSize(); got != 8+12 {
		t.Errorf("TupleSize = %d, want 20", got)
	}
	if got := s.String(); got != "(A int, B string)" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate attribute did not panic")
		}
	}()
	NewSchema(Attribute{Name: "A"}, Attribute{Name: "A"})
}

func TestSchemaProject(t *testing.T) {
	s := MustSchema(TypeInt, "A", "B", "C")
	p, err := s.Project("C", "A")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Names(); got[0] != "C" || got[1] != "A" {
		t.Errorf("Project order = %v", got)
	}
	if _, err := s.Project("Z"); err == nil {
		t.Error("projecting missing attribute should fail")
	}
}

func TestSchemaCommon(t *testing.T) {
	a := MustSchema(TypeInt, "A", "B", "C")
	b := MustSchema(TypeInt, "B", "D", "A")
	got := a.Common(b)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Common = %v", got)
	}
	if !a.EqualNames(MustSchema(TypeInt, "C", "B", "A")) {
		t.Error("EqualNames should be order-insensitive")
	}
	if a.EqualNames(b) {
		t.Error("EqualNames false positive")
	}
}

func TestSchemaRename(t *testing.T) {
	s := MustSchema(TypeInt, "A", "B")
	r, err := s.Rename("A", "X")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has("X") || r.Has("A") {
		t.Error("rename failed")
	}
	if _, err := s.Rename("Z", "Y"); err == nil {
		t.Error("renaming missing attribute should fail")
	}
}

func TestInsertDeduplicates(t *testing.T) {
	r := rel(t, "R", []int64{1, 2}, []int64{1, 2}, []int64{3, 4})
	if r.Card() != 2 {
		t.Fatalf("Card = %d, want 2 (set semantics)", r.Card())
	}
	if !r.Contains(Tuple{Int(1), Int(2)}) {
		t.Error("missing inserted tuple")
	}
}

func TestInsertArityMismatch(t *testing.T) {
	r := New("R", abSchema())
	if err := r.Insert(Tuple{Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestDelete(t *testing.T) {
	r := rel(t, "R", []int64{1, 2}, []int64{3, 4}, []int64{5, 6})
	if !r.Delete(Tuple{Int(3), Int(4)}) {
		t.Fatal("delete of present tuple returned false")
	}
	if r.Card() != 2 || r.Contains(Tuple{Int(3), Int(4)}) {
		t.Error("tuple not removed")
	}
	if r.Delete(Tuple{Int(9), Int(9)}) {
		t.Error("delete of absent tuple returned true")
	}
	// Internal index must stay consistent after the swap-delete.
	if !r.Delete(Tuple{Int(5), Int(6)}) || !r.Delete(Tuple{Int(1), Int(2)}) {
		t.Error("subsequent deletes failed — index corrupted")
	}
	if r.Card() != 0 {
		t.Errorf("Card = %d after deleting all", r.Card())
	}
}

func TestInsertDeleteRandomizedIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New("R", abSchema())
	shadow := map[[2]int64]Tuple{}
	for i := 0; i < 3000; i++ {
		tu := Tuple{Int(rng.Int63n(30)), Int(rng.Int63n(30))}
		if rng.Intn(2) == 0 {
			r.Insert(tu) //nolint:errcheck
			shadow[[2]int64{tu[0].AsInt(), tu[1].AsInt()}] = tu
		} else {
			r.Delete(tu)
			delete(shadow, [2]int64{tu[0].AsInt(), tu[1].AsInt()})
		}
		if r.Card() != len(shadow) {
			t.Fatalf("iteration %d: card %d != shadow %d", i, r.Card(), len(shadow))
		}
	}
	for _, tu := range shadow {
		if !r.Contains(tu) {
			t.Fatalf("missing %v", tu)
		}
	}
}

func TestProjectRemovesDuplicates(t *testing.T) {
	r := rel(t, "R", []int64{1, 10}, []int64{1, 20}, []int64{2, 30})
	p, err := r.Project("A")
	if err != nil {
		t.Fatal(err)
	}
	if p.Card() != 2 {
		t.Errorf("projection card = %d, want 2", p.Card())
	}
}

func TestSelect(t *testing.T) {
	r := rel(t, "R", []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	s, err := r.Select(AttrConst("A", OpGT, Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Card() != 2 {
		t.Errorf("select card = %d, want 2", s.Card())
	}
	if _, err := r.Select(AttrConst("Z", OpGT, Int(1))); err == nil {
		t.Error("select on missing attribute should fail")
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := rel(t, "A", []int64{1, 1}, []int64{2, 2})
	b := rel(t, "B", []int64{2, 2}, []int64{3, 3})

	u, err := a.Union(b)
	if err != nil || u.Card() != 3 {
		t.Fatalf("union card = %d err=%v, want 3", u.Card(), err)
	}
	i, err := a.Intersect(b)
	if err != nil || i.Card() != 1 {
		t.Fatalf("intersect card = %d err=%v, want 1", i.Card(), err)
	}
	d, err := a.Difference(b)
	if err != nil || d.Card() != 1 || !d.Contains(Tuple{Int(1), Int(1)}) {
		t.Fatalf("difference wrong: card=%d err=%v", d.Card(), err)
	}
}

func TestSetOpsSchemaMismatch(t *testing.T) {
	a := rel(t, "A", []int64{1, 1})
	c := MustFromRows("C", MustSchema(TypeInt, "X", "Y"), IntRows([]int64{1, 1})...)
	if _, err := a.Union(c); err == nil {
		t.Error("union with different attribute names should fail")
	}
	if _, err := a.Intersect(c); err == nil {
		t.Error("intersect with different attribute names should fail")
	}
	if _, err := a.Difference(c); err == nil {
		t.Error("difference with different attribute names should fail")
	}
}

func TestSetOpsOrderInsensitiveColumns(t *testing.T) {
	a := rel(t, "A", []int64{1, 2})
	ba := MustFromRows("B", MustSchema(TypeInt, "B", "A"), Tuple{Int(2), Int(1)})
	i, err := a.Intersect(ba)
	if err != nil {
		t.Fatal(err)
	}
	if i.Card() != 1 {
		t.Errorf("column-order-insensitive intersect card = %d, want 1", i.Card())
	}
}

func TestEqual(t *testing.T) {
	a := rel(t, "A", []int64{1, 2}, []int64{3, 4})
	b := rel(t, "B", []int64{3, 4}, []int64{1, 2})
	if !a.Equal(b) {
		t.Error("same tuple sets should be Equal")
	}
	c := rel(t, "C", []int64{1, 2})
	if a.Equal(c) {
		t.Error("different cardinalities Equal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := rel(t, "A", []int64{1, 2})
	b := a.Clone()
	b.Insert(Tuple{Int(9), Int(9)}) //nolint:errcheck
	if a.Card() != 1 || b.Card() != 2 {
		t.Error("clone shares state")
	}
}

func TestSortedDeterministic(t *testing.T) {
	a := rel(t, "A", []int64{3, 1}, []int64{1, 2}, []int64{2, 9})
	s := a.Sorted()
	if s[0][0].AsInt() != 1 || s[1][0].AsInt() != 2 || s[2][0].AsInt() != 3 {
		t.Errorf("Sorted order wrong: %v", s)
	}
	if !strings.Contains(a.String(), "[3 tuples]") {
		t.Errorf("String missing cardinality: %s", a.String())
	}
}

// Property: set identities over the common-schema operators.
func TestSetAlgebraProperties(t *testing.T) {
	gen := func(seed int64) *Relation {
		rng := rand.New(rand.NewSource(seed))
		r := New("R", abSchema())
		for i := 0; i < rng.Intn(20); i++ {
			r.Insert(Tuple{Int(rng.Int63n(5)), Int(rng.Int63n(5))}) //nolint:errcheck
		}
		return r
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		i, err1 := a.Intersect(b)
		d, err2 := a.Difference(b)
		u, err3 := a.Union(b)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		// |A| = |A∩B| + |A−B| and |A∪B| = |A| + |B| − |A∩B|.
		return a.Card() == i.Card()+d.Card() &&
			u.Card() == a.Card()+b.Card()-i.Card()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntRowsHelper(t *testing.T) {
	rows := IntRows([]int64{1, 2}, []int64{3, 4})
	if len(rows) != 2 || rows[1][1].AsInt() != 4 {
		t.Errorf("IntRows = %v", rows)
	}
}

func TestWithName(t *testing.T) {
	a := rel(t, "A", []int64{1, 2})
	b := a.WithName("B")
	if b.Name != "B" || a.Name != "A" || b.Card() != 1 {
		t.Error("WithName wrong")
	}
}
