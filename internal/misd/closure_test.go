package misd

import (
	"testing"

	"repro/internal/relation"
)

// replicaMKB: R(A,B) with replicas S(A,C) and T(A,D) of its A column.
func replicaMKB(t *testing.T) *MKB {
	t.Helper()
	m := NewMKB()
	reg := func(name string, attrs ...string) {
		if err := m.RegisterRelation(RelationInfo{
			Ref:    RelRef{Rel: name},
			Schema: relation.MustSchema(relation.TypeInt, attrs...),
			Card:   100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg("R", "A", "B")
	reg("S", "A", "C")
	reg("T", "A", "D")
	for _, repl := range []string{"S", "T"} {
		if err := m.AddPCConstraint(PCConstraint{
			Left:  Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A"}},
			Right: Fragment{Rel: RelRef{Rel: repl}, Attrs: []string{"A"}},
			Rel:   Equal,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestClosureDerivesReplicaEquality(t *testing.T) {
	m := replicaMKB(t)
	if _, ok := m.PCBetween("S", "T"); ok {
		t.Fatal("S–T constraint should not exist before closure")
	}
	added := m.DerivePCClosure()
	if added == 0 {
		t.Fatal("closure derived nothing")
	}
	pc, ok := m.PCBetween("S", "T")
	if !ok {
		t.Fatal("closure failed to derive S–T")
	}
	if pc.Rel != Equal {
		t.Errorf("derived relation = %v, want Equal", pc.Rel)
	}
	if pc.AttrMapping()["A"] != "A" {
		t.Errorf("derived mapping = %v", pc.AttrMapping())
	}
}

func TestClosureIdempotent(t *testing.T) {
	m := replicaMKB(t)
	first := m.DerivePCClosure()
	second := m.DerivePCClosure()
	if second != 0 {
		t.Errorf("second closure added %d (first added %d)", second, first)
	}
}

func TestClosureComposesContainments(t *testing.T) {
	m := NewMKB()
	reg := func(name string) {
		m.RegisterRelation(RelationInfo{ //nolint:errcheck
			Ref:    RelRef{Rel: name},
			Schema: relation.MustSchema(relation.TypeInt, "A"),
			Card:   10,
		})
	}
	reg("A1")
	reg("B1")
	reg("C1")
	reg("D1")
	add := func(l, r string, rel Rel) {
		m.AddPCConstraint(PCConstraint{ //nolint:errcheck
			Left:  Fragment{Rel: RelRef{Rel: l}, Attrs: []string{"A"}},
			Right: Fragment{Rel: RelRef{Rel: r}, Attrs: []string{"A"}},
			Rel:   rel,
		})
	}
	add("A1", "B1", Subset)
	add("B1", "C1", Subset)
	add("C1", "D1", Superset)
	m.DerivePCClosure()
	// ⊆ ∘ ⊆ = ⊆.
	pc, ok := m.PCBetween("A1", "C1")
	if !ok || pc.Rel != Subset {
		t.Errorf("A1–C1 = %v, %v; want Subset", pc.Rel, ok)
	}
	// ⊆ ∘ ⊇ is incomparable: no constraint between B1 and D1 should have
	// been derived from B1 ⊆ C1 ⊇ D1... careful: C1 ⊇ D1 means D1 ⊆ C1;
	// B1 ⊆ C1 and D1 ⊆ C1 give nothing about B1 vs D1.
	if _, ok := m.PCBetween("B1", "D1"); ok {
		t.Error("incomparable pair B1–D1 wrongly derived")
	}
}

func TestClosureSkipsSelections(t *testing.T) {
	m := NewMKB()
	for _, name := range []string{"X1", "Y1", "Z1"} {
		m.RegisterRelation(RelationInfo{ //nolint:errcheck
			Ref:    RelRef{Rel: name},
			Schema: relation.MustSchema(relation.TypeInt, "A", "B"),
			Card:   10,
		})
	}
	m.AddPCConstraint(PCConstraint{ //nolint:errcheck
		Left: Fragment{Rel: RelRef{Rel: "X1"}, Attrs: []string{"A"},
			Cond: relation.AttrConst("B", relation.OpGT, relation.Int(0))},
		Right: Fragment{Rel: RelRef{Rel: "Y1"}, Attrs: []string{"A"}},
		Rel:   Subset,
	})
	m.AddPCConstraint(PCConstraint{ //nolint:errcheck
		Left:  Fragment{Rel: RelRef{Rel: "Y1"}, Attrs: []string{"A"}},
		Right: Fragment{Rel: RelRef{Rel: "Z1"}, Attrs: []string{"A"}},
		Rel:   Subset,
	})
	if added := m.DerivePCClosure(); added != 0 {
		t.Errorf("selection-bearing chain derived %d constraints", added)
	}
}

func TestClosureAttributeComposition(t *testing.T) {
	m := NewMKB()
	m.RegisterRelation(RelationInfo{Ref: RelRef{Rel: "P1"}, //nolint:errcheck
		Schema: relation.MustSchema(relation.TypeInt, "X", "Y"), Card: 5})
	m.RegisterRelation(RelationInfo{Ref: RelRef{Rel: "Q1"}, //nolint:errcheck
		Schema: relation.MustSchema(relation.TypeInt, "M", "N"), Card: 5})
	m.RegisterRelation(RelationInfo{Ref: RelRef{Rel: "W1"}, //nolint:errcheck
		Schema: relation.MustSchema(relation.TypeInt, "U"), Card: 5})
	// P1(X,Y) -> Q1(M,N); Q1(M) -> W1(U). Composition keeps only X -> U.
	m.AddPCConstraint(PCConstraint{ //nolint:errcheck
		Left:  Fragment{Rel: RelRef{Rel: "P1"}, Attrs: []string{"X", "Y"}},
		Right: Fragment{Rel: RelRef{Rel: "Q1"}, Attrs: []string{"M", "N"}},
		Rel:   Equal,
	})
	m.AddPCConstraint(PCConstraint{ //nolint:errcheck
		Left:  Fragment{Rel: RelRef{Rel: "Q1"}, Attrs: []string{"M"}},
		Right: Fragment{Rel: RelRef{Rel: "W1"}, Attrs: []string{"U"}},
		Rel:   Equal,
	})
	m.DerivePCClosure()
	pc, ok := m.PCBetween("P1", "W1")
	if !ok {
		t.Fatal("composition not derived")
	}
	mapping := pc.AttrMapping()
	if mapping["X"] != "U" || len(mapping) != 1 {
		t.Errorf("composed mapping = %v, want {X:U}", mapping)
	}
}

// TestPCGenerationMovesWithThePCSet holds PCGeneration to the PC list: it
// moves on every add, derivation and prune, and on nothing that leaves the
// list as it was.
func TestPCGenerationMovesWithThePCSet(t *testing.T) {
	m := replicaMKB(t)
	steps := []struct {
		name  string
		apply func()
		moves bool
	}{
		{"derive", func() { m.DerivePCClosure() }, true},
		{"derive again", func() { m.DerivePCClosure() }, false},
		{"drop an attribute no constraint reads", func() {
			if err := m.DropAttribute("R", "B"); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"unregister a relation no constraint reads", func() { m.UnregisterRelation("X") }, false},
		{"unregister T", func() { m.UnregisterRelation("T") }, true},
		{"drop S.A", func() {
			if err := m.DropAttribute("S", "A"); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"add", func() {
			if err := m.AddPCConstraint(PCConstraint{
				Left:  Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A"}},
				Right: Fragment{Rel: RelRef{Rel: "S"}, Attrs: []string{"C"}},
				Rel:   Equal,
			}); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, s := range steps {
		before, n := m.PCGeneration(), len(m.AllPCConstraints())
		s.apply()
		if moved := m.PCGeneration() != before; moved != s.moves {
			t.Fatalf("%s: generation moved %v (%d -> %d constraints), want %v", s.name, moved, n, len(m.AllPCConstraints()), s.moves)
		}
	}
	if pcs := m.AllPCConstraints(); len(pcs) != 1 {
		t.Fatalf("constraints %v, want the one added after the loss of T and S.A", pcs)
	}
}
