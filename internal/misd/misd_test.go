package misd

import (
	"testing"

	"repro/internal/relation"
)

func newTestMKB(t *testing.T) *MKB {
	t.Helper()
	m := NewMKB()
	rels := []struct {
		name  string
		attrs []string
		card  int
	}{
		{"R", []string{"A", "B"}, 400},
		{"S", []string{"A", "C"}, 300},
		{"T", []string{"A", "D"}, 500},
	}
	for _, r := range rels {
		if err := m.RegisterRelation(RelationInfo{
			Ref:    RelRef{Source: "IS_" + r.name, Rel: r.name},
			Schema: relation.MustSchema(relation.TypeInt, r.attrs...),
			Card:   r.card,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestRegisterAndLookup(t *testing.T) {
	m := newTestMKB(t)
	if info := m.Relation("R"); info == nil || info.Card != 400 {
		t.Fatalf("Relation(R) = %+v", m.Relation("R"))
	}
	if m.Relation("Z") != nil {
		t.Error("unknown relation should be nil")
	}
	if got := len(m.Relations()); got != 3 {
		t.Errorf("Relations() len = %d", got)
	}
	if m.TypeOf("R", "A") != relation.TypeInt {
		t.Error("TypeOf wrong")
	}
	if m.TypeOf("R", "Z") != relation.TypeInvalid {
		t.Error("TypeOf missing attr should be invalid")
	}
}

func TestRegisterValidation(t *testing.T) {
	m := NewMKB()
	if err := m.RegisterRelation(RelationInfo{}); err == nil {
		t.Error("nameless registration should fail")
	}
	if err := m.RegisterRelation(RelationInfo{Ref: RelRef{Rel: "X"}}); err == nil {
		t.Error("schemaless registration should fail")
	}
}

func TestJoinConstraintLookup(t *testing.T) {
	m := newTestMKB(t)
	jc := JoinConstraint{
		R1:      RelRef{Rel: "R"},
		R2:      RelRef{Rel: "S"},
		Clauses: []JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}},
	}
	if err := m.AddJoinConstraint(jc); err != nil {
		t.Fatal(err)
	}
	if err := m.AddJoinConstraint(JoinConstraint{R1: RelRef{Rel: "R"}, R2: RelRef{Rel: "S"}}); err == nil {
		t.Error("clauseless join constraint should fail")
	}
	if got := m.JoinConstraints("R"); len(got) != 1 || got[0].R2.Rel != "S" {
		t.Errorf("JoinConstraints(R) = %v", got)
	}
	// Reverse lookup normalizes to the queried side.
	got := m.JoinConstraints("S")
	if len(got) != 1 || got[0].R1.Rel != "S" || got[0].R2.Rel != "R" {
		t.Errorf("JoinConstraints(S) = %v", got)
	}
	if _, ok := m.JoinConstraintBetween("S", "R"); !ok {
		t.Error("JoinConstraintBetween symmetric lookup failed")
	}
	if _, ok := m.JoinConstraintBetween("R", "T"); ok {
		t.Error("nonexistent join constraint found")
	}
}

func TestJoinConstraintReversedFlipsOps(t *testing.T) {
	jc := JoinConstraint{
		R1:      RelRef{Rel: "R"},
		R2:      RelRef{Rel: "S"},
		Clauses: []JoinClause{{Attr1: "A", Op: relation.OpLT, Attr2: "B"}},
	}
	rev := jc.Reversed()
	if rev.R1.Rel != "S" || rev.Clauses[0].Op != relation.OpGT {
		t.Errorf("Reversed = %+v", rev)
	}
	if back := rev.Reversed(); back.Clauses[0].Op != relation.OpLT {
		t.Error("double reverse not identity")
	}
}

func pcEqual(a, b string, rel Rel) PCConstraint {
	return PCConstraint{
		Left:  Fragment{Rel: RelRef{Rel: a}, Attrs: []string{"A"}},
		Right: Fragment{Rel: RelRef{Rel: b}, Attrs: []string{"A"}},
		Rel:   rel,
	}
}

func TestPCConstraintLookup(t *testing.T) {
	m := newTestMKB(t)
	if err := m.AddPCConstraint(pcEqual("R", "S", Subset)); err != nil {
		t.Fatal(err)
	}
	got := m.PCConstraints("R")
	if len(got) != 1 || got[0].Right.Rel.Rel != "S" || got[0].Rel != Subset {
		t.Errorf("PCConstraints(R) = %v", got)
	}
	// From the S side the containment flips.
	got = m.PCConstraints("S")
	if len(got) != 1 || got[0].Rel != Superset {
		t.Errorf("PCConstraints(S) = %v", got)
	}
	if _, ok := m.PCBetween("S", "R"); !ok {
		t.Error("PCBetween symmetric lookup failed")
	}
}

func TestPCValidation(t *testing.T) {
	bad := PCConstraint{
		Left:  Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A", "B"}},
		Right: Fragment{Rel: RelRef{Rel: "S"}, Attrs: []string{"A"}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("arity-mismatched PC should fail")
	}
	empty := PCConstraint{}
	if err := empty.Validate(); err == nil {
		t.Error("empty PC should fail")
	}
}

func TestPCAttrMapping(t *testing.T) {
	pc := PCConstraint{
		Left:  Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A", "B"}},
		Right: Fragment{Rel: RelRef{Rel: "S"}, Attrs: []string{"X", "Y"}},
	}
	m := pc.AttrMapping()
	if m["A"] != "X" || m["B"] != "Y" {
		t.Errorf("AttrMapping = %v", m)
	}
}

func TestUnregisterPrunesConstraints(t *testing.T) {
	m := newTestMKB(t)
	m.AddJoinConstraint(JoinConstraint{ //nolint:errcheck
		R1: RelRef{Rel: "R"}, R2: RelRef{Rel: "S"},
		Clauses: []JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}},
	})
	m.AddPCConstraint(pcEqual("R", "S", Equal)) //nolint:errcheck
	m.AddPCConstraint(pcEqual("S", "T", Equal)) //nolint:errcheck
	m.UnregisterRelation("R")
	if m.Relation("R") != nil {
		t.Error("R still registered")
	}
	if got := m.JoinConstraints("S"); len(got) != 0 {
		t.Errorf("join constraints mentioning R survived: %v", got)
	}
	if got := m.PCConstraints("S"); len(got) != 1 || got[0].Right.Rel.Rel != "T" {
		t.Errorf("PC pruning wrong: %v", got)
	}
}

func TestDropAttributePrunes(t *testing.T) {
	m := newTestMKB(t)
	m.AddJoinConstraint(JoinConstraint{ //nolint:errcheck
		R1: RelRef{Rel: "R"}, R2: RelRef{Rel: "S"},
		Clauses: []JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}},
	})
	m.AddPCConstraint(pcEqual("R", "S", Equal)) //nolint:errcheck
	if err := m.DropAttribute("R", "A"); err != nil {
		t.Fatal(err)
	}
	if m.Relation("R").Schema.Has("A") {
		t.Error("attribute not dropped from schema")
	}
	if len(m.JoinConstraints("R")) != 0 {
		t.Error("join constraint over dropped attribute survived")
	}
	if len(m.PCConstraints("R")) != 0 {
		t.Error("PC constraint over dropped attribute survived")
	}
	if err := m.DropAttribute("R", "Z"); err == nil {
		t.Error("dropping missing attribute should fail")
	}
	if err := m.DropAttribute("Z", "A"); err == nil {
		t.Error("dropping from missing relation should fail")
	}
}

func TestCheckConsistency(t *testing.T) {
	m := newTestMKB(t)
	m.AddJoinConstraint(JoinConstraint{ //nolint:errcheck
		R1: RelRef{Rel: "R"}, R2: RelRef{Rel: "S"},
		Clauses: []JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}},
	})
	m.AddPCConstraint(pcEqual("R", "S", Equal)) //nolint:errcheck
	if errs := m.CheckConsistency(); len(errs) != 0 {
		t.Fatalf("clean MKB reported: %v", errs)
	}
	// Break it: constraint over a missing attribute.
	m.AddPCConstraint(PCConstraint{ //nolint:errcheck
		Left:  Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"Zed"}},
		Right: Fragment{Rel: RelRef{Rel: "S"}, Attrs: []string{"A"}},
	})
	if errs := m.CheckConsistency(); len(errs) == 0 {
		t.Error("inconsistency not detected")
	}
}

func TestCheckConsistencyTypeMismatch(t *testing.T) {
	m := NewMKB()
	m.RegisterRelation(RelationInfo{ //nolint:errcheck
		Ref: RelRef{Rel: "R"},
		Schema: relation.NewSchema(
			relation.Attribute{Name: "A", Type: relation.TypeInt},
		),
	})
	m.RegisterRelation(RelationInfo{ //nolint:errcheck
		Ref: RelRef{Rel: "S"},
		Schema: relation.NewSchema(
			relation.Attribute{Name: "A", Type: relation.TypeString},
		),
	})
	m.AddPCConstraint(pcEqual("R", "S", Equal)) //nolint:errcheck
	if errs := m.CheckConsistency(); len(errs) == 0 {
		t.Error("type mismatch not detected")
	}
}

func TestRelFlip(t *testing.T) {
	if Subset.Flip() != Superset || Superset.Flip() != Subset || Equal.Flip() != Equal {
		t.Error("Flip wrong")
	}
}

func TestFragmentSelectivity(t *testing.T) {
	noSel := Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A"}}
	if noSel.HasSelection() || noSel.EffectiveSelectivity() != 1 {
		t.Error("fragment without condition should have σ=1")
	}
	withSel := Fragment{
		Rel: RelRef{Rel: "R"}, Attrs: []string{"A"},
		Cond:        relation.AttrConst("B", relation.OpGT, relation.Int(5)),
		Selectivity: 0.25,
	}
	if !withSel.HasSelection() || withSel.EffectiveSelectivity() != 0.25 {
		t.Error("fragment with condition mishandled")
	}
	defaulted := withSel
	defaulted.Selectivity = 0
	if defaulted.EffectiveSelectivity() != 0.5 {
		t.Error("unset selectivity should default to 0.5")
	}
	trueCond := Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A"}, Cond: relation.True{}}
	if trueCond.HasSelection() {
		t.Error("TRUE condition is not a selection")
	}
	emptyAnd := Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A"}, Cond: relation.And{}}
	if emptyAnd.HasSelection() {
		t.Error("empty conjunction is not a selection")
	}
}

func TestContainmentBetween(t *testing.T) {
	m := newTestMKB(t)
	m.AddPCConstraint(pcEqual("R", "S", Subset)) //nolint:errcheck
	rel, ok := m.ContainmentBetween("R", "S")
	if !ok || rel != Subset {
		t.Errorf("ContainmentBetween(R,S) = %v, %v", rel, ok)
	}
	rel, ok = m.ContainmentBetween("S", "R")
	if !ok || rel != Superset {
		t.Errorf("ContainmentBetween(S,R) = %v, %v", rel, ok)
	}
	if _, ok := m.ContainmentBetween("R", "T"); ok {
		t.Error("unconstrained pair reported containment")
	}
	// A selection on either side invalidates whole-relation containment.
	m2 := newTestMKB(t)
	m2.AddPCConstraint(PCConstraint{ //nolint:errcheck
		Left: Fragment{Rel: RelRef{Rel: "R"}, Attrs: []string{"A"},
			Cond: relation.AttrConst("B", relation.OpGT, relation.Int(0))},
		Right: Fragment{Rel: RelRef{Rel: "S"}, Attrs: []string{"A"}},
		Rel:   Subset,
	})
	if _, ok := m2.ContainmentBetween("R", "S"); ok {
		t.Error("selection-bearing PC should not imply whole-relation containment")
	}
}

func TestStringRenderings(t *testing.T) {
	ref := RelRef{Source: "IS1", Rel: "R"}
	if ref.String() != "IS1.R" || (RelRef{Rel: "R"}).String() != "R" {
		t.Error("RelRef.String wrong")
	}
	tc := TypeConstraint{Rel: RelRef{Rel: "R"}, Attr: "A", Type: relation.TypeInt}
	if tc.String() != "TC(R.A) = int" {
		t.Errorf("TypeConstraint.String = %q", tc.String())
	}
	if Subset.String() != "<=" || Equal.String() != "==" || Superset.String() != ">=" {
		t.Error("Rel.String wrong")
	}
}

// TestReregistrationLeavesNoResidue replays 1,000 schema changes of one
// relation the way the space lands them — add-attribute re-registers,
// rename-attribute drops and re-registers, delete-attribute drops — each
// cycle ending on the schema it started from, and requires the MKB to read
// exactly as after the one registration: relation records, attribute types,
// join and PC constraints.
func TestReregistrationLeavesNoResidue(t *testing.T) {
	build := func() *MKB {
		m := newTestMKB(t)
		jc := JoinConstraint{R1: RelRef{Rel: "R"}, R2: RelRef{Rel: "S"}, Clauses: []JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}}}
		if err := m.AddJoinConstraint(jc); err != nil {
			t.Fatal(err)
		}
		if err := m.AddPCConstraint(pcEqual("R", "T", Equal)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	once, m := build(), build()
	register := func(names ...string) {
		t.Helper()
		if err := m.RegisterRelation(RelationInfo{Ref: RelRef{Source: "IS_R", Rel: "R"}, Schema: relation.MustSchema(relation.TypeInt, names...), Card: 400}); err != nil {
			t.Fatal(err)
		}
	}
	drop := func(attr string) {
		t.Helper()
		if err := m.DropAttribute("R", attr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0: // add C, then delete it
			register("A", "B", "C")
			drop("C")
		case 1: // rename B to X and back
			drop("B")
			register("A", "X")
			drop("X")
			register("A", "B")
		default: // the same schema again
			register("A", "B")
		}
	}
	if len(m.Relations()) != len(once.Relations()) {
		t.Fatalf("%d relations, want %d", len(m.Relations()), len(once.Relations()))
	}
	for i, info := range m.Relations() {
		want := once.Relations()[i]
		if info.Ref != want.Ref || info.Card != want.Card || info.Schema.String() != want.Schema.String() {
			t.Errorf("relation %d = %+v, want %+v", i, info, want)
		}
		for _, a := range append(want.Schema.Names(), "C", "X") {
			if m.TypeOf(info.Ref.Rel, a) != once.TypeOf(want.Ref.Rel, a) {
				t.Errorf("TypeOf(%s, %s) = %s, want %s", info.Ref.Rel, a, m.TypeOf(info.Ref.Rel, a), once.TypeOf(want.Ref.Rel, a))
			}
		}
	}
	if len(m.AllJoinConstraints()) != 1 || len(m.AllPCConstraints()) != 1 ||
		m.AllJoinConstraints()[0].String() != once.AllJoinConstraints()[0].String() ||
		m.AllPCConstraints()[0].String() != once.AllPCConstraints()[0].String() {
		t.Errorf("constraints %v %v, want %v %v", m.AllJoinConstraints(), m.AllPCConstraints(), once.AllJoinConstraints(), once.AllPCConstraints())
	}
}
