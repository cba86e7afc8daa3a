package space

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	sp := New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.AddSource("IS2"); err != nil {
		t.Fatal(err)
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10}, []int64{2, 20})...)
	s := relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "C"),
		relation.IntRows([]int64{1, 100})...)
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", s); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestRegistration(t *testing.T) {
	sp := testSpace(t)
	if _, err := sp.AddSource("IS1"); err == nil {
		t.Error("duplicate source should fail")
	}
	dup := relation.New("R", relation.MustSchema(relation.TypeInt, "X"))
	if err := sp.AddRelation("IS2", dup); err == nil {
		t.Error("duplicate relation name should fail")
	}
	if err := sp.AddRelation("nowhere", relation.New("Q", relation.MustSchema(relation.TypeInt, "X"))); err == nil {
		t.Error("unknown source should fail")
	}
	if sp.Home("R") != "IS1" || sp.Home("S") != "IS2" || sp.Home("Z") != "" {
		t.Error("Home wrong")
	}
	if got := sp.RelationNames(); len(got) != 2 || got[0] != "R" {
		t.Errorf("RelationNames = %v", got)
	}
	if got := sp.SourceNames(); len(got) != 2 {
		t.Errorf("SourceNames = %v", got)
	}
	if sp.Source("IS1").Relation("R") == nil {
		t.Error("source lookup failed")
	}
	if got := sp.Source("IS1").RelationNames(); len(got) != 1 || got[0] != "R" {
		t.Errorf("source relation names = %v", got)
	}
	// MKB mirrors registration.
	if info := sp.MKB().Relation("R"); info == nil || info.Card != 2 {
		t.Errorf("MKB registration = %+v", info)
	}
}

// TestInsertDeleteSyncMKBCard: a data update lands as a new relation
// through ReplaceRelation, which refreshes the MKB cardinality; the
// registered relation itself is sealed, and an unknown name is an error.
func TestInsertDeleteSyncMKBCard(t *testing.T) {
	sp := testSpace(t)
	row := relation.Tuple{relation.Int(3), relation.Int(30)}
	if err := sp.Relation("R").Insert(row); !errors.Is(err, relation.ErrSealed) {
		t.Fatalf("Insert into a registered relation = %v, want ErrSealed", err)
	}
	for _, c := range []struct {
		ins, del []relation.Tuple
		card     int
	}{{[]relation.Tuple{row}, nil, 3}, {nil, []relation.Tuple{row}, 2}} {
		next, err := sp.Relation("R").WithDelta(c.ins, c.del)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.ReplaceRelation("R", next); err != nil {
			t.Fatal(err)
		}
		if got := sp.MKB().Relation("R").Card; got != c.card {
			t.Errorf("MKB card %d after ReplaceRelation, want %d", got, c.card)
		}
	}
	if err := sp.ReplaceRelation("Z", relation.New("Z", relation.MustSchema(relation.TypeInt, "A"))); err == nil {
		t.Error("replacing a missing relation should fail")
	}
}

func TestDeleteRelationChange(t *testing.T) {
	sp := testSpace(t)
	var notified []Change
	sp.Subscribe(func(c Change) { notified = append(notified, c) })
	if err := sp.ApplyChange(Change{Kind: DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if sp.Relation("R") != nil || sp.Home("R") != "" {
		t.Error("relation not removed")
	}
	if sp.MKB().Relation("R") != nil {
		t.Error("MKB record not removed")
	}
	if len(notified) != 1 || notified[0].Kind != DeleteRelation {
		t.Errorf("notifications = %v", notified)
	}
	if err := sp.ApplyChange(Change{Kind: DeleteRelation, Rel: "R"}); err == nil {
		t.Error("double delete should fail")
	}
}

func TestDeleteAttributeChange(t *testing.T) {
	sp := testSpace(t)
	if err := sp.ApplyChange(Change{Kind: DeleteAttribute, Rel: "R", Attr: "B"}); err != nil {
		t.Fatal(err)
	}
	r := sp.Relation("R")
	if r.Schema().Has("B") {
		t.Error("attribute survived in extent schema")
	}
	if r.Card() != 2 {
		t.Errorf("card after projection = %d", r.Card())
	}
	if sp.MKB().Relation("R").Schema.Has("B") {
		t.Error("attribute survived in MKB schema")
	}
	if err := sp.ApplyChange(Change{Kind: DeleteAttribute, Rel: "R", Attr: "A"}); err == nil {
		t.Error("deleting the last attribute should fail")
	}
	if err := sp.ApplyChange(Change{Kind: DeleteAttribute, Rel: "R", Attr: "Z"}); err == nil {
		t.Error("deleting a missing attribute should fail")
	}
}

func TestDeleteAttributeMayShrinkExtent(t *testing.T) {
	sp := New()
	sp.AddSource("IS1") //nolint:errcheck
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10}, []int64{1, 20})...)
	sp.AddRelation("IS1", r) //nolint:errcheck
	if err := sp.ApplyChange(Change{Kind: DeleteAttribute, Rel: "R", Attr: "B"}); err != nil {
		t.Fatal(err)
	}
	// Both tuples collapse to A=1 under set semantics.
	if got := sp.Relation("R").Card(); got != 1 {
		t.Errorf("card = %d, want 1", got)
	}
	if sp.MKB().Relation("R").Card != 1 {
		t.Error("MKB cardinality not refreshed after projection")
	}
}

func TestAddAttributeChange(t *testing.T) {
	sp := testSpace(t)
	if err := sp.ApplyChange(Change{Kind: AddAttribute, Rel: "R", Attr: "D", AttrType: relation.TypeInt}); err != nil {
		t.Fatal(err)
	}
	r := sp.Relation("R")
	if !r.Schema().Has("D") {
		t.Error("attribute not added")
	}
	for _, tu := range r.Tuples() {
		if !tu[r.Schema().IndexOf("D")].IsNull() {
			t.Error("new attribute should be NULL")
		}
	}
	if err := sp.ApplyChange(Change{Kind: AddAttribute, Rel: "R", Attr: "A"}); err == nil {
		t.Error("adding an existing attribute should fail")
	}
}

func TestRenameAttributeChange(t *testing.T) {
	sp := testSpace(t)
	if err := sp.ApplyChange(Change{Kind: RenameAttribute, Rel: "R", Attr: "B", NewName: "B2"}); err != nil {
		t.Fatal(err)
	}
	r := sp.Relation("R")
	if !r.Schema().Has("B2") || r.Schema().Has("B") {
		t.Errorf("rename failed: %v", r.Schema().Names())
	}
	if !sp.MKB().Relation("R").Schema.Has("B2") {
		t.Error("MKB schema not renamed")
	}
}

func TestRenameRelationChange(t *testing.T) {
	sp := testSpace(t)
	if err := sp.ApplyChange(Change{Kind: RenameRelation, Rel: "R", NewName: "R9"}); err != nil {
		t.Fatal(err)
	}
	if sp.Relation("R") != nil || sp.Relation("R9") == nil {
		t.Error("rename failed")
	}
	if sp.Home("R9") != "IS1" {
		t.Error("home lost")
	}
	if sp.MKB().Relation("R9") == nil {
		t.Error("MKB not re-registered")
	}
	if err := sp.ApplyChange(Change{Kind: RenameRelation, Rel: "S", NewName: "R9"}); err == nil {
		t.Error("renaming onto an existing name should fail")
	}
}

func TestAddRelationChangeNotifies(t *testing.T) {
	sp := testSpace(t)
	var got []Change
	sp.Subscribe(func(c Change) { got = append(got, c) })
	nr := relation.New("N", relation.MustSchema(relation.TypeInt, "X"))
	if err := sp.AddRelation("IS1", nr); err != nil {
		t.Fatal(err)
	}
	if err := sp.ApplyChange(Change{Kind: AddRelation, Rel: "N"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != AddRelation {
		t.Errorf("notifications = %v", got)
	}
	if err := sp.ApplyChange(Change{Kind: AddRelation, Rel: "Ghost"}); err == nil {
		t.Error("announcing an unplaced relation should fail")
	}
}

func TestChangeStrings(t *testing.T) {
	cases := []Change{
		{Kind: DeleteAttribute, Rel: "R", Attr: "A"},
		{Kind: AddAttribute, Rel: "R", Attr: "A", AttrType: relation.TypeInt},
		{Kind: RenameAttribute, Rel: "R", Attr: "A", NewName: "B"},
		{Kind: DeleteRelation, Rel: "R"},
		{Kind: AddRelation, Rel: "R"},
		{Kind: RenameRelation, Rel: "R", NewName: "S"},
	}
	for _, c := range cases {
		if c.String() == "" || c.Kind.String() == "unknown-change" {
			t.Errorf("bad rendering for %+v", c)
		}
	}
}

func TestPopulateHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := relation.New("Base", relation.MustSchema(relation.TypeInt, "A", "B"))
	if err := Populate(base, 50, 1000, rng); err != nil {
		t.Fatal(err)
	}
	if base.Card() != 50 {
		t.Fatalf("Populate card = %d", base.Card())
	}
	sub := relation.New("Sub", relation.MustSchema(relation.TypeInt, "A"))
	if err := PopulateSubset(sub, base, 20, rng); err != nil {
		t.Fatal(err)
	}
	if sub.Card() > 20 {
		t.Errorf("subset card = %d", sub.Card())
	}
	proj, err := base.Project("A")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sub.Difference(proj)
	if err != nil {
		t.Fatal(err)
	}
	if d.Card() != 0 {
		t.Error("subset contains foreign tuples")
	}
	super := relation.New("Super", relation.MustSchema(relation.TypeInt, "A"))
	if err := PopulateSuperset(super, base, 80, 1000, rng); err != nil {
		t.Fatal(err)
	}
	if super.Card() != 80 {
		t.Errorf("superset card = %d", super.Card())
	}
	d2, err := proj.Difference(super)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Card() != 0 {
		t.Error("superset does not contain the base projection")
	}
	if RandomTuple(relation.New("E", relation.MustSchema(relation.TypeInt, "A")), rng) != nil {
		t.Error("RandomTuple on empty relation should be nil")
	}
	if RandomTuple(base, rng) == nil {
		t.Error("RandomTuple on populated relation should not be nil")
	}
}

// TestPopulateSealedFails: Populate returns Insert's error on a sealed
// relation instead of retrying it forever.
func TestPopulateSealedFails(t *testing.T) {
	sealed := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A"))
	if err := Populate(sealed, 5, 10, rand.New(rand.NewSource(1))); !errors.Is(err, relation.ErrSealed) {
		t.Fatalf("Populate into a sealed relation = %v, want ErrSealed", err)
	}
	if err := PopulateSuperset(sealed, sealed, 5, 10, rand.New(rand.NewSource(1))); !errors.Is(err, relation.ErrSealed) {
		t.Fatalf("PopulateSuperset into a sealed relation = %v, want ErrSealed", err)
	}
}
