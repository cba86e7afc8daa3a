package eve

import (
	"context"
	"strings"
	"testing"
)

// buildPartsSystem mirrors the quickstart example: Parts at IS1, an exact
// mirror at IS2, a PC constraint between them.
func buildPartsSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	sp := NewSpace()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.AddSource("IS2"); err != nil {
		t.Fatal(err)
	}
	parts := NewRelation("Parts", NewSchema(
		Attribute{Name: "PartID", Type: TypeInt},
		Attribute{Name: "Name", Type: TypeString},
		Attribute{Name: "Price", Type: TypeInt},
	))
	mirror := NewRelation("PartsMirror", NewSchema(
		Attribute{Name: "ID", Type: TypeInt},
		Attribute{Name: "PName", Type: TypeString},
	))
	for i, name := range []string{"bolt", "nut", "washer"} {
		id := Int(int64(i + 1))
		if err := parts.Insert(Tuple{id, Str(name), Int(int64(10 * (i + 1)))}); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Insert(Tuple{id, Str(name)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.AddRelation("IS1", parts); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", mirror); err != nil {
		t.Fatal(err)
	}
	if err := sp.MKB().AddPCConstraint(PCConstraint{
		Left:  Fragment{Rel: RelRef{Rel: "Parts"}, Attrs: []string{"PartID", "Name"}},
		Right: Fragment{Rel: RelRef{Rel: "PartsMirror"}, Attrs: []string{"ID", "PName"}},
		Rel:   Equal,
	}); err != nil {
		t.Fatal(err)
	}
	sys, err := New(append([]Option{WithSpace(sp)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	sys := buildPartsSystem(t)
	view, err := sys.DefineView(context.Background(), `
		CREATE VIEW Catalog (VE = ~) AS
		SELECT P.PartID (AR = true), P.Name (AR = true), P.Price (AD = true)
		FROM Parts P (RR = true)`)
	if err != nil {
		t.Fatal(err)
	}
	if view.Extent.Card() != 3 {
		t.Fatalf("extent = %d", view.Extent.Card())
	}
	results, err := sys.ApplyChange(context.Background(), DeleteRelation("Parts"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Deceased {
		t.Fatalf("results = %+v", results)
	}
	if view.Def.From[0].Rel != "PartsMirror" {
		t.Errorf("adopted relation = %q", view.Def.From[0].Rel)
	}
	if view.Extent.Card() != 3 {
		t.Errorf("re-materialized extent = %d", view.Extent.Card())
	}
	// The exposed column names survive the substitution.
	names := view.Def.OutputNames()
	if len(names) != 2 || names[0] != "PartID" || names[1] != "Name" {
		t.Errorf("output names = %v", names)
	}
}

func TestPublicAPIUpdates(t *testing.T) {
	sys := buildPartsSystem(t)
	view, err := sys.DefineView(context.Background(), `CREATE VIEW V AS SELECT P.Name FROM Parts P WHERE P.Price > 15`)
	if err != nil {
		t.Fatal(err)
	}
	if view.Extent.Card() != 2 {
		t.Fatalf("initial extent = %d", view.Extent.Card())
	}
	if _, err := sys.ApplyUpdates(context.Background(), []Update{InsertTuple("Parts", Tuple{Int(9), Str("gear"), Int(99)})}); err != nil {
		t.Fatal(err)
	}
	if view.Extent.Card() != 3 {
		t.Errorf("extent after insert = %d", view.Extent.Card())
	}
	if _, err := sys.ApplyUpdates(context.Background(), []Update{DeleteTuple("Parts", Tuple{Int(9), Str("gear"), Int(99)})}); err != nil {
		t.Fatal(err)
	}
	if view.Extent.Card() != 2 {
		t.Errorf("extent after delete = %d", view.Extent.Card())
	}
}

func TestPublicAPIChangeConstructors(t *testing.T) {
	if DeleteRelation("R").Rel != "R" {
		t.Error("DeleteRelation wrong")
	}
	if c := DeleteAttribute("R", "A"); c.Rel != "R" || c.Attr != "A" {
		t.Error("DeleteAttribute wrong")
	}
	if c := RenameRelation("R", "S"); c.NewName != "S" {
		t.Error("RenameRelation wrong")
	}
	if c := RenameAttribute("R", "A", "B"); c.Attr != "A" || c.NewName != "B" {
		t.Error("RenameAttribute wrong")
	}
	if c := AddAttribute("R", "Z", TypeInt); c.AttrType != TypeInt {
		t.Error("AddAttribute wrong")
	}
}

func TestPublicAPIParsePrintRoundTrip(t *testing.T) {
	v, err := ParseView("CREATE VIEW V (VE = <=) AS SELECT R.A (AD = true) FROM R (RR = true)")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseView(PrintView(v))
	if err != nil {
		t.Fatal(err)
	}
	if v.Signature() != again.Signature() {
		t.Error("public round trip changed the view")
	}
}

func TestPublicAPIDefaults(t *testing.T) {
	tr := DefaultTradeoff()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.W1 != 0.7 || tr.W2 != 0.3 {
		t.Errorf("weights = %g, %g", tr.W1, tr.W2)
	}
	cm := DefaultCostModel()
	if cm.JoinSelectivity != 0.005 || cm.BlockingFactor != 10 {
		t.Errorf("cost model = %+v", cm)
	}
}

func TestPublicAPIRenameKeepsViewWorking(t *testing.T) {
	sys := buildPartsSystem(t)
	view, err := sys.DefineView(context.Background(), `CREATE VIEW V AS SELECT Parts.Name FROM Parts WHERE Parts.Price > 15`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyChange(context.Background(), RenameRelation("Parts", "Inventory")); err != nil {
		t.Fatal(err)
	}
	if view.Deceased {
		t.Fatal("rename should never kill a view")
	}
	if view.Def.From[0].Rel != "Inventory" {
		t.Errorf("FROM = %+v", view.Def.From)
	}
	if view.Extent.Card() != 2 {
		t.Errorf("extent after rename = %d", view.Extent.Card())
	}
	// Data updates keep flowing to the renamed relation.
	if _, err := sys.ApplyUpdates(context.Background(), []Update{InsertTuple("Inventory", Tuple{Int(8), Str("cog"), Int(80)})}); err != nil {
		t.Fatal(err)
	}
	if view.Extent.Card() != 3 {
		t.Errorf("extent after post-rename insert = %d", view.Extent.Card())
	}
}

func TestPublicAPIExplain(t *testing.T) {
	sys := buildPartsSystem(t)
	view, err := sys.DefineView(context.Background(), `CREATE VIEW V AS
		SELECT P.Name, M.ID FROM Parts P, PartsMirror M
		WHERE P.PartID = M.ID AND P.Price > 10`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Explain(view.Def, sys.Space)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Plan V", "Dedup", "Project", "HashJoin", "Scan Parts AS P", "Scan PartsMirror AS M", "Filter"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain output missing %q:\n%s", want, text)
		}
	}
}
