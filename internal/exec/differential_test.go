package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
)

// quickstartSpace rebuilds the examples/quickstart fixture: two sources
// holding Parts and its (PartID, Name) replica PartsMirror.
func quickstartSpace(t *testing.T) *space.Space {
	t.Helper()
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	parts := relation.New("Parts", relation.NewSchema(
		relation.Attribute{Name: "PartID", Type: relation.TypeInt},
		relation.Attribute{Name: "Name", Type: relation.TypeString},
		relation.Attribute{Name: "Price", Type: relation.TypeInt},
	))
	mirror := relation.New("PartsMirror", relation.NewSchema(
		relation.Attribute{Name: "ID", Type: relation.TypeInt},
		relation.Attribute{Name: "PName", Type: relation.TypeString},
	))
	for i, name := range []string{"bolt", "nut", "washer", "gear", "axle"} {
		id := relation.Int(int64(i + 1))
		if err := parts.Insert(relation.Tuple{id, relation.String(name), relation.Int(int64(10 * (i + 1)))}); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Insert(relation.Tuple{id, relation.String(name)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.AddRelation("IS1", parts); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", mirror); err != nil {
		t.Fatal(err)
	}
	if err := sp.MKB().AddPCConstraint(misd.PCConstraint{
		Left:  misd.Fragment{Rel: misd.RelRef{Rel: "Parts"}, Attrs: []string{"PartID", "Name"}},
		Right: misd.Fragment{Rel: misd.RelRef{Rel: "PartsMirror"}, Attrs: []string{"ID", "PName"}},
		Rel:   misd.Equal,
	}); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestPlannedMatchesNaive is the planner/executor parity suite: every
// fixture view of the repository's scenarios evaluates through both the
// naive reference path and the physical-plan path, and the extents must be
// identical tuple sets over identical column names.
func TestPlannedMatchesNaive(t *testing.T) {
	type fixture struct {
		name  string
		space func(t *testing.T) *space.Space
		views []*esql.ViewDef
	}

	travel := func(t *testing.T) *space.Space {
		sp, err := scenario.TravelSpace(7)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	survival := func(t *testing.T) *space.Space {
		sp, err := scenario.Exp1Space(1)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	exp4 := func(t *testing.T) *space.Space {
		sp, err := scenario.Exp4Space(1, true)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	uniform := func(t *testing.T) *space.Space {
		p := scenario.DefaultParams()
		sp, err := scenario.UniformSpace(p, []int{2, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}

	fixtures := []fixture{
		{
			name:  "quickstart",
			space: quickstartSpace,
			views: []*esql.ViewDef{
				esql.MustParse(`CREATE VIEW Catalog (VE = ~) AS
					SELECT P.PartID (AR = true), P.Name (AR = true), P.Price (AD = true)
					FROM Parts P (RR = true)`),
				esql.MustParse(`CREATE VIEW Cheap AS
					SELECT P.Name FROM Parts P WHERE P.Price < 30`),
				esql.MustParse(`CREATE VIEW Paired AS
					SELECT P.PartID, M.PName FROM Parts P, PartsMirror M
					WHERE P.PartID = M.ID AND P.Price > 10`),
			},
		},
		{
			name:  "travel",
			space: travel,
			views: []*esql.ViewDef{
				esql.MustParse(scenario.AsiaCustomerESQL),
				esql.MustParse(`CREATE VIEW Itinerary AS
					SELECT C.Name, F.Dest, B.Destination
					FROM Customer C, FlightRes F, Booking B
					WHERE C.Name = F.PName AND F.PName = B.Passenger`),
				esql.MustParse(`CREATE VIEW Lodging AS
					SELECT B.Passenger, H.HName
					FROM Booking B, Hotel H
					WHERE B.Destination = H.City`),
			},
		},
		{
			name:  "survival",
			space: survival,
			views: []*esql.ViewDef{scenario.Exp1View()},
		},
		{
			name:  "exp4",
			space: exp4,
			views: []*esql.ViewDef{scenario.Exp4View()},
		},
		{
			name:  "uniform-chain",
			space: uniform,
			views: []*esql.ViewDef{
				scenario.ChainView(2, 100),
				scenario.ChainView(3, 100),
				scenario.ChainView(4, 100),
			},
		},
	}

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			sp := fx.space(t)
			for _, v := range fx.views {
				t.Run(v.Name, func(t *testing.T) {
					naive, err := EvaluateNaive(v, sp)
					if err != nil {
						t.Fatalf("naive: %v", err)
					}
					planned, err := Evaluate(context.Background(), v, sp)
					if err != nil {
						t.Fatalf("planned: %v", err)
					}
					if planned.Card() != naive.Card() {
						t.Fatalf("cardinality: planned %d, naive %d", planned.Card(), naive.Card())
					}
					if !planned.Equal(naive) {
						t.Errorf("extents differ:\nplanned:\n%s\nnaive:\n%s", planned, naive)
					}
					// Output column order and names are part of the view
					// interface and must match exactly.
					pn, nn := planned.Schema().Names(), naive.Schema().Names()
					if fmt.Sprint(pn) != fmt.Sprint(nn) {
						t.Errorf("output columns: planned %v, naive %v", pn, nn)
					}
				})
			}
		})
	}
}

// TestPlannedMatchesNaiveOnMutatedSpace re-runs parity after data updates,
// catching any stale sharing between a compiled plan and the base tuples.
func TestPlannedMatchesNaiveOnMutatedSpace(t *testing.T) {
	sp := quickstartSpace(t)
	v := esql.MustParse(`CREATE VIEW Paired AS
		SELECT P.PartID, M.PName FROM Parts P, PartsMirror M WHERE P.PartID = M.ID`)
	check := func() {
		t.Helper()
		naive, err := EvaluateNaive(v, sp)
		if err != nil {
			t.Fatal(err)
		}
		planned, err := Evaluate(context.Background(), v, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !planned.Equal(naive) {
			t.Fatalf("extents diverged after mutation:\nplanned:\n%s\nnaive:\n%s", planned, naive)
		}
	}
	check()
	land(t, sp, "Parts", []relation.Tuple{{relation.Int(99), relation.String("cog"), relation.Int(5)}}, nil)
	check()
	land(t, sp, "PartsMirror", nil, []relation.Tuple{{relation.Int(1), relation.String("bolt")}})
	check()
}

// land lands a data update on the space's relation name the way a writer
// does: a WithDelta successor installed by ReplaceRelation.
func land(t *testing.T, sp *space.Space, name string, ins, del []relation.Tuple) {
	t.Helper()
	next, err := sp.Relation(name).WithDelta(ins, del)
	if err == nil {
		err = sp.ReplaceRelation(name, next)
	}
	if err != nil {
		t.Fatal(err)
	}
}
