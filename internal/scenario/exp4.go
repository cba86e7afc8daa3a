package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/space"
)

// Exp4Space builds Experiment 4's setting (Table 3): relation R1 joined by a
// view with R2(A,B,C) of cardinality 4000, plus five substitutes S1..S5 at
// separate sources with cardinalities 2000..6000 and the containment chain
// S1 ⊆ S2 ⊆ S3 = R2 ⊆ S4 ⊆ S5, recorded as PC constraints. Data is
// materialized so that the containments hold exactly, enabling empirical
// cross-checks of the analytic divergence estimates.
//
// populate=false skips tuple materialization (the analytic experiments only
// need the MKB statistics, and 6000-tuple relations are wasteful in tight
// benchmark loops); cardinalities are then advertised through the MKB only.
func Exp4Space(seed int64, populate bool) (*space.Space, error) {
	sp := space.New()
	mkb := sp.MKB()
	mkb.DefaultJoinSelectivity = 0.005
	mkb.DefaultSelectivity = 0.5
	rng := rand.New(rand.NewSource(seed))

	abc := func(name string) *relation.Relation {
		return relation.New(name, relation.NewSchema(
			relation.Attribute{Name: "A", Type: relation.TypeInt, Size: 34},
			relation.Attribute{Name: "B", Type: relation.TypeInt, Size: 33},
			relation.Attribute{Name: "C", Type: relation.TypeInt, Size: 33},
		))
	}

	// IS0 holds R1; IS1..IS6 hold R2, S1..S5 per Table 3.
	if _, err := sp.AddSource("IS0"); err != nil {
		return nil, err
	}
	r1 := relation.New("R1", relation.NewSchema(
		relation.Attribute{Name: "A", Type: relation.TypeInt, Size: 50},
		relation.Attribute{Name: "K", Type: relation.TypeInt, Size: 50},
	))
	cards := map[string]int{"R2": 4000, "S1": 2000, "S2": 3000, "S3": 4000, "S4": 5000, "S5": 6000}
	if populate {
		if err := space.Populate(r1, 400, 200, rng); err != nil {
			return nil, err
		}
	}
	if err := sp.AddRelation("IS0", r1); err != nil {
		return nil, err
	}
	mkb.SetCard("R1", 400)

	rels := map[string]*relation.Relation{}
	order := []string{"R2", "S1", "S2", "S3", "S4", "S5"}
	for _, name := range order {
		rels[name] = abc(name)
	}
	if populate {
		// Build the chain bottom-up: S1 random, then each superset pads.
		// R2 copies S3 and pads nothing: both cards are 4000, so R2 = S3.
		if err := space.Populate(rels["S1"], cards["S1"], 200, rng); err != nil {
			return nil, err
		}
		for _, step := range [][2]string{{"S2", "S1"}, {"S3", "S2"}, {"R2", "S3"}, {"S4", "S3"}, {"S5", "S4"}} {
			dst, src := rels[step[0]], rels[step[1]]
			if err := space.PopulateSuperset(dst, src, cards[step[0]], 200, rng); err != nil {
				return nil, err
			}
		}
	}
	// Register after the fill: registering seals a relation.
	for i, name := range order {
		src := fmt.Sprintf("IS%d", i+1)
		if _, err := sp.AddSource(src); err != nil {
			return nil, err
		}
		if err := sp.AddRelation(src, rels[name]); err != nil {
			return nil, err
		}
	}
	for name, c := range cards {
		mkb.SetCard(name, c)
	}

	// PC constraints: R2 vs each substitute. The chain implies R2-level
	// relations: S1 ⊆ R2, S2 ⊆ R2, S3 = R2, R2 ⊆ S4, R2 ⊆ S5.
	pcRel := map[string]misd.Rel{"S1": misd.Superset, "S2": misd.Superset, "S3": misd.Equal, "S4": misd.Subset, "S5": misd.Subset}
	for _, name := range order[1:] {
		pc := misd.PCConstraint{
			Left:  misd.Fragment{Rel: misd.RelRef{Rel: "R2"}, Attrs: []string{"A", "B", "C"}},
			Right: misd.Fragment{Rel: misd.RelRef{Rel: name}, Attrs: []string{"A", "B", "C"}},
			Rel:   pcRel[name],
		}
		if err := mkb.AddPCConstraint(pc); err != nil {
			return nil, err
		}
		// Join constraint so substitutes can join R1 like R2 does.
		if err := mkb.AddJoinConstraint(misd.JoinConstraint{
			R1:      misd.RelRef{Rel: "R1"},
			R2:      misd.RelRef{Rel: name},
			Clauses: []misd.JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}},
		}); err != nil {
			return nil, err
		}
	}
	if err := mkb.AddJoinConstraint(misd.JoinConstraint{
		R1:      misd.RelRef{Rel: "R1"},
		R2:      misd.RelRef{Rel: "R2"},
		Clauses: []misd.JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}},
	}); err != nil {
		return nil, err
	}
	return sp, nil
}

// Exp4View is the view of Equation 31: SELECT R2.A, R2.B, R2.C (all AR=true)
// FROM R1, R2 (RR=true) WHERE R1.A = R2.A, with VE = '≈'.
func Exp4View() *esql.ViewDef {
	return &esql.ViewDef{
		Name:   "V",
		Extent: esql.ExtentAny,
		Select: []esql.SelectItem{
			{Attr: esql.AttrRef{Rel: "R2", Attr: "A"}, Replaceable: true, Dispensable: true},
			{Attr: esql.AttrRef{Rel: "R2", Attr: "B"}, Replaceable: true, Dispensable: true},
			{Attr: esql.AttrRef{Rel: "R2", Attr: "C"}, Replaceable: true, Dispensable: true},
		},
		From: []esql.FromItem{
			{Rel: "R1"},
			{Rel: "R2", Replaceable: true},
		},
		Where: []esql.CondItem{
			{Clause: esql.Clause{
				Left:  esql.AttrRef{Rel: "R1", Attr: "A"},
				Op:    relation.OpEQ,
				Right: esql.AttrRef{Rel: "R2", Attr: "A"},
			}, Replaceable: true},
		},
	}
}

// Exp1Space builds Experiment 1's setting: R(A,B) at IS1 with replicas
// S(A,C) at IS2 and T(A,D) at IS3, PC constraints π_A(R) = π_A(S) and
// π_A(R) = π_A(T).
func Exp1Space(seed int64) (*space.Space, error) {
	sp := space.New()
	rng := rand.New(rand.NewSource(seed))
	mk := func(name, a2 string) *relation.Relation {
		return relation.New(name, relation.NewSchema(
			relation.Attribute{Name: "A", Type: relation.TypeInt, Size: 50},
			relation.Attribute{Name: a2, Type: relation.TypeInt, Size: 50},
		))
	}
	r := mk("R", "B")
	s := mk("S", "C")
	t := mk("T", "D")
	if err := space.Populate(r, 100, 500, rng); err != nil {
		return nil, err
	}
	// Replicate R's A column into S and T so the PC equalities hold.
	for _, tu := range r.Tuples() {
		s.Insert(relation.Tuple{tu[0], relation.Int(rng.Int63n(500))}) //nolint:errcheck
		t.Insert(relation.Tuple{tu[0], relation.Int(rng.Int63n(500))}) //nolint:errcheck
	}
	for i, rel := range []*relation.Relation{r, s, t} {
		src := fmt.Sprintf("IS%d", i+1)
		if _, err := sp.AddSource(src); err != nil {
			return nil, err
		}
		if err := sp.AddRelation(src, rel); err != nil {
			return nil, err
		}
	}
	for _, repl := range []string{"S", "T"} {
		if err := sp.MKB().AddPCConstraint(misd.PCConstraint{
			Left:  misd.Fragment{Rel: misd.RelRef{Rel: "R"}, Attrs: []string{"A"}},
			Right: misd.Fragment{Rel: misd.RelRef{Rel: repl}, Attrs: []string{"A"}},
			Rel:   misd.Equal,
		}); err != nil {
			return nil, err
		}
	}
	// S and T are both replicas of R.A, so they are replicas of each other
	// — the transitively implied constraint EVE needs for the V1 → V2 step
	// of Figure 12's life-span tree.
	if err := sp.MKB().AddPCConstraint(misd.PCConstraint{
		Left:  misd.Fragment{Rel: misd.RelRef{Rel: "S"}, Attrs: []string{"A"}},
		Right: misd.Fragment{Rel: misd.RelRef{Rel: "T"}, Attrs: []string{"A"}},
		Rel:   misd.Equal,
	}); err != nil {
		return nil, err
	}
	return sp, nil
}

// Exp1View is Experiment 1's V0: SELECT R.A (AD,AR), R.B (AD) FROM R (RR).
func Exp1View() *esql.ViewDef {
	return &esql.ViewDef{
		Name:   "V0",
		Extent: esql.ExtentAny,
		Select: []esql.SelectItem{
			{Attr: esql.AttrRef{Rel: "R", Attr: "A"}, Dispensable: true, Replaceable: true},
			{Attr: esql.AttrRef{Rel: "R", Attr: "B"}, Dispensable: true},
		},
		From: []esql.FromItem{{Rel: "R", Replaceable: true, Dispensable: true}},
	}
}
