package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/space"
)

// Params mirrors Table 1's system parameters.
type Params struct {
	NumRelations    int     // n: relations in the information space
	Card            int     // |Ri| for all i
	TupleSize       int     // s_Ri in bytes
	Selectivity     float64 // σ of a local condition
	JoinSelectivity float64 // js
	BlockingFactor  int     // bfr
	Seed            int64
}

// DefaultParams returns Table 1's defaults.
func DefaultParams() Params {
	return Params{
		NumRelations:    6,
		Card:            400,
		TupleSize:       100,
		Selectivity:     0.5,
		JoinSelectivity: 0.005,
		BlockingFactor:  10,
		Seed:            1,
	}
}

// Distributions enumerates every ordered composition of n relations into m
// positive parts — exactly Table 2's rows for n = 6. For example
// Distributions(6, 2) = [1 5] [2 4] [3 3] [4 2] [5 1].
func Distributions(n, m int) [][]int {
	if m <= 0 || n < m {
		return nil
	}
	if m == 1 {
		return [][]int{{n}}
	}
	var out [][]int
	for first := 1; first <= n-m+1; first++ {
		for _, rest := range Distributions(n-first, m-1) {
			comp := append([]int{first}, rest...)
			out = append(out, comp)
		}
	}
	return out
}

// GroupedDistributions returns Experiment 3's grouped (order-insensitive)
// distributions for n relations over m sites, i.e. the partitions of n into
// m parts, each in non-increasing order — the chart groups (1,5)≡(5,1).
func GroupedDistributions(n, m int) [][]int {
	var out [][]int
	var rec func(remaining, parts, max int, cur []int)
	rec = func(remaining, parts, max int, cur []int) {
		if parts == 1 {
			if remaining <= max {
				comp := append(append([]int(nil), cur...), remaining)
				out = append(out, comp)
			}
			return
		}
		for first := min(max, remaining-(parts-1)); first >= 1; first-- {
			rec(remaining-first, parts-1, first, append(cur, first))
		}
	}
	rec(n, m, n, nil)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DistributionLabel renders a distribution as "1/2/3".
func DistributionLabel(d []int) string {
	s := ""
	for i, v := range d {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%d", v)
	}
	return s
}

// UniformSpace builds a populated information space matching a distribution:
// len(distribution) sources, distribution[i] relations at source i, every
// relation R1..Rn with schema (A,B,C,D,E int widths summing to TupleSize)
// and Card random tuples. Join constraints chain R1–R2–…–Rn on attribute A
// so a view joining all of them is well-formed.
func UniformSpace(p Params, distribution []int) (*space.Space, error) {
	sp := space.New()
	mkb := sp.MKB()
	mkb.DefaultJoinSelectivity = p.JoinSelectivity
	mkb.DefaultSelectivity = p.Selectivity
	mkb.BlockingFactor = p.BlockingFactor
	rng := rand.New(rand.NewSource(p.Seed))

	perAttr := p.TupleSize / 5
	attrs := func() []relation.Attribute {
		return []relation.Attribute{
			{Name: "A", Type: relation.TypeInt, Size: perAttr},
			{Name: "B", Type: relation.TypeInt, Size: perAttr},
			{Name: "C", Type: relation.TypeInt, Size: perAttr},
			{Name: "D", Type: relation.TypeInt, Size: perAttr},
			{Name: "E", Type: relation.TypeInt, Size: p.TupleSize - 4*perAttr},
		}
	}

	idx := 1
	for si, count := range distribution {
		srcName := fmt.Sprintf("IS%d", si+1)
		if _, err := sp.AddSource(srcName); err != nil {
			return nil, err
		}
		for k := 0; k < count; k++ {
			r := relation.New(fmt.Sprintf("R%d", idx), relation.NewSchema(attrs()...))
			// Domain sized so the realized equi-join selectivity is near
			// js: P(match) = 1/domain ⇒ domain ≈ 1/js.
			domain := int64(1 / p.JoinSelectivity)
			if domain < 2 {
				domain = 2
			}
			if err := space.Populate(r, p.Card, domain, rng); err != nil {
				return nil, err
			}
			if err := sp.AddRelation(srcName, r); err != nil {
				return nil, err
			}
			idx++
		}
	}
	// Chain join constraints R1.A = R2.A = ... = Rn.A.
	for i := 1; i < idx-1; i++ {
		jc := misd.JoinConstraint{
			R1:      misd.RelRef{Rel: fmt.Sprintf("R%d", i)},
			R2:      misd.RelRef{Rel: fmt.Sprintf("R%d", i+1)},
			Clauses: []misd.JoinClause{{Attr1: "A", Op: relation.OpEQ, Attr2: "A"}},
		}
		if err := mkb.AddJoinConstraint(jc); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// ChainView builds the view joining R1..Rn over the uniform space, with one
// local condition per relation (σ-matching constant clauses) and the chain
// equi-joins, all components dispensable and replaceable.
func ChainView(n int, domainHalf int64) *esql.ViewDef {
	v := &esql.ViewDef{Name: "VChain", Extent: esql.ExtentAny}
	for i := 1; i <= n; i++ {
		rel := fmt.Sprintf("R%d", i)
		v.From = append(v.From, esql.FromItem{Rel: rel, Dispensable: true, Replaceable: true})
		v.Select = append(v.Select, esql.SelectItem{
			Attr:        esql.AttrRef{Rel: rel, Attr: "B"},
			Alias:       fmt.Sprintf("B%d", i),
			Dispensable: true,
			Replaceable: true,
		})
		// Local condition with selectivity ≈ 0.5 over a [0, 2·domainHalf)
		// domain.
		v.Where = append(v.Where, esql.CondItem{
			Clause: esql.Clause{
				Left:  esql.AttrRef{Rel: rel, Attr: "C"},
				Op:    relation.OpLT,
				Const: relation.Int(domainHalf),
			},
			Dispensable: true,
			Replaceable: true,
		})
	}
	for i := 1; i < n; i++ {
		v.Where = append(v.Where, esql.CondItem{
			Clause: esql.Clause{
				Left:  esql.AttrRef{Rel: fmt.Sprintf("R%d", i), Attr: "A"},
				Op:    relation.OpEQ,
				Right: esql.AttrRef{Rel: fmt.Sprintf("R%d", i+1), Attr: "A"},
			},
			Dispensable: true,
			Replaceable: true,
		})
	}
	return v
}
