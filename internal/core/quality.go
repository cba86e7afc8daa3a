package core

import (
	"repro/internal/esql"
	"repro/internal/relation"
)

// InterfaceQuality computes Q_V (Equation 12): the weighted count of
// preserved dispensable attributes, where category-1 attributes
// (dispensable, replaceable) weigh w1 and category-2 attributes
// (dispensable, non-replaceable) weigh w2. Indispensable attributes
// (categories 3 and 4) must be preserved by every legal rewriting and carry
// no weight.
func InterfaceQuality(v *esql.ViewDef, t Tradeoff) float64 {
	q := 0.0
	for _, s := range v.Select {
		switch s.Category() {
		case 1:
			q += t.W1
		case 2:
			q += t.W2
		}
	}
	return q
}

// DDAttr computes the normalized degree of divergence of the rewriting's
// view interface from the original's (Section 5.4.1):
//
//	DD_attr(Vi) = 0                 if Q_V = 0
//	            = (Q_V − Q_Vi)/Q_V  otherwise
//
// When the original carries only indispensable attributes (Q_V = 0) every
// legal rewriting preserves them all, so the divergence is zero.
func DDAttr(orig, rewritten *esql.ViewDef, t Tradeoff) float64 {
	qv := InterfaceQuality(orig, t)
	if qv == 0 {
		return 0
	}
	qi := InterfaceQuality(rewritten, t)
	return clamp01((qv - qi) / qv)
}

// ExtentSizes carries the three cardinalities DD_ext needs (Equations 13 and
// 14): the original extent projected on the common attribute subset
// |V^(Vi)|, the new extent projected likewise |Vi^(V)|, and the overlap
// |V ∩≈ Vi|. Values may be estimates (Section 5.4.3) or exact counts.
type ExtentSizes struct {
	Orig    float64 // |V^(Vi)|
	New     float64 // |Vi^(V)|
	Overlap float64 // |V ∩≈ Vi|
}

// DDExtD1 is the relative number of original tuples not preserved
// (Equation 13). An empty original extent diverges by 0 by convention
// (nothing to lose).
func (e ExtentSizes) DDExtD1() float64 {
	if e.Orig <= 0 {
		return 0
	}
	return clamp01((e.Orig - e.Overlap) / e.Orig)
}

// DDExtD2 is the relative number of surplus tuples in the new extent
// (Equation 14). An empty new extent carries no surplus.
func (e ExtentSizes) DDExtD2() float64 {
	if e.New <= 0 {
		return 0
	}
	return clamp01((e.New - e.Overlap) / e.New)
}

// DDExt combines D1 and D2 with the ρ1/ρ2 trade-off parameters
// (Equation 15). The VE-specific simplifications (Equations 16 and 17) fall
// out automatically: for a superset rewriting Overlap = Orig so D1 = 0, and
// for a subset rewriting Overlap = New so D2 = 0.
func DDExt(e ExtentSizes, t Tradeoff) float64 {
	return clamp01(t.RhoD1*e.DDExtD1() + t.RhoD2*e.DDExtD2())
}

// DD is the total degree of divergence (Equation 20).
func DD(ddAttr, ddExt float64, t Tradeoff) float64 {
	return clamp01(t.RhoAttr*ddAttr + t.RhoExt*ddExt)
}

// ExactExtentSizes measures ExtentSizes from actual materialized extents:
// relation.CommonProject projects both onto their common attribute subset
// (duplicates removed) and the projections are intersected, per
// Definition 1 and Figure 7. If the two interfaces share no attributes, the
// rewriting preserves nothing: sizes degenerate to zero overlap.
func ExactExtentSizes(orig, rewritten *relation.Relation) (ExtentSizes, error) {
	if len(orig.Schema().Common(rewritten.Schema())) == 0 {
		return ExtentSizes{Orig: float64(orig.Card()), New: float64(rewritten.Card()), Overlap: 0}, nil
	}
	pv, pvi, _, err := relation.CommonProject(orig, rewritten)
	if err != nil {
		return ExtentSizes{}, err
	}
	inter, err := pv.Intersect(pvi)
	if err != nil {
		return ExtentSizes{}, err
	}
	return ExtentSizes{
		Orig:    float64(pv.Card()),
		New:     float64(pvi.Card()),
		Overlap: float64(inter.Card()),
	}, nil
}
