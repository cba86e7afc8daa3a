package relation

import (
	"fmt"
	"slices"
)

// Join computes r ⋈_cond s. Attribute names must be disjoint between the two
// inputs (the E-SQL layer qualifies names as "Rel.Attr" before reaching the
// algebra, so collisions indicate a planning bug and are reported as errors).
//
// Equality clauses between one attribute of r and one of s are executed with
// a hash join; remaining clauses are applied as a residual filter.
func Join(r, s *Relation, cond Condition) (*Relation, error) {
	for _, a := range s.Schema().Attrs() {
		if r.Schema().Has(a.Name) {
			return nil, fmt.Errorf("join %s ⋈ %s: attribute %q appears on both sides", r.Name, s.Name, a.Name)
		}
	}
	joined := NewSchema(append(r.Schema().Attrs(), s.Schema().Attrs()...)...)
	var rows []Tuple // distinct: each pair of rows joins at most once

	// Split the condition into hashable equi-clauses (left attr from r,
	// right from s or vice versa) and a residual.
	var leftKeys, rightKeys []string
	var residual And
	for _, c := range flatten(cond) {
		cl, ok := c.(Clause)
		if ok && cl.IsEquiJoin() {
			switch {
			case r.Schema().Has(cl.Left) && s.Schema().Has(cl.Right):
				leftKeys = append(leftKeys, cl.Left)
				rightKeys = append(rightKeys, cl.Right)
				continue
			case s.Schema().Has(cl.Left) && r.Schema().Has(cl.Right):
				leftKeys = append(leftKeys, cl.Right)
				rightKeys = append(rightKeys, cl.Left)
				continue
			}
		}
		residual = append(residual, c)
	}

	emit := func(lt, rt Tuple) error {
		t := make(Tuple, 0, len(lt)+len(rt))
		t = append(t, lt...)
		t = append(t, rt...)
		ok, err := residual.Eval(joined, t)
		if err != nil {
			return err
		}
		if ok {
			rows = append(rows, t)
		}
		return nil
	}

	if len(leftKeys) == 0 {
		// Pure theta/cross join: nested loops with residual filter.
		for _, lt := range r.Tuples() {
			for _, rt := range s.Tuples() {
				if err := emit(lt, rt); err != nil {
					return nil, err
				}
			}
		}
		return FromDistinctRows(joinName(r.Name, s.Name), joined, rows), nil
	}

	// Hash join on the composite equi-key.
	ridx := make([]int, len(leftKeys))
	sidx := make([]int, len(rightKeys))
	for i := range leftKeys {
		ridx[i] = r.Schema().IndexOf(leftKeys[i])
		sidx[i] = s.Schema().IndexOf(rightKeys[i])
	}
	ix := r.buildIndex(ridx)
	for _, rt := range s.Tuples() {
		for _, p := range ix.Probe(nil, hashCells(rt, sidx)) {
			lt := r.Row(int(p))
			if !slices.EqualFunc(ridx, sidx, func(i, j int) bool { return ValueKeyEqual(lt[i], rt[j]) }) {
				continue // a hash collision
			}
			if err := emit(lt, rt); err != nil {
				return nil, err
			}
		}
	}
	return FromDistinctRows(joinName(r.Name, s.Name), joined, rows), nil
}

func joinName(a, b string) string { return a + "⋈" + b }

// flatten expands nested And conditions into a flat clause list.
func flatten(c Condition) []Condition {
	switch v := c.(type) {
	case nil:
		return nil
	case True:
		return nil
	case And:
		var out []Condition
		for _, sub := range v {
			out = append(out, flatten(sub)...)
		}
		return out
	default:
		return []Condition{c}
	}
}

// CommonProject projects both relations onto their common attribute subset
// (Definition 1: V^(Vi) and Vi^(V)), returning the two projections and the
// shared attribute names. If the schemas share no attributes it returns an
// error, since the paper's extent comparison is undefined in that case.
func CommonProject(v, vi *Relation) (pv, pvi *Relation, common []string, err error) {
	common = v.Schema().Common(vi.Schema())
	if len(common) == 0 {
		return nil, nil, nil, fmt.Errorf("relation: %s and %s share no attributes", v.Name, vi.Name)
	}
	if pv, err = v.Project(common...); err != nil {
		return nil, nil, nil, err
	}
	if pvi, err = vi.Project(common...); err != nil {
		return nil, nil, nil, err
	}
	return pv, pvi, common, nil
}

// CommonEqual implements V =≈ Vi (Definition 2): projections on the common
// attribute subset are set-equal.
func CommonEqual(v, vi *Relation) (bool, error) {
	pv, pvi, _, err := CommonProject(v, vi)
	if err != nil {
		return false, err
	}
	return pv.Equal(pvi), nil
}

// CommonSubset implements Vi ⊆≈ V: every Vi tuple has a matching V tuple on
// the common attribute subset.
func CommonSubset(vi, v *Relation) (bool, error) {
	pvi, pv, _, err := CommonProject(vi, v)
	if err != nil {
		return false, err
	}
	d, err := pvi.Difference(pv)
	if err != nil {
		return false, err
	}
	return d.Card() == 0, nil
}

// CommonIntersect implements V ∩≈ Vi from Figure 7: projections of both
// extents on the common attribute subset, intersected.
func CommonIntersect(v, vi *Relation) (*Relation, error) {
	pv, pvi, _, err := CommonProject(v, vi)
	if err != nil {
		return nil, err
	}
	return pv.Intersect(pvi)
}

// CommonDifference implements V \≈ Vi from Figure 7.
func CommonDifference(v, vi *Relation) (*Relation, error) {
	pv, pvi, _, err := CommonProject(v, vi)
	if err != nil {
		return nil, err
	}
	return pv.Difference(pvi)
}
