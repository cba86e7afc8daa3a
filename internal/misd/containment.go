package misd

import (
	"math"

	"repro/internal/esql"
	"repro/internal/relation"
)

// This file is the query-side containment machinery of the MV router: given
// an ad-hoc query and a view definition, the warehouse decides whether the
// view's extent contains every row the query needs. Two ingredients:
//
//   - clause implication (ImpliesClause / ImpliedBy): does one primitive
//     WHERE clause logically entail another under the executor's exact
//     comparison semantics, so a view selection provably keeps every
//     query row and a query clause already enforced by the view needs no
//     residual re-check;
//   - PC-constraint substitution (EqualMapping): may a query over relation
//     R1 be answered from a view over R2 because the MKB asserts the two
//     are equal fragments (Equation 5 with θ = ≡ and no selections).
//
// Both are conservative: a false answer only forfeits a view route (the
// query falls back to base relations); a true answer is a soundness
// obligation the checksum-differential suite enforces.

// isNaNConst reports whether v is a floating-point NaN constant. NaN does
// not participate in the value total order (Compare treats it as equal to
// every numeric), so order-based implication reasoning is unsound around it
// and ImpliesClause falls back to structural identity.
func isNaNConst(v relation.Value) bool {
	return v.Type() == relation.TypeFloat && math.IsNaN(v.AsFloat())
}

// ImpliesClause reports whether primitive clause a logically implies clause
// b: every tuple satisfying a also satisfies b, under the executor's exact
// comparison semantics (relation.Op.Apply over Value.Compare/Value.Equal,
// including NULL ordering, cross-type numeric widening, and NaN comparing
// as unordered against numerics). The check is conservative — it may return
// false for implications it cannot prove, never true for a non-implication.
// Attribute references are compared literally, so both clauses must be
// expressed over the same (qualified) naming.
func ImpliesClause(a, b esql.Clause) bool {
	aJoin, bJoin := a.Right.Attr != "", b.Right.Attr != ""
	if aJoin != bJoin {
		return false
	}
	if aJoin {
		if a.Left == b.Left && a.Right == b.Right {
			return attrOpImplies(a.Op, b.Op)
		}
		// "x θ y" also implies the mirrored "y θ' x".
		if a.Left == b.Right && a.Right == b.Left {
			return attrOpImplies(a.Op, reverseOp(b.Op))
		}
		return false
	}
	if a.Left != b.Left {
		return false
	}
	// Identical clauses imply themselves whatever the constant — typed key
	// equality means the constants are indistinguishable to the evaluator.
	if a.Op == b.Op && relation.ValueKeyEqual(a.Const, b.Const) {
		return true
	}
	// Beyond identity, the constant interval reasoning below relies on
	// Compare being a total order, which NaN breaks.
	if isNaNConst(a.Const) || isNaNConst(b.Const) {
		return false
	}
	return constOpImplies(a.Op, a.Const, b.Op, b.Const)
}

// attrOpImplies is the implication table for two clauses over the same
// attribute pair "x θa y ⇒ x θb y". Note the NaN asymmetry of the executor:
// a NaN operand satisfies <= and >= (Compare returns 0 against numerics)
// but neither < nor =, so a non-strict premise never implies a strict
// conclusion.
func attrOpImplies(a, b relation.Op) bool {
	if a == b {
		return true
	}
	switch a {
	case relation.OpEQ:
		return b == relation.OpLE || b == relation.OpGE
	case relation.OpLT:
		return b == relation.OpLE || b == relation.OpNE
	case relation.OpGT:
		return b == relation.OpGE || b == relation.OpNE
	}
	return false
}

// constOpImplies decides "x θa ca ⇒ x θb cb" for non-NaN constants using
// the evaluator's own comparators, so the interval reasoning is exactly as
// strong as the filter semantics it licenses skipping. A NaN *data* value x
// satisfies exactly {<=, >=, <>} of any comparison against a numeric
// constant (Compare pins it to 0, Equal rejects it), and the table below is
// sound for that case too: no strict or equality conclusion is ever derived
// from a premise a NaN x can satisfy.
func constOpImplies(opA relation.Op, ca relation.Value, opB relation.Op, cb relation.Value) bool {
	c := ca.Compare(cb)
	eq := ca.Equal(cb)
	switch opA {
	case relation.OpEQ:
		switch opB {
		case relation.OpEQ:
			return eq
		case relation.OpNE:
			return !eq
		case relation.OpLT:
			return c < 0
		case relation.OpLE:
			return c <= 0
		case relation.OpGT:
			return c > 0
		case relation.OpGE:
			return c >= 0
		}
	case relation.OpLT:
		switch opB {
		case relation.OpLT, relation.OpLE, relation.OpNE:
			return c <= 0
		}
	case relation.OpLE:
		switch opB {
		case relation.OpLE:
			return c <= 0
		case relation.OpNE:
			return c < 0
		}
	case relation.OpGT:
		switch opB {
		case relation.OpGT, relation.OpGE, relation.OpNE:
			return c >= 0
		}
	case relation.OpGE:
		switch opB {
		case relation.OpGE:
			return c >= 0
		case relation.OpNE:
			return c > 0
		}
	case relation.OpNE:
		return opB == relation.OpNE && eq
	}
	return false
}

// ImpliedBy reports whether the conjunction of clauses implies c: true when
// any single clause of conj implies c (a sound single-witness check; it does
// not combine clauses, so e.g. x > 1 AND x < 3 does not prove x <> 5).
func ImpliedBy(conj []esql.Clause, c esql.Clause) bool {
	for _, a := range conj {
		if ImpliesClause(a, c) {
			return true
		}
	}
	return false
}

// EqualMapping searches pcs for a PC constraint asserting that relations r1
// and r2 hold equal fragments — θ = ≡ with no selection on either side
// (Figure 9's unconditional case) — whose r1-side projection covers every
// attribute in needed. It returns the positional r1→r2 attribute mapping of
// the first such constraint, or false. This is the relation-substitution
// license of the router: a query touching only covered attributes of r1 can
// be answered verbatim from r2 under the mapping.
func EqualMapping(pcs []PCConstraint, r1, r2 string, needed []string) (map[string]string, bool) {
	for _, pc := range pcs {
		for _, c := range []PCConstraint{pc, pc.Reversed()} {
			if c.Rel != Equal || c.Left.Rel.Key() != r1 || c.Right.Rel.Key() != r2 {
				continue
			}
			if c.Left.HasSelection() || c.Right.HasSelection() {
				continue
			}
			m := c.AttrMapping()
			covered := true
			for _, a := range needed {
				if _, ok := m[a]; !ok {
					covered = false
					break
				}
			}
			if covered {
				return m, true
			}
		}
	}
	return nil, false
}
