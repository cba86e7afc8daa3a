package misd

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// RelRef names a base relation, optionally qualified by its information
// source: "IS1.R" or just "R" when relation names are globally unique.
type RelRef struct {
	Source string
	Rel    string
}

// String renders "Source.Rel" or "Rel".
func (r RelRef) String() string {
	if r.Source == "" {
		return r.Rel
	}
	return r.Source + "." + r.Rel
}

// Key returns the lookup key used by the MKB index; relations are resolved
// by bare name, mirroring the paper's globally-distinct relation names.
func (r RelRef) Key() string { return r.Rel }

// TypeConstraint is the type-integrity constraint TC_{R.A}: attribute A of
// relation R has the given domain type (and simulated byte width). The MKB
// keeps no separate list of them: a registered relation's schema is its
// TCs, read through TypeOf.
type TypeConstraint struct {
	Rel  RelRef
	Attr string
	Type relation.Type
	Size int // bytes; 0 ⇒ default by type
}

// String renders the constraint in MKB dump syntax.
func (t TypeConstraint) String() string {
	return fmt.Sprintf("TC(%s.%s) = %s", t.Rel, t.Attr, t.Type)
}

// JoinConstraint is JC_{R1,R2}: the conjunction of primitive clauses under
// which tuples of R1 and R2 join meaningfully (Equation 4).
type JoinConstraint struct {
	R1, R2  RelRef
	Clauses []JoinClause
}

// JoinClause is one primitive clause of a join constraint, relating an
// attribute of R1 to an attribute of R2.
type JoinClause struct {
	Attr1 string
	Op    relation.Op
	Attr2 string
}

// String renders the constraint.
func (j JoinConstraint) String() string {
	parts := make([]string, len(j.Clauses))
	for i, c := range j.Clauses {
		parts[i] = fmt.Sprintf("%s.%s %s %s.%s", j.R1, c.Attr1, c.Op, j.R2, c.Attr2)
	}
	return fmt.Sprintf("JC(%s, %s) = (%s)", j.R1, j.R2, strings.Join(parts, " AND "))
}

// Reversed returns the constraint with sides swapped, so lookups are
// symmetric.
func (j JoinConstraint) Reversed() JoinConstraint {
	out := JoinConstraint{R1: j.R2, R2: j.R1, Clauses: make([]JoinClause, len(j.Clauses))}
	for i, c := range j.Clauses {
		out.Clauses[i] = JoinClause{Attr1: c.Attr2, Op: reverseOp(c.Op), Attr2: c.Attr1}
	}
	return out
}

func reverseOp(op relation.Op) relation.Op {
	switch op {
	case relation.OpLT:
		return relation.OpGT
	case relation.OpLE:
		return relation.OpGE
	case relation.OpGT:
		return relation.OpLT
	case relation.OpGE:
		return relation.OpLE
	default:
		return op // = and <> are symmetric
	}
}

// Rel is the containment relation θ of a PC constraint.
type Rel uint8

// Containment relations: the left fragment is a subset of, equal to, or a
// superset of the right fragment.
const (
	Subset   Rel = iota // ⊆
	Equal               // ≡
	Superset            // ⊇
)

// String renders the containment symbol in ASCII.
func (r Rel) String() string {
	switch r {
	case Subset:
		return "<="
	case Equal:
		return "=="
	default:
		return ">="
	}
}

// Flip mirrors the containment for a swapped constraint.
func (r Rel) Flip() Rel {
	switch r {
	case Subset:
		return Superset
	case Superset:
		return Subset
	default:
		return Equal
	}
}

// Fragment is one side of a PC constraint: a projection over Attrs of a
// selection (Cond, possibly relation.True{}) of relation Rel (Equation 5).
// Selectivity is the known selectivity σ of Cond over Rel's extent; 1.0 for
// the tautologically true condition.
type Fragment struct {
	Rel         RelRef
	Attrs       []string
	Cond        relation.Condition
	Selectivity float64
}

// HasSelection reports whether the fragment carries a non-trivial selection
// condition — the "yes"/"no" axis of Figure 9.
func (f Fragment) HasSelection() bool {
	if f.Cond == nil {
		return false
	}
	if _, ok := f.Cond.(relation.True); ok {
		return false
	}
	if a, ok := f.Cond.(relation.And); ok && len(a) == 0 {
		return false
	}
	return true
}

// EffectiveSelectivity returns σ for the fragment: 1 when there is no
// selection, otherwise the declared selectivity (default 0.5 when unset,
// the experiments' Table 1 value).
func (f Fragment) EffectiveSelectivity() float64 {
	if !f.HasSelection() {
		return 1
	}
	if f.Selectivity <= 0 || f.Selectivity > 1 {
		return 0.5
	}
	return f.Selectivity
}

// String renders the fragment as "π_{A,B}(σ_{cond}(R))".
func (f Fragment) String() string {
	inner := f.Rel.String()
	if f.HasSelection() {
		inner = fmt.Sprintf("select[%s](%s)", f.Cond, inner)
	}
	return fmt.Sprintf("project[%s](%s)", strings.Join(f.Attrs, ","), inner)
}

// PCConstraint is a partial/complete constraint PC_{R1,R2} (Equation 5):
// Fragment1 θ Fragment2, where θ ∈ {⊆, ≡, ⊇}. The two fragments must
// project the same number of attributes; the i-th attributes correspond
// (and have equal types per the TC requirement in the paper).
type PCConstraint struct {
	Left, Right Fragment
	Rel         Rel
}

// String renders the constraint.
func (p PCConstraint) String() string {
	return fmt.Sprintf("PC: %s %s %s", p.Left, p.Rel, p.Right)
}

// Reversed swaps sides, flipping the containment.
func (p PCConstraint) Reversed() PCConstraint {
	return PCConstraint{Left: p.Right, Right: p.Left, Rel: p.Rel.Flip()}
}

// Validate checks structural well-formedness.
func (p PCConstraint) Validate() error {
	if len(p.Left.Attrs) == 0 || len(p.Right.Attrs) == 0 {
		return fmt.Errorf("misd: PC constraint with empty projection: %s", p)
	}
	if len(p.Left.Attrs) != len(p.Right.Attrs) {
		return fmt.Errorf("misd: PC constraint projects %d vs %d attributes: %s",
			len(p.Left.Attrs), len(p.Right.Attrs), p)
	}
	return nil
}

// AttrMapping returns the attribute correspondence Left→Right implied by
// the positional pairing of the projections.
func (p PCConstraint) AttrMapping() map[string]string {
	m := make(map[string]string, len(p.Left.Attrs))
	for i, a := range p.Left.Attrs {
		m[a] = p.Right.Attrs[i]
	}
	return m
}
