package relation

import (
	"fmt"
	"strings"
)

// Op is a comparison operator of a primitive clause. The paper restricts
// primitive clauses to θ ∈ {<, ≤, =, ≥, >}; we add ≠ for completeness.
type Op uint8

// Comparison operators.
const (
	OpInvalid Op = iota
	OpLT
	OpLE
	OpEQ
	OpGE
	OpGT
	OpNE
)

// String renders the operator in E-SQL surface syntax.
func (o Op) String() string {
	switch o {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	case OpNE:
		return "<>"
	default:
		return "?"
	}
}

// ParseOp parses an operator token.
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return OpLT, nil
	case "<=":
		return OpLE, nil
	case "=", "==":
		return OpEQ, nil
	case ">=":
		return OpGE, nil
	case ">":
		return OpGT, nil
	case "<>", "!=":
		return OpNE, nil
	}
	return OpInvalid, fmt.Errorf("relation: unknown operator %q", s)
}

// Apply evaluates "a θ b" — the single-pair comparison primitive shared by
// Condition.Eval and the executor's generic kernels (mixed-type columns,
// NULLs).
func (o Op) Apply(a, b Value) (bool, error) { return o.apply(a, b) }

// apply evaluates "a θ b".
func (o Op) apply(a, b Value) (bool, error) {
	switch o {
	case OpEQ:
		return a.Equal(b), nil
	case OpNE:
		return !a.Equal(b), nil
	}
	c := a.Compare(b)
	switch o {
	case OpLT:
		return c < 0, nil
	case OpLE:
		return c <= 0, nil
	case OpGE:
		return c >= 0, nil
	case OpGT:
		return c > 0, nil
	}
	return false, fmt.Errorf("relation: invalid operator")
}

// Condition is a boolean predicate over a tuple. Implementations: True,
// Clause (a primitive clause), and And (a conjunction), matching the paper's
// WHERE-clause grammar of AND-connected primitive clauses.
type Condition interface {
	// Eval evaluates the condition against a tuple of the given schema.
	Eval(s *Schema, t Tuple) (bool, error)
	// Attrs returns the attribute names the condition references.
	Attrs() []string
	// String renders the condition in E-SQL surface syntax.
	String() string
}

// True is the tautologically true condition (the PC-constraint "no selection"
// case in Figure 9).
type True struct{}

// Eval always returns true.
func (True) Eval(*Schema, Tuple) (bool, error) { return true, nil }

// Attrs returns nil.
func (True) Attrs() []string { return nil }

// String renders the condition as "TRUE".
func (True) String() string { return "TRUE" }

// Clause is one primitive clause: either <attr> θ <attr> or <attr> θ <value>.
// If Right is empty the comparison is against Const.
type Clause struct {
	Left  string
	Op    Op
	Right string // other attribute name, or "" for a constant comparison
	Const Value
}

// AttrAttr builds an attribute-attribute clause.
func AttrAttr(left string, op Op, right string) Clause {
	return Clause{Left: left, Op: op, Right: right}
}

// AttrConst builds an attribute-constant clause.
func AttrConst(left string, op Op, c Value) Clause {
	return Clause{Left: left, Op: op, Const: c}
}

// IsEquiJoin reports whether the clause equates two attributes, the shape
// the cost model's join selectivity js applies to.
func (c Clause) IsEquiJoin() bool { return c.Op == OpEQ && c.Right != "" }

// Eval implements Condition.
func (c Clause) Eval(s *Schema, t Tuple) (bool, error) {
	li := s.IndexOf(c.Left)
	if li < 0 {
		return false, fmt.Errorf("relation: condition references unknown attribute %q", c.Left)
	}
	var rv Value
	if c.Right != "" {
		ri := s.IndexOf(c.Right)
		if ri < 0 {
			return false, fmt.Errorf("relation: condition references unknown attribute %q", c.Right)
		}
		rv = t[ri]
	} else {
		rv = c.Const
	}
	return c.Op.apply(t[li], rv)
}

// Attrs implements Condition.
func (c Clause) Attrs() []string {
	if c.Right != "" {
		return []string{c.Left, c.Right}
	}
	return []string{c.Left}
}

// String implements Condition.
func (c Clause) String() string {
	if c.Right != "" {
		return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
	}
	if c.Const.Type() == TypeString {
		return fmt.Sprintf("%s %s '%s'", c.Left, c.Op, c.Const.Text())
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Const.Text())
}

// Rename returns a copy of the clause with attribute references renamed via
// the given mapping (used by the synchronizer when substituting relations).
func (c Clause) Rename(mapping map[string]string) Clause {
	out := c
	if n, ok := mapping[c.Left]; ok {
		out.Left = n
	}
	if c.Right != "" {
		if n, ok := mapping[c.Right]; ok {
			out.Right = n
		}
	}
	return out
}

// BoundClause is a primitive clause resolved against a fixed schema: its
// attribute references are schema positions, so evaluating it does none of
// the name lookups Condition.Eval repeats on every call. Right is -1 for a
// comparison against Const.
type BoundClause struct {
	Left, Right int
	Op          Op
	Const       Value
}

// Bind resolves cond against s into the conjunction of its primitive
// clauses — the form the planner's filter and join kernels run. Unknown
// attribute references fail at bind time rather than per tuple.
func Bind(s *Schema, cond Condition) ([]BoundClause, error) {
	var out []BoundClause
	for _, c := range flatten(cond) {
		cl, ok := c.(Clause)
		if !ok {
			return nil, fmt.Errorf("relation: cannot bind condition %s", c)
		}
		b := BoundClause{Left: s.IndexOf(cl.Left), Right: -1, Op: cl.Op, Const: cl.Const}
		if b.Left < 0 {
			return nil, fmt.Errorf("relation: condition references unknown attribute %q", cl.Left)
		}
		if cl.Right != "" {
			if b.Right = s.IndexOf(cl.Right); b.Right < 0 {
				return nil, fmt.Errorf("relation: condition references unknown attribute %q", cl.Right)
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// And is a conjunction of conditions. An empty And is TRUE.
type And []Condition

// Eval implements Condition.
func (a And) Eval(s *Schema, t Tuple) (bool, error) {
	for _, c := range a {
		ok, err := c.Eval(s, t)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Attrs implements Condition.
func (a And) Attrs() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range a {
		for _, n := range c.Attrs() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// String implements Condition.
func (a And) String() string {
	if len(a) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a))
	for i, c := range a {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}
