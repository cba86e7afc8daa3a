package exec

import (
	"context"
	"fmt"

	"repro/internal/esql"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/space"
)

// Evaluate materializes the view over the space. The resulting relation's
// columns carry the view's output names; duplicates are removed (set
// semantics, as the paper's extent comparisons assume). Cancellation is
// observed between plan operators and every few thousand tuples inside
// them; a cancelled evaluation returns ctx.Err() and no partial extent.
func Evaluate(ctx context.Context, v *esql.ViewDef, sp *space.Space) (*relation.Relation, error) {
	p, err := Plan(v, sp)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx)
}

// Plan qualifies the view and compiles it into a physical plan without
// executing it. Its scans share the storage of the relations the space
// holds now; a later change replaces them, so the plan keeps reading the
// state it was compiled against.
func Plan(v *esql.ViewDef, sp *space.Space) (*plan.Plan, error) {
	q, err := Qualify(v, sp)
	if err != nil {
		return nil, err
	}
	return plan.Compile(q, sp)
}

// Explain renders the physical plan the executor would run for the view —
// the ExplainPlan debugging entry point.
func Explain(v *esql.ViewDef, sp *space.Space) (string, error) {
	p, err := Plan(v, sp)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// EvaluateNaive is the original left-to-right evaluator: every base
// relation is re-bound through qualifyColumns, WHERE clauses are pushed
// into the leftmost join at which they bind, and relations join in FROM
// order. It is retained as the executable specification the planner is
// differentially tested against; production paths use Evaluate.
func EvaluateNaive(v *esql.ViewDef, sp *space.Space) (*relation.Relation, error) {
	q, err := Qualify(v, sp)
	if err != nil {
		return nil, err
	}
	pending := make([]relation.Condition, 0, len(q.Where))
	for _, c := range q.Where {
		pending = append(pending, clauseToAlgebra(c.Clause))
	}
	ready := func(schema *relation.Schema) relation.And {
		var take relation.And
		rest := pending[:0]
		for _, c := range pending {
			bound := true
			for _, a := range c.Attrs() {
				if !schema.Has(a) {
					bound = false
					break
				}
			}
			if bound {
				take = append(take, c)
			} else {
				rest = append(rest, c)
			}
		}
		pending = rest
		return take
	}

	var acc *relation.Relation
	for _, f := range q.From {
		base := sp.Relation(f.Rel)
		if base == nil {
			return nil, fmt.Errorf("exec: view %s references missing relation %q", v.Name, f.Rel)
		}
		qualified, err := qualifyColumns(base, f.Binding())
		if err != nil {
			return nil, err
		}
		if local := ready(qualified.Schema()); len(local) > 0 {
			if qualified, err = qualified.Select(local); err != nil {
				return nil, err
			}
		}
		if acc == nil {
			acc = qualified
			continue
		}
		combined := relation.NewSchema(append(acc.Schema().Attrs(), qualified.Schema().Attrs()...)...)
		acc, err = relation.Join(acc, qualified, ready(combined))
		if err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("exec: view %s has no FROM relations", v.Name)
	}
	// Any clause still pending references columns that never became bound
	// (caught by Validate, but guard anyway).
	selected, err := acc.Select(relation.And(pending))
	if err != nil {
		return nil, err
	}
	// Project and rename to the view interface, row by row: one column may
	// feed several outputs (SELECT R.B AS A, R.B), and Insert keeps a set.
	at := make([]int, len(q.Select))
	outAttrs := make([]relation.Attribute, len(q.Select))
	for i, s := range q.Select {
		col := s.Attr.Qualified()
		if at[i] = selected.Schema().IndexOf(col); at[i] < 0 {
			return nil, fmt.Errorf("exec: view %s selects unknown column %q", v.Name, col)
		}
		a := selected.Schema().Attr(at[i])
		a.Name = s.OutputName()
		a.Source = col
		outAttrs[i] = a
	}
	out := relation.New(v.Name, relation.NewSchema(outAttrs...))
	for _, t := range selected.Tuples() {
		row := make(relation.Tuple, len(at))
		for i, j := range at {
			row[i] = t[j]
		}
		if err := out.Insert(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// qualifyColumns renames base's columns to "binding.attr" through
// Relation.Rebind, the planner's scan re-binding, so it keeps both row
// order and cardinality (see TestQualifyColumnsCopy).
func qualifyColumns(base *relation.Relation, binding string) (*relation.Relation, error) {
	return base.Rebind(base.Name, base.Schema().Qualify(base.Name, binding))
}

func clauseToAlgebra(c esql.Clause) relation.Condition {
	if c.Right.Attr != "" {
		return relation.AttrAttr(c.Left.Qualified(), c.Op, c.Right.Qualified())
	}
	return relation.AttrConst(c.Left.Qualified(), c.Op, c.Const)
}

// Qualify resolves every unqualified attribute reference in the view to its
// unique FROM binding using the space's actual relation schemas, returning a
// fully qualified copy. Ambiguous or unresolvable references are errors.
func Qualify(v *esql.ViewDef, sp *space.Space) (*esql.ViewDef, error) {
	schemaOf := func(rel string) *relation.Schema {
		if r := sp.Relation(rel); r != nil {
			return r.Schema()
		}
		return nil
	}
	return QualifyWith(v, schemaOf)
}

// QualifyWith is Qualify with an explicit schema lookup, so the synchronizer
// can qualify views against MKB-recorded schemas (e.g. for already-deleted
// relations).
func QualifyWith(v *esql.ViewDef, schemaOf func(rel string) *relation.Schema) (*esql.ViewDef, error) {
	q := v.Clone()
	resolve := func(ref esql.AttrRef) (esql.AttrRef, error) {
		if ref.Attr == "" {
			return ref, nil
		}
		if ref.Rel != "" {
			if q.FromBinding(ref.Rel) == nil {
				return ref, fmt.Errorf("exec: view %s references unbound relation %q", v.Name, ref.Rel)
			}
			return ref, nil
		}
		var found []string
		for _, f := range q.From {
			s := schemaOf(f.Rel)
			if s != nil && s.Has(ref.Attr) {
				found = append(found, f.Binding())
			}
		}
		switch len(found) {
		case 1:
			return esql.AttrRef{Rel: found[0], Attr: ref.Attr}, nil
		case 0:
			return ref, fmt.Errorf("exec: view %s: attribute %q not found in any FROM relation", v.Name, ref.Attr)
		default:
			return ref, fmt.Errorf("exec: view %s: attribute %q is ambiguous (%v)", v.Name, ref.Attr, found)
		}
	}
	var err error
	for i := range q.Select {
		if q.Select[i].Attr, err = resolve(q.Select[i].Attr); err != nil {
			return nil, err
		}
	}
	for i := range q.Where {
		if q.Where[i].Clause.Left, err = resolve(q.Where[i].Clause.Left); err != nil {
			return nil, err
		}
		if q.Where[i].Clause.Right.Attr != "" {
			if q.Where[i].Clause.Right, err = resolve(q.Where[i].Clause.Right); err != nil {
				return nil, err
			}
		}
	}
	return q, nil
}
