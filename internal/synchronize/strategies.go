package synchronize

import (
	"fmt"
	"sort"

	"repro/internal/esql"
	"repro/internal/misd"
)

// deleteRelation handles the delete-relation capability change: the view
// loses FROM relation rel. Two families of legal rewritings exist:
//
//  1. Drop: if the relation is dispensable (RD=true) and every SELECT item
//     and WHERE clause over it is dispensable too, remove all of them.
//  2. Substitute: if the relation is replaceable (RR=true), every relation T
//     related to rel by a PC constraint in the MKB is a candidate; SELECT
//     items and WHERE clauses over rel are remapped through the constraint's
//     attribute correspondence, with dispensable components dropped when the
//     mapping cannot cover them.
func (sy *Synchronizer) deleteRelation(v *esql.ViewDef, rel string) ([]*Rewriting, error) {
	binding := ""
	var from *esql.FromItem
	for i := range v.From {
		if v.From[i].Rel == rel {
			from = &v.From[i]
			binding = from.Binding()
		}
	}
	if from == nil {
		return []*Rewriting{identity(v)}, nil
	}
	var out []*Rewriting
	if from.Dispensable && len(v.From) > 1 {
		if r, ok := dropRelation(v, binding, rel); ok {
			out = append(out, r)
		}
	}
	if from.Replaceable {
		subs, err := sy.substituteRelation(v, binding, rel)
		if err != nil {
			return nil, err
		}
		out = append(out, subs...)
		// CVS-style complex substitution: cover the dropped relation with
		// a join of two partial donors.
		out = append(out, sy.joinSubstitutions(v, binding, rel)...)
	}
	return out, nil
}

// dropRelation removes the FROM item and everything referencing it; returns
// false if an indispensable component blocks the drop or the view interface
// would become empty.
func dropRelation(v *esql.ViewDef, binding, rel string) (*Rewriting, bool) {
	r := &Rewriting{
		View:         v.Clone(),
		Replacements: map[string]string{},
		Extent:       ExtentUnknown,
		Note:         fmtNote("drop relation %s", rel),
	}
	var keepSel []esql.SelectItem
	for _, s := range r.View.Select {
		if s.Attr.Rel != binding {
			keepSel = append(keepSel, s)
			continue
		}
		if !s.Dispensable {
			return nil, false
		}
		r.DroppedAttrs = append(r.DroppedAttrs, s.Attr.String())
	}
	if len(keepSel) == 0 {
		return nil, false
	}
	var keepWhere []esql.CondItem
	extent := ExtentEquivalent
	for _, w := range r.View.Where {
		if w.Clause.Left.Rel != binding && (w.Clause.Right.Attr == "" || w.Clause.Right.Rel != binding) {
			keepWhere = append(keepWhere, w)
			continue
		}
		if !w.Dispensable {
			return nil, false
		}
		r.DroppedConds = append(r.DroppedConds, w.Clause.String())
		// Dropping a join condition against the removed relation changes
		// the extent in a way PC constraints alone cannot classify.
		if w.Clause.IsJoin() {
			extent = ExtentUnknown
		} else {
			extent = combineExtent(extent, ExtentSuperset)
		}
	}
	var keepFrom []esql.FromItem
	for _, f := range r.View.From {
		if f.Binding() != binding {
			keepFrom = append(keepFrom, f)
		}
	}
	r.View.Select, r.View.From, r.View.Where = keepSel, keepFrom, keepWhere
	// Removing a joined relation drops result tuples that had no join
	// partner requirement; with set semantics the projection onto the
	// remaining attributes is a superset of the original projection.
	if extent == ExtentEquivalent {
		extent = ExtentSuperset
	}
	r.Extent = extent
	if !legalExtent(v.Extent, r.Extent) {
		return nil, false
	}
	if err := r.View.Validate(); err != nil {
		return nil, false
	}
	return r, true
}

// substituteRelation generates one rewriting per PC-related replacement
// relation.
func (sy *Synchronizer) substituteRelation(v *esql.ViewDef, binding, rel string) ([]*Rewriting, error) {
	var out []*Rewriting
	for _, pc := range sy.MKB.PCConstraints(rel) {
		repl := pc.Right.Rel.Key()
		if repl == rel {
			continue
		}
		// The replacement must still exist in the MKB (i.e., not itself
		// have been deleted).
		if sy.MKB.Relation(repl) == nil {
			continue
		}
		r, ok := applySubstitution(v, binding, rel, repl, pc)
		if !ok {
			continue
		}
		if !legalExtent(v.Extent, r.Extent) {
			continue
		}
		if err := r.View.Validate(); err != nil {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// applySubstitution rewrites v, replacing FROM relation rel (bound as
// binding) by repl using the attribute correspondence of pc.
func applySubstitution(v *esql.ViewDef, binding, rel, repl string, pc misd.PCConstraint) (*Rewriting, bool) {
	mapping := pc.AttrMapping() // rel attr -> repl attr
	r := &Rewriting{
		View:         v.Clone(),
		Replacements: map[string]string{rel: repl},
		Note:         fmtNote("replace %s by %s via %s", rel, repl, pc),
	}
	newBinding := repl

	// Rewrite SELECT items.
	var keepSel []esql.SelectItem
	for _, s := range r.View.Select {
		if s.Attr.Rel != binding {
			keepSel = append(keepSel, s)
			continue
		}
		target, ok := mapping[s.Attr.Attr]
		if ok && s.Replaceable {
			ns := s
			ns.Attr = esql.AttrRef{Rel: newBinding, Attr: target}
			if ns.Alias == "" {
				// Keep the original output name so the view interface is
				// preserved even when the source attribute name differs.
				ns.Alias = s.OutputName()
			}
			keepSel = append(keepSel, ns)
			continue
		}
		if s.Dispensable {
			r.DroppedAttrs = append(r.DroppedAttrs, s.Attr.String())
			continue
		}
		return nil, false // indispensable and not replaceable/coverable
	}
	if len(keepSel) == 0 {
		return nil, false
	}

	// Rewrite WHERE clauses.
	var keepWhere []esql.CondItem
	extent := containmentExtent(pc)
	for _, w := range r.View.Where {
		cl := w.Clause
		touches := cl.Left.Rel == binding || (cl.Right.Attr != "" && cl.Right.Rel == binding)
		if !touches {
			keepWhere = append(keepWhere, w)
			continue
		}
		nw, ok := remapClause(w, binding, newBinding, mapping)
		if ok && w.Replaceable {
			keepWhere = append(keepWhere, nw)
			continue
		}
		if w.Dispensable {
			r.DroppedConds = append(r.DroppedConds, cl.String())
			if cl.IsJoin() {
				extent = ExtentUnknown
			} else {
				extent = combineExtent(extent, ExtentSuperset)
			}
			continue
		}
		return nil, false
	}

	// Rewrite FROM.
	for i := range r.View.From {
		if r.View.From[i].Binding() == binding {
			src := ""
			r.View.From[i] = esql.FromItem{
				Source:      src,
				Rel:         repl,
				Alias:       "",
				Dispensable: r.View.From[i].Dispensable,
				Replaceable: r.View.From[i].Replaceable,
			}
		}
	}
	r.View.Select, r.View.Where = keepSel, keepWhere
	r.Extent = extent
	return r, true
}

// containmentExtent derives the extent relationship caused by replacing the
// PC constraint's left relation with its right relation.
func containmentExtent(pc misd.PCConstraint) ExtentRelation {
	if pc.Left.HasSelection() || pc.Right.HasSelection() {
		return ExtentUnknown
	}
	switch pc.Rel {
	case misd.Equal:
		return ExtentEquivalent
	case misd.Subset:
		// Fragment(dropped) ⊆ Fragment(replacement): the replacement holds
		// more tuples, so the view extent grows.
		return ExtentSuperset
	default:
		return ExtentSubset
	}
}

// remapClause rewrites one WHERE clause's references from the old binding to
// the replacement relation, using the PC attribute mapping. It fails when a
// referenced attribute has no correspondent.
func remapClause(w esql.CondItem, oldBinding, newBinding string, mapping map[string]string) (esql.CondItem, bool) {
	out := w
	cl := &out.Clause
	if cl.Left.Rel == oldBinding {
		t, ok := mapping[cl.Left.Attr]
		if !ok {
			return w, false
		}
		cl.Left = esql.AttrRef{Rel: newBinding, Attr: t}
	}
	if cl.Right.Attr != "" && cl.Right.Rel == oldBinding {
		t, ok := mapping[cl.Right.Attr]
		if !ok {
			return w, false
		}
		cl.Right = esql.AttrRef{Rel: newBinding, Attr: t}
	}
	return out, true
}

// deleteAttribute handles the delete-attribute change for attribute
// rel.attr. Rewriting families:
//
//  1. Drop the SELECT items and WHERE clauses over the attribute if they are
//     dispensable.
//  2. If the whole relation is replaceable, substitute a PC-related relation
//     whose mapping covers all *other* referenced attributes of rel as well
//     as (optionally) the deleted one — the paper's Experiment 1 pattern
//     where deleting R.A is salvaged by switching to a replica S(A,...).
func (sy *Synchronizer) deleteAttribute(v *esql.ViewDef, rel, attr string) ([]*Rewriting, error) {
	binding := ""
	var from *esql.FromItem
	for i := range v.From {
		if v.From[i].Rel == rel {
			from = &v.From[i]
			binding = from.Binding()
		}
	}
	if from == nil {
		return []*Rewriting{identity(v)}, nil
	}
	var out []*Rewriting
	if r, ok := dropAttribute(v, binding, rel, attr); ok {
		out = append(out, r)
	}
	if from.Replaceable {
		// Substituting the whole relation also salvages the attribute,
		// provided the PC mapping covers it. We do not pre-filter on the
		// deleted attribute: applySubstitution drops or maps per item.
		subs, err := sy.substituteRelation(v, binding, rel)
		if err != nil {
			return nil, err
		}
		// The dropped attribute must NOT survive via the dead relation:
		// applySubstitution maps it to the replacement, which is exactly
		// the salvage we want, so keep those rewritings. But rewritings
		// that kept a reference to rel.attr would be bogus; substitution
		// replaces the whole relation so none can.
		out = append(out, subs...)
	}
	// Per-attribute replacement without replacing the relation: the
	// attribute is AR=true and a PC constraint maps rel.attr to some
	// T.attr'. This introduces T into FROM joined through a join
	// constraint. Supported when a JC between rel's replacement-join and
	// the view exists; see attributePatch.
	patches, err := sy.attributePatch(v, binding, rel, attr)
	if err != nil {
		return nil, err
	}
	out = append(out, patches...)
	return out, nil
}

// dropAttribute removes the deleted attribute's SELECT items and WHERE
// clauses when dispensable.
func dropAttribute(v *esql.ViewDef, binding, rel, attr string) (*Rewriting, bool) {
	r := &Rewriting{
		View:         v.Clone(),
		Replacements: map[string]string{},
		Extent:       ExtentEquivalent,
		Note:         fmtNote("drop attribute %s.%s", rel, attr),
	}
	var keepSel []esql.SelectItem
	for _, s := range r.View.Select {
		if s.Attr.Rel == binding && s.Attr.Attr == attr {
			if !s.Dispensable {
				return nil, false
			}
			r.DroppedAttrs = append(r.DroppedAttrs, s.Attr.String())
			continue
		}
		keepSel = append(keepSel, s)
	}
	if len(keepSel) == 0 {
		return nil, false
	}
	extent := ExtentEquivalent
	var keepWhere []esql.CondItem
	for _, w := range r.View.Where {
		cl := w.Clause
		touches := (cl.Left.Rel == binding && cl.Left.Attr == attr) ||
			(cl.Right.Attr != "" && cl.Right.Rel == binding && cl.Right.Attr == attr)
		if !touches {
			keepWhere = append(keepWhere, w)
			continue
		}
		if !w.Dispensable {
			return nil, false
		}
		r.DroppedConds = append(r.DroppedConds, cl.String())
		if cl.IsJoin() {
			extent = ExtentUnknown
		} else {
			extent = combineExtent(extent, ExtentSuperset)
		}
	}
	r.View.Select, r.View.Where = keepSel, keepWhere
	// Dropping only interface columns leaves the tuple set (projected onto
	// the remaining columns) intact.
	r.Extent = extent
	if !legalExtent(v.Extent, r.Extent) {
		return nil, false
	}
	if err := r.View.Validate(); err != nil {
		return nil, false
	}
	return r, true
}

// attributePatch replaces just the deleted attribute by joining in a
// PC-related relation T that carries a correspondent attribute, connected to
// the view through a join constraint between T and one of the view's
// remaining relations.
func (sy *Synchronizer) attributePatch(v *esql.ViewDef, binding, rel, attr string) ([]*Rewriting, error) {
	// Collect SELECT items over the deleted attribute that are replaceable.
	var needed []int
	for i, s := range v.Select {
		if s.Attr.Rel == binding && s.Attr.Attr == attr && s.Replaceable {
			needed = append(needed, i)
		}
	}
	if len(needed) == 0 {
		return nil, nil
	}
	var out []*Rewriting
	for _, pc := range sy.MKB.PCConstraints(rel) {
		target, ok := pc.AttrMapping()[attr]
		if !ok {
			continue
		}
		donor := pc.Right.Rel.Key()
		if donor == rel || sy.MKB.Relation(donor) == nil {
			continue
		}
		if v.FromBinding(donor) != nil {
			continue // already joined in; substitution path covers this
		}
		// Find a join constraint linking the donor to a surviving view
		// relation (including rel itself, which still exists — only the
		// attribute was deleted). A constraint that joins through the
		// deleted attribute itself is unusable.
		var jc misd.JoinConstraint
		var anchor string
		found := false
		for _, f := range v.From {
			j, ok := sy.MKB.JoinConstraintBetween(donor, f.Rel)
			if !ok {
				continue
			}
			usable := true
			for _, cl := range j.Clauses {
				if f.Rel == rel && cl.Attr2 == attr {
					usable = false
					break
				}
			}
			if usable {
				jc, anchor, found = j, f.Binding(), true
				break
			}
		}
		if !found {
			continue
		}
		r := &Rewriting{
			View:         v.Clone(),
			Replacements: map[string]string{rel + "." + attr: donor + "." + target},
			Extent:       ExtentUnknown,
			Note:         fmtNote("patch %s.%s with %s.%s joined via %s", rel, attr, donor, target, jc),
		}
		for _, i := range needed {
			s := r.View.Select[i]
			if s.Alias == "" {
				s.Alias = s.OutputName()
			}
			s.Attr = esql.AttrRef{Rel: donor, Attr: target}
			r.View.Select[i] = s
		}
		r.View.From = append(r.View.From, esql.FromItem{Rel: donor, Replaceable: true, Dispensable: true})
		for _, c := range jc.Clauses {
			r.View.Where = append(r.View.Where, esql.CondItem{
				Clause: esql.Clause{
					Left:  esql.AttrRef{Rel: donor, Attr: c.Attr1},
					Op:    c.Op,
					Right: esql.AttrRef{Rel: anchor, Attr: c.Attr2},
				},
				Replaceable: true,
			})
		}
		// Any WHERE clause over the deleted attribute must be remapped or
		// dispensable.
		legal := true
		for i := 0; i < len(r.View.Where); i++ {
			w := r.View.Where[i]
			cl := w.Clause
			touches := (cl.Left.Rel == binding && cl.Left.Attr == attr) ||
				(cl.Right.Attr != "" && cl.Right.Rel == binding && cl.Right.Attr == attr)
			if !touches {
				continue
			}
			if nw, ok := remapClause(w, binding, donor, map[string]string{attr: target}); ok && w.Replaceable {
				r.View.Where[i] = nw
				continue
			}
			if w.Dispensable {
				r.DroppedConds = append(r.DroppedConds, cl.String())
				r.View.Where = append(r.View.Where[:i], r.View.Where[i+1:]...)
				i--
				continue
			}
			legal = false
			break
		}
		if !legal {
			continue
		}
		if !legalExtent(v.Extent, r.Extent) && v.Extent != esql.ExtentAny {
			continue
		}
		if err := r.View.Validate(); err != nil {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// renameRelation rewrites FROM references syntactically — an equivalent
// rewriting always exists.
func renameRelation(v *esql.ViewDef, rel, newName string) ([]*Rewriting, error) {
	r := identity(v)
	r.Note = fmtNote("rename relation %s -> %s", rel, newName)
	for i := range r.View.From {
		if r.View.From[i].Rel == rel {
			oldBinding := r.View.From[i].Binding()
			r.View.From[i].Rel = newName
			if r.View.From[i].Alias == "" {
				// The binding name changes with the relation name; fix up
				// all qualified references.
				rebind(r.View, oldBinding, newName)
			}
		}
	}
	return []*Rewriting{r}, nil
}

// renameAttribute rewrites attribute references syntactically.
func renameAttribute(v *esql.ViewDef, rel, attr, newName string) ([]*Rewriting, error) {
	r := identity(v)
	r.Note = fmtNote("rename attribute %s.%s -> %s", rel, attr, newName)
	binding := ""
	for _, f := range r.View.From {
		if f.Rel == rel {
			binding = f.Binding()
		}
	}
	for i := range r.View.Select {
		s := &r.View.Select[i]
		if s.Attr.Rel == binding && s.Attr.Attr == attr {
			if s.Alias == "" {
				s.Alias = s.OutputName() // preserve the view interface
			}
			s.Attr.Attr = newName
		}
	}
	for i := range r.View.Where {
		cl := &r.View.Where[i].Clause
		if cl.Left.Rel == binding && cl.Left.Attr == attr {
			cl.Left.Attr = newName
		}
		if cl.Right.Attr != "" && cl.Right.Rel == binding && cl.Right.Attr == attr {
			cl.Right.Attr = newName
		}
	}
	return []*Rewriting{r}, nil
}

// rebind renames a FROM binding across all qualified references.
func rebind(v *esql.ViewDef, oldBinding, newBinding string) {
	for i := range v.Select {
		if v.Select[i].Attr.Rel == oldBinding {
			v.Select[i].Attr.Rel = newBinding
		}
	}
	for i := range v.Where {
		cl := &v.Where[i].Clause
		if cl.Left.Rel == oldBinding {
			cl.Left.Rel = newBinding
		}
		if cl.Right.Attr != "" && cl.Right.Rel == oldBinding {
			cl.Right.Rel = newBinding
		}
	}
}

// Describe renders a short multi-line report of a rewriting set. The report
// is ordered by rewriting signature — not by the slice's order — so logs and
// golden expectations stay byte-identical whether Synchronize or the
// warehouse's search produced the set.
func Describe(rws []*Rewriting) string {
	order := make([]int, len(rws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rws[order[a]].View.Signature() < rws[order[b]].View.Signature()
	})
	s := fmt.Sprintf("%d legal rewriting(s)\n", len(rws))
	for i, idx := range order {
		r := rws[idx]
		s += fmt.Sprintf("[%d] extent=%s note=%s\n", i, r.Extent, r.Note)
	}
	return s
}
