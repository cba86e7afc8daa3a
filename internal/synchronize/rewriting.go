package synchronize

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/space"
)

// ExtentRelation classifies how a rewriting's extent relates to the original
// view's extent, as derivable from PC constraints (Section 5.4.3). Unknown
// means no constraint pins the relationship down.
type ExtentRelation uint8

// Extent relationship values.
const (
	ExtentUnknown ExtentRelation = iota
	ExtentEquivalent
	ExtentSubset
	ExtentSuperset
	ExtentApproximate // overlapping but neither contained (Figure 8d)
)

// String names the relationship per Figure 8.
func (e ExtentRelation) String() string {
	switch e {
	case ExtentEquivalent:
		return "equivalent"
	case ExtentSubset:
		return "subset"
	case ExtentSuperset:
		return "superset"
	case ExtentApproximate:
		return "approximate"
	default:
		return "unknown"
	}
}

// Rewriting is one legal rewriting produced by the synchronizer, with the
// provenance the QC-Model needs: which relations were substituted (dropped →
// replacement), which dispensable components were dropped, and the derivable
// extent relationship to the original view.
type Rewriting struct {
	View *esql.ViewDef
	// Replacements maps a dropped relation name to the relation that
	// replaced it.
	Replacements map[string]string
	// DroppedAttrs lists view-interface columns that the rewriting no
	// longer exposes (qualified original references).
	DroppedAttrs []string
	// DroppedConds lists WHERE clauses dropped (rendered).
	DroppedConds []string
	// Extent is the PC-derivable relationship of the new extent to the
	// original one.
	Extent ExtentRelation
	// Note is a short human-readable derivation trace.
	Note string
}

// Clone deep-copies the rewriting.
func (r *Rewriting) Clone() *Rewriting {
	cp := &Rewriting{
		View:         r.View.Clone(),
		Replacements: make(map[string]string, len(r.Replacements)),
		DroppedAttrs: append([]string(nil), r.DroppedAttrs...),
		DroppedConds: append([]string(nil), r.DroppedConds...),
		Extent:       r.Extent,
		Note:         r.Note,
	}
	for k, v := range r.Replacements {
		cp.Replacements[k] = v
	}
	return cp
}

// Synchronizer generates legal rewritings for views affected by capability
// changes.
type Synchronizer struct {
	MKB *misd.MKB
	// EnumerateDropVariants, when true, additionally emits the CVS-style
	// spectrum of rewritings obtained by dropping proper subsets of the
	// remaining dispensable attributes. These are dominated in information
	// preservation (footnote 2 of the paper) but exercise the ranking
	// model, so experiments can opt in.
	EnumerateDropVariants bool
	// MaxDropVariants bounds the spectrum enumeration per base rewriting:
	// the cap keeps the MaxDropVariants lightest valid variants in the
	// VariantWeight order. Zero disables the spectrum entirely.
	MaxDropVariants int
	// VariantWeight orders the drop-variant stream (see DropWeight). Nil
	// means uniform: variants stream by number of dropped items, the order
	// internal/experiments and its goldens rely on. The warehouse builds
	// its synchronizer with the QC quality weight of its configured
	// trade-off, which makes its search's pruning bound exact; a weight
	// that overestimates a dropped item's quality weight (w1/w2 by
	// category) would make that bound unsound.
	VariantWeight DropWeight
}

// DefaultMaxDropVariants is the default cap on the drop-variant spectrum per
// base rewriting.
const DefaultMaxDropVariants = 32

// New creates a synchronizer over the given MKB.
func New(mkb *misd.MKB) *Synchronizer {
	return &Synchronizer{MKB: mkb, MaxDropVariants: DefaultMaxDropVariants}
}

// Affected reports whether the view references the changed component.
func Affected(v *esql.ViewDef, c space.Change) bool {
	switch c.Kind {
	case space.AddAttribute, space.AddRelation:
		return false
	case space.DeleteRelation, space.RenameRelation:
		for _, f := range v.From {
			if f.Rel == c.Rel {
				return true
			}
		}
		return false
	case space.DeleteAttribute, space.RenameAttribute:
		binding := ""
		for _, f := range v.From {
			if f.Rel == c.Rel {
				binding = f.Binding()
			}
		}
		if binding == "" {
			return false
		}
		for _, s := range v.Select {
			if s.Attr.Rel == binding && s.Attr.Attr == c.Attr {
				return true
			}
		}
		for _, w := range v.Where {
			cl := w.Clause
			if (cl.Left.Rel == binding && cl.Left.Attr == c.Attr) ||
				(cl.Right.Rel == binding && cl.Right.Attr == c.Attr) {
				return true
			}
		}
		return false
	}
	return false
}

// Synchronize generates the legal rewritings of view v under change c.
// The view must be fully qualified (every attribute reference carries its
// FROM binding); use exec.Qualify first. An unaffected view yields a single
// identity rewriting. An affected view with no legal rewriting yields an
// empty slice — the view is "deceased" in the paper's Experiment 1 sense.
//
// This is the paper's enumerate-then-rank presentation: it collects the
// whole Enumerate stream eagerly, observing ctx between variants (a
// cancelled walk of a wide view's exponential spectrum returns ctx.Err()
// instead of finishing the 2^width enumeration). internal/experiments and
// examples/tuning rank its output with core.Rank; the warehouse's search
// (SearchTopK) consumes BaseRewritings and Variants lazily instead, and is
// tested against this function as its oracle.
func (sy *Synchronizer) Synchronize(ctx context.Context, v *esql.ViewDef, c space.Change) ([]*Rewriting, error) {
	var out []*Rewriting
	for rw, err := range sy.Enumerate(ctx, v, c) {
		if err != nil {
			return nil, err
		}
		out = append(out, rw)
	}
	// Enumerate already deduplicates; restore global signature order over
	// bases and variants combined.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].View.Signature() < out[j].View.Signature()
	})
	return out, nil
}

func identity(v *esql.ViewDef) *Rewriting {
	return &Rewriting{
		View:         v.Clone(),
		Replacements: map[string]string{},
		Extent:       ExtentEquivalent,
		Note:         "unaffected",
	}
}

// dedupe removes rewritings with identical signatures, keeping first
// occurrences, and orders the result deterministically.
func dedupe(in []*Rewriting) []*Rewriting {
	seen := map[string]bool{}
	var out []*Rewriting
	for _, r := range in {
		sig := r.View.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].View.Signature() < out[j].View.Signature()
	})
	return out
}

// legalExtent checks the rewriting's derivable extent relationship against
// the view's VE parameter (Figure 3 semantics).
func legalExtent(ve esql.ExtentParam, rel ExtentRelation) bool {
	switch ve {
	case esql.ExtentAny:
		return true
	case esql.ExtentEqual:
		return rel == ExtentEquivalent
	case esql.ExtentSuperset:
		return rel == ExtentEquivalent || rel == ExtentSuperset
	case esql.ExtentSubset:
		return rel == ExtentEquivalent || rel == ExtentSubset
	}
	return false
}

// combineExtent composes the extent effect of two derivation steps (e.g.
// dropping a dispensable condition enlarges the extent; substituting by a
// subset relation shrinks it).
func combineExtent(a, b ExtentRelation) ExtentRelation {
	if a == ExtentEquivalent {
		return b
	}
	if b == ExtentEquivalent {
		return a
	}
	if a == b {
		return a
	}
	if a == ExtentUnknown || b == ExtentUnknown {
		return ExtentUnknown
	}
	// subset ∘ superset (in either order) is no longer comparable.
	return ExtentApproximate
}

func fmtNote(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }
