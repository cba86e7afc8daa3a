package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/space"
)

// ChurnParams configures a generated evolution history: an information
// space of "family" relations carrying structurally identical twin views,
// donor replicas PC-related to each family, and spare relations that absorb
// view-free schema churn, plus a long randomized capability-change stream
// over all of them. This is the Experiment-1-at-scale workload the
// evolution-session engine (internal/evolve) is benchmarked and
// differentially tested on.
type ChurnParams struct {
	// Families is the number of wide relations W1..Wf that carry views.
	Families int
	// TwinsPerFamily is the number of structurally identical views stamped
	// out per family relation — the memo cache's sharing factor.
	TwinsPerFamily int
	// Width is the number of droppable attributes A1..Aw per family
	// relation (each family also holds a key attribute K the views do not
	// reference).
	Width int
	// Donors is the number of replica relations PC-related to each family
	// relation; zero disables substitution rewritings entirely.
	Donors int
	// Spares is the number of relations no view references; changes aimed
	// at them exercise the session's footprint skipping.
	Spares int
	// SpareAttrs is the initial attribute count per spare relation.
	SpareAttrs int
	// Changes is the length of the generated capability-change stream.
	Changes int
	// Seed drives both space population and stream generation; equal
	// params produce byte-identical histories.
	Seed int64
	// FamilyDeleteRatio, FamilyRenameRatio, and DonorRatio are the
	// approximate fractions of the stream aimed at family-attribute
	// deletes, family renames, and donor churn; the remainder targets
	// spare relations.
	FamilyDeleteRatio float64
	FamilyRenameRatio float64
	DonorRatio        float64
	// ReplaceableViews marks view components replaceable, so a family
	// delete can be salvaged by substituting a donor (after which the
	// views migrate off the family relation). When false the views are
	// drop-only: every family delete shrinks the twin interfaces in place,
	// which keeps the generator's view bookkeeping exact.
	ReplaceableViews bool
	// AllowDecease permits deleting a family's last view-referenced
	// attribute, which (in drop-only mode) leaves the twins without any
	// legal rewriting.
	AllowDecease bool
}

// DefaultChurnParams returns a medium churn configuration: 2 families of 8
// twin views over 10 droppable attributes with 2 donors each, 6 spare
// relations, and a 200-change stream.
func DefaultChurnParams() ChurnParams {
	return ChurnParams{
		Families:          2,
		TwinsPerFamily:    8,
		Width:             10,
		Donors:            2,
		Spares:            6,
		SpareAttrs:        5,
		Changes:           200,
		Seed:              1,
		FamilyDeleteRatio: 0.08,
		FamilyRenameRatio: 0.06,
		DonorRatio:        0.10,
	}
}

// ChurnHistory is a generated evolution history: the change stream plus the
// deterministic recipe for the space and views it applies to. BuildSpace
// and Views return fresh pre-history state, so one history can drive both
// sides of a differential or benchmark comparison.
type ChurnHistory struct {
	Params  ChurnParams
	Changes []space.Change
}

// churnState tracks the simulated schema effects of emitted changes, so
// every generated change is valid at its position in the stream. View
// definitions never influence validity — only base schemas do — which is
// what lets the generator run without a warehouse.
type churnState struct {
	attrs      map[string][]string // live relation -> current attributes
	referenced map[string][]string // family relation -> attrs its views reference
	families   []string            // current family relation names (renames tracked)
	donors     []string            // live donor relation names
	spares     []string
	fresh      int // counter for fresh attribute/relation names
}

func (st *churnState) removeAttr(rel, attr string) {
	st.attrs[rel] = removeString(st.attrs[rel], attr)
	if _, ok := st.referenced[rel]; ok {
		st.referenced[rel] = removeString(st.referenced[rel], attr)
	}
}

func (st *churnState) renameAttr(rel, attr, newName string) {
	st.attrs[rel] = replaceString(st.attrs[rel], attr, newName)
	if _, ok := st.referenced[rel]; ok {
		st.referenced[rel] = replaceString(st.referenced[rel], attr, newName)
	}
}

func removeString(in []string, s string) []string {
	out := in[:0]
	for _, v := range in {
		if v != s {
			out = append(out, v)
		}
	}
	return out
}

func replaceString(in []string, old, new string) []string {
	for i, v := range in {
		if v == old {
			in[i] = new
		}
	}
	return in
}

// Churn generates a churn history from the params. The stream only contains
// changes that are valid at their position (attributes exist when deleted
// or renamed, relations are alive, fresh names are unused), so replaying it
// through either warehouse.ApplyChange or an evolution session never errors.
func Churn(p ChurnParams) (*ChurnHistory, error) {
	if p.Families < 1 || p.TwinsPerFamily < 1 || p.Width < 1 || p.Changes < 1 {
		return nil, fmt.Errorf("scenario: Churn needs at least one family, twin, attribute, and change, got %+v", p)
	}
	h := &ChurnHistory{Params: p}
	rng := rand.New(rand.NewSource(p.Seed))

	st := &churnState{
		attrs:      map[string][]string{},
		referenced: map[string][]string{},
	}
	for f := 1; f <= p.Families; f++ {
		name := fmt.Sprintf("W%d", f)
		st.families = append(st.families, name)
		st.attrs[name] = familyAttrNames(p.Width)
		st.referenced[name] = familyViewAttrNames(p.Width)
		for d := 1; d <= p.Donors; d++ {
			donor := fmt.Sprintf("D%d_%d", f, d)
			st.donors = append(st.donors, donor)
			st.attrs[donor] = familyAttrNames(p.Width)
		}
	}
	for i := 1; i <= p.Spares; i++ {
		name := fmt.Sprintf("SP%d", i)
		st.spares = append(st.spares, name)
		st.attrs[name] = spareAttrNames(i, p.SpareAttrs)
	}

	for len(h.Changes) < p.Changes {
		h.Changes = append(h.Changes, nextChurnChange(p, st, rng))
	}
	return h, nil
}

// nextChurnChange emits one valid change, preferring the configured target
// mix and falling back to an always-valid spare add-attribute.
func nextChurnChange(p ChurnParams, st *churnState, rng *rand.Rand) space.Change {
	r := rng.Float64()
	switch {
	case r < p.FamilyDeleteRatio:
		if c, ok := familyDelete(p, st, rng); ok {
			return c
		}
	case r < p.FamilyDeleteRatio+p.FamilyRenameRatio:
		if c, ok := familyRename(st, rng); ok {
			return c
		}
	case r < p.FamilyDeleteRatio+p.FamilyRenameRatio+p.DonorRatio:
		if c, ok := donorChurn(st, rng); ok {
			return c
		}
	}
	return spareChurn(st, rng)
}

// familyDelete deletes a view-referenced attribute of a random family,
// keeping at least one referenced attribute unless AllowDecease.
func familyDelete(p ChurnParams, st *churnState, rng *rand.Rand) (space.Change, bool) {
	fam := st.families[rng.Intn(len(st.families))]
	refs := st.referenced[fam]
	minKeep := 1
	if p.AllowDecease {
		minKeep = 0
	}
	if len(refs) <= minKeep || len(st.attrs[fam]) < 2 {
		return space.Change{}, false
	}
	attr := refs[rng.Intn(len(refs))]
	st.removeAttr(fam, attr)
	return space.Change{Kind: space.DeleteAttribute, Rel: fam, Attr: attr}, true
}

// familyRename renames a view-referenced attribute (4 of 5 times) or the
// family relation itself, both of which synchronize through deterministic
// syntactic rewritings.
func familyRename(st *churnState, rng *rand.Rand) (space.Change, bool) {
	i := rng.Intn(len(st.families))
	fam := st.families[i]
	if rng.Intn(5) == 0 {
		st.fresh++
		newName := fmt.Sprintf("%s_r%d", fam, st.fresh)
		st.attrs[newName] = st.attrs[fam]
		st.referenced[newName] = st.referenced[fam]
		delete(st.attrs, fam)
		delete(st.referenced, fam)
		st.families[i] = newName
		return space.Change{Kind: space.RenameRelation, Rel: fam, NewName: newName}, true
	}
	refs := st.referenced[fam]
	if len(refs) == 0 {
		return space.Change{}, false
	}
	attr := refs[rng.Intn(len(refs))]
	st.fresh++
	newName := fmt.Sprintf("N%d", st.fresh)
	st.renameAttr(fam, attr, newName)
	return space.Change{Kind: space.RenameAttribute, Rel: fam, Attr: attr, NewName: newName}, true
}

// donorChurn mutates a donor replica: mostly attribute churn (degrading the
// PC mapping future substitutions can use), occasionally deleting the donor
// outright.
func donorChurn(st *churnState, rng *rand.Rand) (space.Change, bool) {
	if len(st.donors) == 0 {
		return space.Change{}, false
	}
	i := rng.Intn(len(st.donors))
	donor := st.donors[i]
	switch {
	case rng.Intn(5) == 0:
		st.donors = append(st.donors[:i], st.donors[i+1:]...)
		delete(st.attrs, donor)
		return space.Change{Kind: space.DeleteRelation, Rel: donor}, true
	case rng.Intn(2) == 0 && len(st.attrs[donor]) > 1:
		attr := st.attrs[donor][rng.Intn(len(st.attrs[donor]))]
		st.removeAttr(donor, attr)
		return space.Change{Kind: space.DeleteAttribute, Rel: donor, Attr: attr}, true
	default:
		attr := st.attrs[donor][rng.Intn(len(st.attrs[donor]))]
		st.fresh++
		newName := fmt.Sprintf("N%d", st.fresh)
		st.renameAttr(donor, attr, newName)
		return space.Change{Kind: space.RenameAttribute, Rel: donor, Attr: attr, NewName: newName}, true
	}
}

// spareChurn mutates a relation no view references: delete, add, or rename
// an attribute. Add-attribute is always valid, making this the generator's
// fallback.
func spareChurn(st *churnState, rng *rand.Rand) space.Change {
	if len(st.spares) == 0 {
		st.fresh++
		// Degenerate config without spares: park harmless widenings on the
		// first family relation (added attributes are never referenced).
		return space.Change{
			Kind: space.AddAttribute, Rel: st.families[0],
			Attr: fmt.Sprintf("X%d", st.fresh), AttrType: relation.TypeInt,
		}
	}
	sp := st.spares[rng.Intn(len(st.spares))]
	switch op := rng.Intn(3); {
	case op == 0 && len(st.attrs[sp]) > 1:
		attr := st.attrs[sp][rng.Intn(len(st.attrs[sp]))]
		st.removeAttr(sp, attr)
		return space.Change{Kind: space.DeleteAttribute, Rel: sp, Attr: attr}
	case op == 1:
		attr := st.attrs[sp][rng.Intn(len(st.attrs[sp]))]
		st.fresh++
		newName := fmt.Sprintf("N%d", st.fresh)
		st.renameAttr(sp, attr, newName)
		return space.Change{Kind: space.RenameAttribute, Rel: sp, Attr: attr, NewName: newName}
	default:
		st.fresh++
		attr := fmt.Sprintf("X%d", st.fresh)
		st.attrs[sp] = append(st.attrs[sp], attr)
		return space.Change{Kind: space.AddAttribute, Rel: sp, Attr: attr, AttrType: relation.TypeInt}
	}
}

func familyAttrNames(width int) []string {
	out := []string{"K"}
	for i := 1; i <= width; i++ {
		out = append(out, fmt.Sprintf("A%d", i))
	}
	return out
}

func familyViewAttrNames(width int) []string {
	out := make([]string, 0, width)
	for i := 1; i <= width; i++ {
		out = append(out, fmt.Sprintf("A%d", i))
	}
	return out
}

func spareAttrNames(spare, n int) []string {
	out := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, fmt.Sprintf("B%d_%d", spare, i))
	}
	return out
}

// BuildSpace materializes a fresh pre-history information space for the
// churn scenario: family relations W1..Wf (key K plus A1..Awidth) at one
// source each, Donors replicas per family at their own sources with
// full-width PC constraints (alternating containment) and a K-equijoin
// constraint, and Spares spare relations at a shared source. Relations are
// registered with advertised cardinalities only — the churn workload is
// analytic, like WideSpace.
func (h *ChurnHistory) BuildSpace() (*space.Space, error) {
	p := h.Params
	sp := space.New()
	mkb := sp.MKB()
	mkb.DefaultJoinSelectivity = 0.005
	mkb.DefaultSelectivity = 0.5

	attrsFor := func(names []string) []relation.Attribute {
		out := make([]relation.Attribute, len(names))
		for i, n := range names {
			out[i] = relation.Attribute{Name: n, Type: relation.TypeInt, Size: 20}
		}
		return out
	}
	containments := []misd.Rel{misd.Superset, misd.Equal, misd.Subset}

	for f := 1; f <= p.Families; f++ {
		src := fmt.Sprintf("ISF%d", f)
		if _, err := sp.AddSource(src); err != nil {
			return nil, err
		}
		fam := fmt.Sprintf("W%d", f)
		if err := sp.AddRelation(src, relation.New(fam, relation.NewSchema(attrsFor(familyAttrNames(p.Width))...))); err != nil {
			return nil, err
		}
		mkb.SetCard(fam, 1000)
		for d := 1; d <= p.Donors; d++ {
			dsrc := fmt.Sprintf("ISD%d_%d", f, d)
			if _, err := sp.AddSource(dsrc); err != nil {
				return nil, err
			}
			donor := fmt.Sprintf("D%d_%d", f, d)
			if err := sp.AddRelation(dsrc, relation.New(donor, relation.NewSchema(attrsFor(familyAttrNames(p.Width))...))); err != nil {
				return nil, err
			}
			mkb.SetCard(donor, 1000+500*d)
			if err := mkb.AddPCConstraint(misd.PCConstraint{
				Left:  misd.Fragment{Rel: misd.RelRef{Rel: fam}, Attrs: familyAttrNames(p.Width)},
				Right: misd.Fragment{Rel: misd.RelRef{Rel: donor}, Attrs: familyAttrNames(p.Width)},
				Rel:   containments[(d-1)%len(containments)],
			}); err != nil {
				return nil, err
			}
			if err := mkb.AddJoinConstraint(misd.JoinConstraint{
				R1:      misd.RelRef{Rel: fam},
				R2:      misd.RelRef{Rel: donor},
				Clauses: []misd.JoinClause{{Attr1: "K", Op: relation.OpEQ, Attr2: "K"}},
			}); err != nil {
				return nil, err
			}
		}
	}
	if p.Spares > 0 {
		if _, err := sp.AddSource("ISS"); err != nil {
			return nil, err
		}
		for i := 1; i <= p.Spares; i++ {
			name := fmt.Sprintf("SP%d", i)
			if err := sp.AddRelation("ISS", relation.New(name, relation.NewSchema(attrsFor(spareAttrNames(i, p.SpareAttrs))...))); err != nil {
				return nil, err
			}
			mkb.SetCard(name, 400)
		}
	}
	return sp, nil
}

// Populate adds a deterministic set of rows tuples to every relation of a
// space built by BuildSpace, so serving-path drivers (the eved demo daemon,
// BenchmarkServeConcurrent) read and re-materialize real extents instead of
// empty ones. The fill is a fixed function of row and column index, so
// equal spaces populate identically. Each relation is sealed, so the fill
// lands as a new one (WithDelta, ReplaceRelation); the MKB keeps the
// cardinality BuildSpace advertised.
func Populate(sp *space.Space, rows int) error {
	for _, name := range sp.RelationNames() {
		r := sp.Relation(name)
		width := r.Schema().Len()
		fill := make([]relation.Tuple, rows)
		for i := range fill {
			fill[i] = make(relation.Tuple, width)
			for j := range fill[i] {
				fill[i][j] = relation.Int(int64(i*7 + j))
			}
		}
		card := sp.MKB().Relation(name).Card
		next, err := r.WithDelta(fill, nil)
		if err == nil {
			err = sp.ReplaceRelation(name, next)
		}
		if err != nil {
			return fmt.Errorf("scenario: populate %s: %w", name, err)
		}
		sp.MKB().SetCard(name, card)
	}
	return nil
}

// Views returns fresh pre-history view definitions: TwinsPerFamily
// structurally identical views per family, each selecting every A-attribute
// of its family relation as a dispensable column. With ReplaceableViews the
// FROM item and every column are also replaceable, opening the donor
// substitution families.
func (h *ChurnHistory) Views() []*esql.ViewDef {
	p := h.Params
	var out []*esql.ViewDef
	for f := 1; f <= p.Families; f++ {
		fam := fmt.Sprintf("W%d", f)
		for t := 1; t <= p.TwinsPerFamily; t++ {
			v := &esql.ViewDef{
				Name:   fmt.Sprintf("V%d_%d", f, t),
				Extent: esql.ExtentAny,
				From:   []esql.FromItem{{Rel: fam, Replaceable: p.ReplaceableViews}},
			}
			for _, a := range familyViewAttrNames(p.Width) {
				v.Select = append(v.Select, esql.SelectItem{
					Attr:        esql.AttrRef{Rel: fam, Attr: a},
					Dispensable: true,
					Replaceable: p.ReplaceableViews,
				})
			}
			out = append(out, v)
		}
	}
	return out
}
