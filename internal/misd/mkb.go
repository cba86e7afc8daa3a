package misd

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// RelationInfo is the MKB's registration record for one base relation
// (Equation 3: IS.R(A1,...,An)) plus the database statistics the cost model
// assumes are known (Section 6.1): cardinality, attribute sizes, local
// selectivity.
type RelationInfo struct {
	Ref    RelRef
	Schema *relation.Schema
	// Card is the advertised cardinality |R|. The space simulator keeps it
	// in sync with the actual extent; scenario generators may also set it
	// directly for purely analytic runs.
	Card int
	// LocalSelectivity is the selectivity σ of the relation's local
	// selection condition within a view (Section 6.1 assumption 4).
	// Zero means "use the MKB default".
	LocalSelectivity float64
}

// MKB is the Meta Knowledge Base: registered relations and the semantic
// constraints between them. It also stores the global statistics the cost
// model treats as uniform (join selectivity js, blocking factor bfr).
type MKB struct {
	relations map[string]*RelationInfo
	joins     []JoinConstraint
	pcs       []PCConstraint
	pcGen     uint64 // moves on every change to pcs (PCGeneration)

	// Defaults for the cost model (Table 1 values).
	DefaultJoinSelectivity float64 // js, default 0.005
	DefaultSelectivity     float64 // σ, default 0.5
	BlockingFactor         int     // bfr, default 10
}

// NewMKB returns an empty MKB with the paper's Table 1 defaults.
func NewMKB() *MKB {
	return &MKB{
		relations:              make(map[string]*RelationInfo),
		DefaultJoinSelectivity: 0.005,
		DefaultSelectivity:     0.5,
		BlockingFactor:         10,
	}
}

// RegisterRelation records a base relation; its schema is the relation's
// type constraints (TypeOf reads them there). Re-registering a relation
// replaces its record (schema changes are modelled as unregister/register by
// the space layer).
func (m *MKB) RegisterRelation(info RelationInfo) error {
	if info.Ref.Rel == "" {
		return fmt.Errorf("misd: relation registration without a name")
	}
	if info.Schema == nil {
		return fmt.Errorf("misd: relation %s registered without a schema", info.Ref)
	}
	cp := info
	m.relations[info.Ref.Key()] = &cp
	return nil
}

// UnregisterRelation removes a relation and all constraints mentioning it
// (the MKB Evolver's reaction to delete-relation).
func (m *MKB) UnregisterRelation(rel string) {
	delete(m.relations, rel)
	m.joins = filterJoins(m.joins, func(j JoinConstraint) bool { return j.R1.Key() != rel && j.R2.Key() != rel })
	m.prunePCs(func(p PCConstraint) bool { return p.Left.Rel.Key() != rel && p.Right.Rel.Key() != rel })
}

// DropAttribute removes one attribute from a registered relation and prunes
// constraints that mention it (the MKB Evolver's reaction to
// delete-attribute).
func (m *MKB) DropAttribute(rel, attr string) error {
	info, ok := m.relations[rel]
	if !ok {
		return fmt.Errorf("misd: unknown relation %q", rel)
	}
	if !info.Schema.Has(attr) {
		return fmt.Errorf("misd: relation %s has no attribute %q", rel, attr)
	}
	var keep []relation.Attribute
	for _, a := range info.Schema.Attrs() {
		if a.Name != attr {
			keep = append(keep, a)
		}
	}
	info.Schema = relation.NewSchema(keep...)
	m.joins = filterJoins(m.joins, func(j JoinConstraint) bool {
		for _, c := range j.Clauses {
			if (j.R1.Key() == rel && c.Attr1 == attr) || (j.R2.Key() == rel && c.Attr2 == attr) {
				return false
			}
		}
		return true
	})
	m.prunePCs(func(p PCConstraint) bool {
		return !fragmentUses(p.Left, rel, attr) && !fragmentUses(p.Right, rel, attr)
	})
	return nil
}

func fragmentUses(f Fragment, rel, attr string) bool {
	if f.Rel.Key() != rel {
		return false
	}
	for _, a := range f.Attrs {
		if a == attr {
			return true
		}
	}
	if f.Cond != nil {
		for _, a := range f.Cond.Attrs() {
			if a == attr {
				return true
			}
		}
	}
	return false
}

// Relation returns the registration record for a relation name, or nil.
func (m *MKB) Relation(rel string) *RelationInfo { return m.relations[rel] }

// Relations returns all registered relations sorted by name.
func (m *MKB) Relations() []*RelationInfo {
	out := make([]*RelationInfo, 0, len(m.relations))
	for _, r := range m.relations {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref.Rel < out[j].Ref.Rel })
	return out
}

// SetCard updates the advertised cardinality of a relation.
func (m *MKB) SetCard(rel string, card int) {
	if info, ok := m.relations[rel]; ok {
		info.Card = card
	}
}

// AddJoinConstraint records JC_{R1,R2}.
func (m *MKB) AddJoinConstraint(jc JoinConstraint) error {
	if len(jc.Clauses) == 0 {
		return fmt.Errorf("misd: join constraint with no clauses: %s", jc)
	}
	m.joins = append(m.joins, jc)
	return nil
}

// AddPCConstraint records a partial/complete constraint.
func (m *MKB) AddPCConstraint(pc PCConstraint) error {
	if err := pc.Validate(); err != nil {
		return err
	}
	m.pcs = append(m.pcs, pc)
	m.pcGen++
	return nil
}

// JoinConstraints returns every join constraint involving rel (with rel
// normalized to the R1 side).
func (m *MKB) JoinConstraints(rel string) []JoinConstraint {
	var out []JoinConstraint
	for _, j := range m.joins {
		switch {
		case j.R1.Key() == rel:
			out = append(out, j)
		case j.R2.Key() == rel:
			out = append(out, j.Reversed())
		}
	}
	return out
}

// JoinConstraintBetween returns the join constraint relating r1 and r2 (with
// r1 on the left), or false.
func (m *MKB) JoinConstraintBetween(r1, r2 string) (JoinConstraint, bool) {
	for _, j := range m.joins {
		if j.R1.Key() == r1 && j.R2.Key() == r2 {
			return j, true
		}
		if j.R1.Key() == r2 && j.R2.Key() == r1 {
			return j.Reversed(), true
		}
	}
	return JoinConstraint{}, false
}

// PCConstraints returns every PC constraint whose left fragment is over rel,
// reversing stored constraints as needed. These are the candidates for
// replacing rel by another relation.
func (m *MKB) PCConstraints(rel string) []PCConstraint {
	var out []PCConstraint
	for _, p := range m.pcs {
		if p.Left.Rel.Key() == rel {
			out = append(out, p)
		}
		if p.Right.Rel.Key() == rel {
			out = append(out, p.Reversed())
		}
	}
	return out
}

// PCBetween returns the PC constraint with left fragment over r1 and right
// fragment over r2, or false.
func (m *MKB) PCBetween(r1, r2 string) (PCConstraint, bool) {
	for _, p := range m.PCConstraints(r1) {
		if p.Right.Rel.Key() == r2 {
			return p, true
		}
	}
	return PCConstraint{}, false
}

// AllPCConstraints returns the stored PC constraints.
func (m *MKB) AllPCConstraints() []PCConstraint { return m.pcs }

// PCGeneration counts the changes to the stored PC constraints: it moves
// whenever one is added, derived or pruned, so AllPCConstraints returns
// the same set under one generation.
func (m *MKB) PCGeneration() uint64 { return m.pcGen }

// AllJoinConstraints returns the stored join constraints.
func (m *MKB) AllJoinConstraints() []JoinConstraint { return m.joins }

// TypeOf returns the recorded type of Rel.Attr, or TypeInvalid.
func (m *MKB) TypeOf(rel, attr string) relation.Type {
	if info, ok := m.relations[rel]; ok {
		if i := info.Schema.IndexOf(attr); i >= 0 {
			return info.Schema.Attr(i).Type
		}
	}
	return relation.TypeInvalid
}

// CheckConsistency verifies that every constraint references registered
// relations and existing attributes with compatible types — the paper's MKB
// Consistency Checker component.
func (m *MKB) CheckConsistency() []error {
	var errs []error
	attrOK := func(rel, attr string) bool {
		info, ok := m.relations[rel]
		return ok && info.Schema.Has(attr)
	}
	for _, j := range m.joins {
		for _, c := range j.Clauses {
			if !attrOK(j.R1.Key(), c.Attr1) {
				errs = append(errs, fmt.Errorf("misd: join constraint %s references missing %s.%s", j, j.R1, c.Attr1))
			}
			if !attrOK(j.R2.Key(), c.Attr2) {
				errs = append(errs, fmt.Errorf("misd: join constraint %s references missing %s.%s", j, j.R2, c.Attr2))
			}
		}
	}
	for _, p := range m.pcs {
		for i := range p.Left.Attrs {
			la, ra := p.Left.Attrs[i], p.Right.Attrs[i]
			if !attrOK(p.Left.Rel.Key(), la) {
				errs = append(errs, fmt.Errorf("misd: PC constraint %s references missing %s.%s", p, p.Left.Rel, la))
				continue
			}
			if !attrOK(p.Right.Rel.Key(), ra) {
				errs = append(errs, fmt.Errorf("misd: PC constraint %s references missing %s.%s", p, p.Right.Rel, ra))
				continue
			}
			lt, rt := m.TypeOf(p.Left.Rel.Key(), la), m.TypeOf(p.Right.Rel.Key(), ra)
			if lt != rt {
				errs = append(errs, fmt.Errorf("misd: PC constraint %s pairs %s.%s (%s) with %s.%s (%s)",
					p, p.Left.Rel, la, lt, p.Right.Rel, ra, rt))
			}
		}
	}
	return errs
}

func filterJoins(in []JoinConstraint, keep func(JoinConstraint) bool) []JoinConstraint {
	out := in[:0]
	for _, j := range in {
		if keep(j) {
			out = append(out, j)
		}
	}
	return out
}

// prunePCs drops the PC constraints keep rejects, moving the generation
// when it drops any.
func (m *MKB) prunePCs(keep func(PCConstraint) bool) {
	out := m.pcs[:0]
	for _, p := range m.pcs {
		if keep(p) {
			out = append(out, p)
		}
	}
	if len(out) != len(m.pcs) {
		m.pcGen++
	}
	m.pcs = out
}
