package evolve

import (
	"repro/internal/space"
	"repro/internal/synchronize"
	"repro/internal/warehouse"
)

// writeSet lists the relations whose schema, cardinality, placement, or
// attached constraints mutate when c lands on the space: the changed
// relation itself, plus the new name for a relation rename (which acquires
// the schema, extent, and constraint registrations of the old one).
func writeSet(c space.Change) []string {
	if c.Kind == space.RenameRelation && c.NewName != "" {
		return []string{c.Rel, c.NewName}
	}
	return []string{c.Rel}
}

// readSetFor collects the relations a change's synchronization pass for the
// given affected views may consult:
//
//   - the changed relation (and, for a relation rename, the new name —
//     RenameAttribute's NewName is an attribute, not a relation), whose
//     constraints and cardinality seed every rewriting family;
//   - every FROM relation of every affected view — their cardinalities,
//     homes, and join constraints feed the extent estimator and the cost
//     scenario, and the adopted definition re-materializes from them;
//   - every PC-neighbor of the changed relation — the candidate donors for
//     substitutions, attribute patches, and CVS-style join substitutions.
//
// Every MKB constraint the search reads has both endpoints in this set
// (join constraints are only looked up between donors and FROM relations),
// every cardinality or placement lookup targets a member, and an adopted
// rewriting's FROM relations are always drawn from it (original FROM ∪
// donors). A change whose write set avoids this set therefore cannot alter
// the pass's outcome — the soundness condition behind both coalescing and
// memo invalidation.
func (s *Session) readSetFor(c space.Change, affected []*warehouse.VersionView) map[string]bool {
	reads := make(map[string]bool, 8)
	reads[c.Rel] = true
	if c.Kind == space.RenameRelation && c.NewName != "" {
		reads[c.NewName] = true
	}
	for _, v := range affected {
		for _, f := range v.Def.From {
			reads[f.Rel] = true
		}
	}
	for _, pc := range s.w.Space.MKB().PCConstraints(c.Rel) {
		reads[pc.Right.Rel.Key()] = true
	}
	return reads
}

// overlaps reports whether any written relation is in the read set.
func overlaps(writes []string, reads map[string]bool) bool {
	for _, rel := range writes {
		if reads[rel] {
			return true
		}
	}
	return false
}

// member is one change of a coalesced group together with its footprint:
// the live views it affects (attribute-precise, in registration order), the
// relations its synchronization pass reads (nil when nothing is affected —
// a pure space mutation reads nothing at the view layer), and the relations
// its application writes.
type member struct {
	c        space.Change
	affected []*warehouse.VersionView
	reads    map[string]bool
	writes   []string
}

// newMember footprints one change against the view index, rebuilt first if the
// warehouse's registry moved since (a pass adopted or deceased, a view was
// registered). The inverted index narrows the candidate set to views whose
// FROM mentions the changed relation; synchronize.Affected then applies the
// attribute-precise predicate warehouse.ApplyChange uses, so the affected set
// is exactly the per-change loop's.
func (s *Session) newMember(c space.Change) *member {
	ver := s.w.Acquire()
	if ver.Epoch() != s.epoch {
		s.reindex(ver)
	}
	m := &member{c: c, writes: writeSet(c)}
	if cands := s.index[c.Rel]; len(cands) > 0 {
		for _, v := range ver.Views() {
			if cands[v.Name] && synchronize.Affected(v.Def, c) {
				m.affected = append(m.affected, v)
			}
		}
	}
	if len(m.affected) > 0 {
		m.reads = s.readSetFor(c, m.affected)
	}
	return m
}

// compatible reports whether change m can join the group without changing
// any member's outcome relative to sequential processing. The pass runs
// every member's rewriting searches against the pre-group state and adopts
// after all base changes land, so for every earlier member g the
// requirements are symmetric:
//
//   - m's writes must miss g's read footprint — otherwise g's search (run
//     before m when processed one by one) would legitimately not see m's
//     write, but g's adoption re-materialization (run before m lands one
//     by one, after in the group) would diverge;
//   - g's writes must miss m's read footprint — otherwise m's search must
//     observe g's landed change, which a shared pre-group phase cannot
//     provide.
//
// A member with no affected views has a nil read footprint: its only effect
// is the base-space mutation, which both orderings apply identically, so it
// coalesces freely as long as it does not write into an earlier member's
// reads. This is how long runs of changes that miss every view — and the
// ISSUE's "several attribute drops on one relation" no view references —
// collapse into a single pass.
func compatible(group []*member, m *member) bool {
	for _, g := range group {
		if len(g.affected) > 0 && overlaps(m.writes, g.reads) {
			return false
		}
		if len(m.affected) > 0 && overlaps(g.writes, m.reads) {
			return false
		}
	}
	return true
}
