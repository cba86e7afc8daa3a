package space

import (
	"fmt"
	"sort"

	"repro/internal/misd"
	"repro/internal/relation"
)

// Source is one autonomous information source with its local relations.
// The paper assumes ISs are cooperative enough to join incoming delta
// relations with their local relations; Source.Process in the maintain
// package implements that contract.
type Source struct {
	Name      string
	relations map[string]*relation.Relation
	order     []string
}

// newSource creates an empty source.
func newSource(name string) *Source {
	return &Source{Name: name, relations: make(map[string]*relation.Relation)}
}

// Relation returns the named local relation, or nil.
func (s *Source) Relation(name string) *relation.Relation { return s.relations[name] }

// RelationNames lists the source's relations in registration order.
func (s *Source) RelationNames() []string { return append([]string(nil), s.order...) }

// Space is the whole information space plus its Meta Knowledge Base.
type Space struct {
	mkb     *misd.MKB
	sources map[string]*Source
	order   []string
	homes   map[string]string // relation name -> source name

	// listeners receive capability-change notifications (the View
	// Synchronizer subscribes through the warehouse layer).
	listeners []func(Change)
}

// New creates an empty information space with a fresh MKB.
func New() *Space {
	return &Space{
		mkb:     misd.NewMKB(),
		sources: make(map[string]*Source),
		homes:   make(map[string]string),
	}
}

// MKB exposes the space's meta knowledge base.
func (sp *Space) MKB() *misd.MKB { return sp.mkb }

// AddSource registers a new (empty) information source.
func (sp *Space) AddSource(name string) (*Source, error) {
	if _, dup := sp.sources[name]; dup {
		return nil, fmt.Errorf("space: source %q already exists", name)
	}
	s := newSource(name)
	sp.sources[name] = s
	sp.order = append(sp.order, name)
	return s, nil
}

// Source returns the named source, or nil.
func (sp *Space) Source(name string) *Source { return sp.sources[name] }

// SourceNames lists sources in registration order.
func (sp *Space) SourceNames() []string { return append([]string(nil), sp.order...) }

// AddRelation places a relation at a source, seals it, and registers it
// (schema, cardinality) with the MKB. Relation names are globally unique,
// matching the paper's convention.
func (sp *Space) AddRelation(sourceName string, rel *relation.Relation) error {
	src, ok := sp.sources[sourceName]
	if !ok {
		return fmt.Errorf("space: unknown source %q", sourceName)
	}
	if home, dup := sp.homes[rel.Name]; dup {
		return fmt.Errorf("space: relation %q already registered at source %q", rel.Name, home)
	}
	rel.Seal()
	src.relations[rel.Name] = rel
	src.order = append(src.order, rel.Name)
	sp.homes[rel.Name] = sourceName
	return sp.mkb.RegisterRelation(misd.RelationInfo{
		Ref:    misd.RelRef{Source: sourceName, Rel: rel.Name},
		Schema: rel.Schema(),
		Card:   rel.Card(),
	})
}

// Relation resolves a relation name anywhere in the space.
func (sp *Space) Relation(name string) *relation.Relation {
	home, ok := sp.homes[name]
	if !ok {
		return nil
	}
	return sp.sources[home].relations[name]
}

// Home returns the source name holding the relation, or "".
func (sp *Space) Home(relName string) string { return sp.homes[relName] }

// RelationNames lists every relation in the space, sorted.
func (sp *Space) RelationNames() []string {
	out := make([]string, 0, len(sp.homes))
	for n := range sp.homes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a faithful copy of the space: every source, every relation
// (shared — a registered relation is sealed, and changes to either space
// replace relation objects instead of editing them), and a copy of the
// full MKB state — join constraints, PC constraints with their selection
// conditions intact (conditions are immutable values, so sharing them is
// safe), per-relation cardinality overrides and local selectivities, and
// the global statistics defaults.
// Listeners are NOT cloned: the clone is a fresh, independent space and
// whoever drives it subscribes its own.
//
// Clone exists for shared-nothing copies (a benchmark's shadow warehouse, a
// differential test's second system): unlike a persist.Export/Import round
// trip, which degrades PC selection conditions to selection-free fragments
// with σ preserved — changing misd.EqualMapping's routing decisions — a
// clone routes and evolves exactly like the original.
func (sp *Space) Clone() *Space {
	out := New()
	out.mkb.DefaultJoinSelectivity = sp.mkb.DefaultJoinSelectivity
	out.mkb.DefaultSelectivity = sp.mkb.DefaultSelectivity
	out.mkb.BlockingFactor = sp.mkb.BlockingFactor
	for _, sname := range sp.order {
		src := sp.sources[sname]
		out.AddSource(sname) //nolint:errcheck // fresh space, no duplicates
		for _, rname := range src.order {
			//nolint:errcheck // fresh space, same registration order
			out.AddRelation(sname, src.relations[rname])
		}
	}
	for _, jc := range sp.mkb.AllJoinConstraints() {
		out.mkb.AddJoinConstraint(jc) //nolint:errcheck // valid in source MKB
	}
	for _, pc := range sp.mkb.AllPCConstraints() {
		out.mkb.AddPCConstraint(pc) //nolint:errcheck // valid in source MKB
	}
	// AddRelation registered each relation with its actual cardinality;
	// restore the source MKB's advertised cards and local selectivities,
	// which analytic scenarios set independently of the extents.
	for _, info := range sp.mkb.Relations() {
		if oi := out.mkb.Relation(info.Ref.Rel); oi != nil {
			oi.Card = info.Card
			oi.LocalSelectivity = info.LocalSelectivity
		}
	}
	return out
}

// Subscribe registers a capability-change listener; the space invokes it
// after each applied change ("the EVE system is notified when a ... change
// occurs").
func (sp *Space) Subscribe(fn func(Change)) { sp.listeners = append(sp.listeners, fn) }

func (sp *Space) notify(c Change) {
	for _, fn := range sp.listeners {
		fn(c)
	}
}

// ReplaceRelation swaps the named relation for a new object with the same
// name and schema, seals it, and refreshes the MKB cardinality. This is the
// copy-on-write commit point of batched data updates: readers holding the
// old relation object (through an epoch-published warehouse Version) keep
// reading it unchanged, while the space serves the replacement from here
// on.
func (sp *Space) ReplaceRelation(name string, rel *relation.Relation) error {
	home, ok := sp.homes[name]
	if !ok {
		return fmt.Errorf("space: unknown relation %q", name)
	}
	rel.Seal()
	sp.sources[home].relations[name] = rel
	sp.mkb.SetCard(name, rel.Card())
	return nil
}
