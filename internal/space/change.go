package space

import (
	"fmt"

	"repro/internal/relation"
)

// ChangeKind enumerates the capability (schema) changes supported by the
// system — the set "commonly found in commercial systems" per Section 3.3.
type ChangeKind uint8

// Supported capability changes.
const (
	DeleteAttribute ChangeKind = iota
	AddAttribute
	RenameAttribute
	DeleteRelation
	AddRelation
	RenameRelation
)

// String names the change kind the way the paper does.
func (k ChangeKind) String() string {
	switch k {
	case DeleteAttribute:
		return "delete-attribute"
	case AddAttribute:
		return "add-attribute"
	case RenameAttribute:
		return "change-attribute-name"
	case DeleteRelation:
		return "delete-relation"
	case AddRelation:
		return "add-relation"
	case RenameRelation:
		return "change-relation-name"
	default:
		return "unknown-change"
	}
}

// Change is one capability change applied by an information source. Fields
// are used depending on Kind:
//
//	DeleteAttribute: Rel, Attr
//	AddAttribute:    Rel, Attr, AttrType
//	RenameAttribute: Rel, Attr (old), NewName
//	DeleteRelation:  Rel
//	AddRelation:     Rel (the already-placed relation's name)
//	RenameRelation:  Rel (old), NewName
type Change struct {
	Kind     ChangeKind
	Rel      string
	Attr     string
	NewName  string
	AttrType relation.Type
}

// String renders the change for logs and reports.
func (c Change) String() string {
	switch c.Kind {
	case DeleteAttribute:
		return fmt.Sprintf("%s %s.%s", c.Kind, c.Rel, c.Attr)
	case AddAttribute:
		return fmt.Sprintf("%s %s.%s %s", c.Kind, c.Rel, c.Attr, c.AttrType)
	case RenameAttribute:
		return fmt.Sprintf("%s %s.%s -> %s", c.Kind, c.Rel, c.Attr, c.NewName)
	case RenameRelation:
		return fmt.Sprintf("%s %s -> %s", c.Kind, c.Rel, c.NewName)
	default:
		return fmt.Sprintf("%s %s", c.Kind, c.Rel)
	}
}

// ApplyChange executes a capability change against the space: the holding
// source mutates its relation and the MKB evolves (dropping now-dangling
// constraints). A rejected change is reported as a *ChangeError wrapping
// the offending change and the reason; nothing lands on rejection. The
// space notifies no one: the warehouse's synchronization pass applies each
// change and announces it through its Observer's OnChange.
func (sp *Space) ApplyChange(c Change) error {
	if err := sp.applyChange(c); err != nil {
		return &ChangeError{Change: c, Err: err}
	}
	return nil
}

func (sp *Space) applyChange(c Change) error {
	switch c.Kind {
	case DeleteAttribute:
		return sp.deleteAttribute(c)
	case AddAttribute:
		return sp.addAttribute(c)
	case RenameAttribute:
		return sp.renameAttribute(c)
	case DeleteRelation:
		return sp.deleteRelation(c)
	case AddRelation:
		// The relation must already have been placed with AddRelation
		// (space method); the change object just announces it.
		if sp.Relation(c.Rel) == nil {
			return fmt.Errorf("space: add-relation for unknown relation %q", c.Rel)
		}
		return nil
	case RenameRelation:
		return sp.renameRelation(c)
	}
	return fmt.Errorf("space: unsupported change kind %d", c.Kind)
}

func (sp *Space) deleteAttribute(c Change) error {
	r := sp.Relation(c.Rel)
	if r == nil {
		return fmt.Errorf("space: delete-attribute on unknown relation %q", c.Rel)
	}
	sch := r.Schema()
	if !sch.Has(c.Attr) {
		return fmt.Errorf("space: relation %q has no attribute %q", c.Rel, c.Attr)
	}
	var keep []string
	for _, n := range sch.Names() {
		if n != c.Attr {
			keep = append(keep, n)
		}
	}
	if len(keep) == 0 {
		return fmt.Errorf("space: cannot delete last attribute %q of %q", c.Attr, c.Rel)
	}
	shrunk, err := r.Project(keep...)
	if err != nil {
		return err
	}
	sp.replaceExtent(c.Rel, shrunk)
	if err := sp.mkb.DropAttribute(c.Rel, c.Attr); err != nil {
		return err
	}
	sp.mkb.SetCard(c.Rel, shrunk.Card())
	return nil
}

func (sp *Space) addAttribute(c Change) error {
	r := sp.Relation(c.Rel)
	if r == nil {
		return fmt.Errorf("space: add-attribute on unknown relation %q", c.Rel)
	}
	if r.Schema().Has(c.Attr) {
		return fmt.Errorf("space: relation %q already has attribute %q", c.Rel, c.Attr)
	}
	// A NULL column keeps rows distinct: share the vectors, defer the index.
	attrs := append(r.Schema().Attrs(), relation.Attribute{Name: c.Attr, Type: c.AttrType})
	b := r.Columns()
	cols := make([]relation.Column, b.Width(), b.Width()+1)
	for j := range cols {
		cols[j] = *b.Col(j)
	}
	cols = append(cols, relation.Column{Vals: make([]relation.Value, b.Rows())})
	widened := relation.FromColumns(c.Rel, relation.NewSchema(attrs...), relation.BatchFromColumns(b.Rows(), cols))
	sp.replaceExtent(c.Rel, widened)
	// Re-register to refresh the MKB schema; constraints are unaffected by
	// a pure widening.
	home := sp.homes[c.Rel]
	if err := sp.mkb.RegisterRelation(relationInfoFor(home, widened)); err != nil {
		return err
	}
	return nil
}

func (sp *Space) renameAttribute(c Change) error {
	r := sp.Relation(c.Rel)
	if r == nil {
		return fmt.Errorf("space: rename-attribute on unknown relation %q", c.Rel)
	}
	sch, err := r.Schema().Rename(c.Attr, c.NewName)
	if err != nil {
		return err
	}
	renamed, err := r.Rebind(c.Rel, sch)
	if err != nil {
		return err
	}
	sp.replaceExtent(c.Rel, renamed)
	// The MKB treats a rename as drop+register at the schema level; join
	// and PC constraints mentioning the old attribute are pruned (the
	// synchronizer handles the syntactic rename inside view definitions).
	if err := sp.mkb.DropAttribute(c.Rel, c.Attr); err != nil {
		return err
	}
	home := sp.homes[c.Rel]
	if err := sp.mkb.RegisterRelation(relationInfoFor(home, renamed)); err != nil {
		return err
	}
	return nil
}

func (sp *Space) deleteRelation(c Change) error {
	home, ok := sp.homes[c.Rel]
	if !ok {
		return fmt.Errorf("space: delete-relation on unknown relation %q", c.Rel)
	}
	src := sp.sources[home]
	delete(src.relations, c.Rel)
	for i, n := range src.order {
		if n == c.Rel {
			src.order = append(src.order[:i], src.order[i+1:]...)
			break
		}
	}
	delete(sp.homes, c.Rel)
	sp.mkb.UnregisterRelation(c.Rel)
	return nil
}

func (sp *Space) renameRelation(c Change) error {
	home, ok := sp.homes[c.Rel]
	if !ok {
		return fmt.Errorf("space: rename-relation on unknown relation %q", c.Rel)
	}
	if _, dup := sp.homes[c.NewName]; dup {
		return fmt.Errorf("space: relation %q already exists", c.NewName)
	}
	src := sp.sources[home]
	r := src.relations[c.Rel]
	renamed, _ := r.Rebind(c.NewName, r.Schema()) // same schema: cannot fail
	delete(src.relations, c.Rel)
	src.relations[c.NewName] = renamed
	for i, n := range src.order {
		if n == c.Rel {
			src.order[i] = c.NewName
			break
		}
	}
	delete(sp.homes, c.Rel)
	sp.homes[c.NewName] = home
	sp.mkb.UnregisterRelation(c.Rel)
	if err := sp.mkb.RegisterRelation(relationInfoFor(home, renamed)); err != nil {
		return err
	}
	return nil
}

// replaceExtent swaps the stored relation object for rel in place.
func (sp *Space) replaceExtent(rel string, r *relation.Relation) {
	home := sp.homes[rel]
	sp.sources[home].relations[rel] = r
}
