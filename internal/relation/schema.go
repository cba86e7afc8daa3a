package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Attribute is one column of a relation schema. Name is the local column
// name; Source optionally records the fully qualified origin ("IS1.R.A")
// which the synchronizer uses to track provenance across rewritings.
type Attribute struct {
	Name   string
	Type   Type
	Size   int    // simulated width in bytes for the cost model; 0 ⇒ default by type
	Source string // optional provenance, e.g. "Customer.Name"
}

// DefaultSize returns the byte width used for cost accounting: the explicit
// Size if set, otherwise a default by type (8 for numerics, 20 for strings,
// 1 for bool) matching the experiments' uniform tuple-size assumption.
func (a Attribute) DefaultSize() int {
	if a.Size > 0 {
		return a.Size
	}
	switch a.Type {
	case TypeString:
		return 20
	case TypeBool:
		return 1
	default:
		return 8
	}
}

// Schema is an ordered list of attributes with unique names.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from the given attributes. It panics if two
// attributes share a name: schema construction is programmer-controlled and
// a duplicate name is always a bug, mirroring how the stdlib treats invalid
// regexp in MustCompile.
func NewSchema(attrs ...Attribute) *Schema {
	s := &Schema{attrs: append([]Attribute(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range s.attrs {
		if _, dup := s.index[a.Name]; dup {
			panic(fmt.Sprintf("relation: duplicate attribute %q in schema", a.Name))
		}
		s.index[a.Name] = i
	}
	return s
}

// MustSchema builds a schema of uniformly typed attributes from names, a
// convenience for tests and scenario generators.
func MustSchema(t Type, names ...string) *Schema {
	attrs := make([]Attribute, len(names))
	for i, n := range names {
		attrs[i] = Attribute{Name: n, Type: t}
	}
	return NewSchema(attrs...)
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// IndexOf returns the position of the named attribute, or -1.
func (s *Schema) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool { _, ok := s.index[name]; return ok }

// TupleSize is the summed byte width of all attributes — the s_R parameter
// of the cost model (Section 6.3).
func (s *Schema) TupleSize() int {
	n := 0
	for _, a := range s.attrs {
		n += a.DefaultSize()
	}
	return n
}

// Project returns a new schema containing the named attributes in the given
// order. Unknown names produce an error.
func (s *Schema) Project(names ...string) (*Schema, error) {
	attrs := make([]Attribute, 0, len(names))
	for _, n := range names {
		i := s.IndexOf(n)
		if i < 0 {
			return nil, fmt.Errorf("relation: no attribute %q in schema (%s)", n, strings.Join(s.Names(), ", "))
		}
		attrs = append(attrs, s.attrs[i])
	}
	return NewSchema(attrs...), nil
}

// Common returns the sorted list of attribute names present in both schemas —
// the "common subset of attributes" Attr(V) ∩ Attr(Vi) of Definition 1.
func (s *Schema) Common(o *Schema) []string {
	var out []string
	for _, a := range s.attrs {
		if o.Has(a.Name) {
			out = append(out, a.Name)
		}
	}
	sort.Strings(out)
	return out
}

// EqualNames reports whether both schemas have exactly the same attribute
// names (order-insensitive). The quality model cares about name sets, not
// positions.
func (s *Schema) EqualNames(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for _, a := range s.attrs {
		if !o.Has(a.Name) {
			return false
		}
	}
	return true
}

// Qualify returns a copy of the schema with every attribute renamed to
// "binding.<name>" and its Source set to "<base>.<name>" provenance — the
// column re-binding a FROM-clause entry applies to its base relation. The
// planner's scan operator pairs this with Relation.Rebind so qualification
// never copies tuples.
func (s *Schema) Qualify(base, binding string) *Schema {
	attrs := s.Attrs()
	for i := range attrs {
		attrs[i].Source = base + "." + attrs[i].Name
		attrs[i].Name = binding + "." + attrs[i].Name
	}
	return NewSchema(attrs...)
}

// Rename returns a copy of the schema with one attribute renamed.
func (s *Schema) Rename(from, to string) (*Schema, error) {
	i := s.IndexOf(from)
	if i < 0 {
		return nil, fmt.Errorf("relation: no attribute %q to rename", from)
	}
	attrs := s.Attrs()
	attrs[i].Name = to
	return NewSchema(attrs...), nil
}

// String renders the schema as "(<name> <type>, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(' ')
		b.WriteString(a.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row; values are positionally aligned with the schema.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// ByteSize sums the byte widths of the tuple's values.
func (t Tuple) ByteSize() int {
	n := 0
	for _, v := range t {
		n += v.ByteSize()
	}
	return n
}
