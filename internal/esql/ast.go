package esql

import (
	"fmt"
	"strconv"

	"repro/internal/relation"
)

// ExtentParam is the view-extent evolution parameter VE of Figure 3: how the
// extent of an evolved view may relate to the original extent.
type ExtentParam uint8

// VE values. The paper writes ≈ (any), ≡ (equal), ⊇ (superset), ⊆ (subset).
const (
	ExtentAny      ExtentParam = iota // "≈" — no restriction on the new extent
	ExtentEqual                       // "≡" — new extent must equal old extent
	ExtentSuperset                    // "⊇" — new extent must contain old extent
	ExtentSubset                      // "⊆" — new extent must be contained in old extent
)

// String renders the VE parameter in E-SQL's ASCII surface syntax.
func (e ExtentParam) String() string {
	switch e {
	case ExtentEqual:
		return "=="
	case ExtentSuperset:
		return ">="
	case ExtentSubset:
		return "<="
	default:
		return "~"
	}
}

// ParseExtentParam parses both the ASCII forms and the Unicode forms.
func ParseExtentParam(s string) (ExtentParam, error) {
	switch s {
	case "~", "≈", "any":
		return ExtentAny, nil
	case "==", "≡", "equal":
		return ExtentEqual, nil
	case ">=", "⊇", "superset":
		return ExtentSuperset, nil
	case "<=", "⊆", "subset":
		return ExtentSubset, nil
	}
	return ExtentAny, fmt.Errorf("esql: unknown VE parameter %q", s)
}

// AttrRef is a qualified attribute reference "Rel.Attr". Rel refers to a
// FROM-clause relation (or its alias); Attr is the attribute within it.
type AttrRef struct {
	Rel  string
	Attr string
}

// String renders "Rel.Attr", or just Attr when unqualified.
func (a AttrRef) String() string {
	if a.Rel == "" {
		return a.Attr
	}
	return a.Rel + "." + a.Attr
}

// Qualified returns the canonical qualified name used as the algebra-level
// column name.
func (a AttrRef) Qualified() string { return a.String() }

// appendTo appends String's rendering to b.
func (a AttrRef) appendTo(b []byte) []byte {
	if a.Rel != "" {
		b = append(b, a.Rel...)
		b = append(b, '.')
	}
	return append(b, a.Attr...)
}

// SelectItem is one SELECT-clause entry with its evolution parameters:
// AD (attribute-dispensable) and AR (attribute-replaceable), both defaulting
// to false per Figure 3. Alias is the local name B_i exposed by the view;
// when empty the attribute keeps its unqualified name.
type SelectItem struct {
	Attr        AttrRef
	Alias       string
	Dispensable bool // AD
	Replaceable bool // AR
}

// OutputName is the column name the view interface exposes for this item.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Attr.Attr
}

// Category returns the preserved-attribute category of Figure 6:
// 1 = (AD,AR)=(true,true), 2 = (true,false), 3 = (false,true),
// 4 = (false,false). Categories 3 and 4 are indispensable.
func (s SelectItem) Category() int {
	switch {
	case s.Dispensable && s.Replaceable:
		return 1
	case s.Dispensable:
		return 2
	case s.Replaceable:
		return 3
	default:
		return 4
	}
}

// FromItem is one FROM-clause entry with its evolution parameters RD
// (relation-dispensable) and RR (relation-replaceable). Source names the
// information source holding the relation ("IS1"); it may be empty when the
// MKB resolves relations by name alone.
type FromItem struct {
	Source      string
	Rel         string
	Alias       string
	Dispensable bool // RD
	Replaceable bool // RR
}

// Binding is the name by which the SELECT and WHERE clauses refer to this
// relation: the alias if present, else the relation name.
func (f FromItem) Binding() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Rel
}

// CondItem is one WHERE-clause primitive clause with its evolution
// parameters CD (condition-dispensable) and CR (condition-replaceable).
type CondItem struct {
	Clause      Clause
	Dispensable bool // CD
	Replaceable bool // CR
}

// Clause is an E-SQL primitive clause over qualified attribute references:
// Left θ Right (attribute-attribute) or Left θ Const (attribute-constant).
type Clause struct {
	Left  AttrRef
	Op    relation.Op
	Right AttrRef        // zero value means constant comparison
	Const relation.Value // used when Right is zero
}

// IsJoin reports whether the clause relates attributes of two different
// FROM-clause relations (an equi- or theta-join predicate).
func (c Clause) IsJoin() bool {
	return c.Right.Attr != "" && c.Left.Rel != c.Right.Rel
}

// String renders the clause in surface syntax.
func (c Clause) String() string { return string(c.appendTo(nil)) }

// appendTo appends the clause's surface syntax to b.
func (c Clause) appendTo(b []byte) []byte {
	b = c.Left.appendTo(b)
	b = append(b, ' ')
	b = append(b, c.Op.String()...)
	b = append(b, ' ')
	switch {
	case c.Right.Attr != "":
		return c.Right.appendTo(b)
	case c.Const.Type() == relation.TypeString:
		// Embedded quotes are doubled, mirroring the lexer's '' escape, so
		// printed clauses always re-parse (a property FuzzParse enforces).
		b = append(b, '\'')
		for _, ch := range []byte(c.Const.AsString()) {
			if ch == '\'' {
				b = append(b, '\'')
			}
			b = append(b, ch)
		}
		return append(b, '\'')
	default:
		return c.Const.AppendText(b)
	}
}

// ViewDef is a complete E-SQL view definition (Figure 2): the view name,
// the VE parameter, and the SELECT/FROM/WHERE clauses with per-component
// evolution parameters.
type ViewDef struct {
	Name   string
	Extent ExtentParam
	Select []SelectItem
	From   []FromItem
	Where  []CondItem
}

// Clone returns a deep copy of the view definition.
func (v *ViewDef) Clone() *ViewDef {
	cp := &ViewDef{Name: v.Name, Extent: v.Extent}
	cp.Select = append([]SelectItem(nil), v.Select...)
	cp.From = append([]FromItem(nil), v.From...)
	cp.Where = append([]CondItem(nil), v.Where...)
	return cp
}

// FromBinding returns the FROM item bound to the given name, or nil.
func (v *ViewDef) FromBinding(binding string) *FromItem {
	for i := range v.From {
		if v.From[i].Binding() == binding {
			return &v.From[i]
		}
	}
	return nil
}

// OutputNames returns the view interface's column names in order.
func (v *ViewDef) OutputNames() []string {
	out := make([]string, len(v.Select))
	for i, s := range v.Select {
		out[i] = s.OutputName()
	}
	return out
}

// SelectFor returns the SELECT items drawn from the given FROM binding.
func (v *ViewDef) SelectFor(binding string) []SelectItem {
	var out []SelectItem
	for _, s := range v.Select {
		if s.Attr.Rel == binding {
			out = append(out, s)
		}
	}
	return out
}

// WhereFor returns the WHERE items that reference the given FROM binding.
func (v *ViewDef) WhereFor(binding string) []CondItem {
	var out []CondItem
	for _, c := range v.Where {
		if c.Clause.Left.Rel == binding || c.Clause.Right.Rel == binding {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks internal consistency: every attribute reference resolves
// to a FROM binding, bindings are unique, and the view exposes at least one
// column.
func (v *ViewDef) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("esql: view has no name")
	}
	if len(v.Select) == 0 {
		return fmt.Errorf("esql: view %s has an empty SELECT clause", v.Name)
	}
	if len(v.From) == 0 {
		return fmt.Errorf("esql: view %s has an empty FROM clause", v.Name)
	}
	bindings := map[string]bool{}
	for _, f := range v.From {
		b := f.Binding()
		if bindings[b] {
			return fmt.Errorf("esql: view %s binds %q twice in FROM", v.Name, b)
		}
		bindings[b] = true
	}
	seenOut := map[string]bool{}
	for _, s := range v.Select {
		if s.Attr.Rel != "" && !bindings[s.Attr.Rel] {
			return fmt.Errorf("esql: view %s selects %s but %q is not in FROM", v.Name, s.Attr, s.Attr.Rel)
		}
		o := s.OutputName()
		if seenOut[o] {
			return fmt.Errorf("esql: view %s exposes column %q twice", v.Name, o)
		}
		seenOut[o] = true
	}
	for _, c := range v.Where {
		if c.Clause.Left.Rel != "" && !bindings[c.Clause.Left.Rel] {
			return fmt.Errorf("esql: view %s condition references unbound %q", v.Name, c.Clause.Left.Rel)
		}
		if c.Clause.Right.Attr != "" && c.Clause.Right.Rel != "" && !bindings[c.Clause.Right.Rel] {
			return fmt.Errorf("esql: view %s condition references unbound %q", v.Name, c.Clause.Right.Rel)
		}
	}
	return nil
}

// String renders the full CREATE VIEW statement; see Printer for options.
func (v *ViewDef) String() string { return Print(v) }

// Signature returns a canonical one-line fingerprint of the definition used
// to deduplicate rewritings that differ only in generation order. It orders
// rankings and keys the pass memo and the route cache, so it is appended
// into a stack buffer: one allocation, the string, up to 512 bytes.
func (v *ViewDef) Signature() string {
	var stack [512]byte
	return string(v.appendSignature(stack[:0], false))
}

// AppendShape appends Signature with each WHERE constant replaced by its
// type name: the key of the plan template memo (plan.Memo) and, with the
// epoch and the PC-set generation, of the warehouse's match proofs.
func (v *ViewDef) AppendShape(b []byte) []byte { return v.appendSignature(b, true) }

func (v *ViewDef) appendSignature(b []byte, shape bool) []byte {
	b = append(b, "VE="...)
	b = append(b, v.Extent.String()...)
	b = append(b, ";S:"...)
	for _, s := range v.Select {
		b = s.Attr.appendTo(b)
		b = append(b, '/')
		b = append(b, s.OutputName()...)
		b = appendFlags(b, s.Dispensable, s.Replaceable)
	}
	b = append(b, "F:"...)
	for _, f := range v.From {
		b = append(b, f.Source...)
		b = append(b, '.')
		b = append(b, f.Rel...)
		b = append(b, '/')
		b = append(b, f.Binding()...)
		b = appendFlags(b, f.Dispensable, f.Replaceable)
	}
	b = append(b, "W:"...)
	for _, c := range v.Where {
		cl := c.Clause
		if shape && cl.Right.Attr == "" {
			cl.Const = relation.String(cl.Const.Type().String())
		}
		b = cl.appendTo(b)
		b = appendFlags(b, c.Dispensable, c.Replaceable)
	}
	return b
}

// appendFlags appends a component's two evolution parameters, "/D/R,".
func appendFlags(b []byte, d, r bool) []byte {
	b = append(b, '/')
	b = strconv.AppendBool(b, d)
	b = append(b, '/')
	b = strconv.AppendBool(b, r)
	return append(b, ',')
}
