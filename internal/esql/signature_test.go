package esql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/relation"
)

// signatureOracle is Signature as it was written with fmt, and clauseOracle
// Clause.String; together they define the signature, and the append-built
// Signature must return the same bytes for every definition. (The route and
// scenario corpora are checked against a copy of this pair in
// internal/exec's signature_test.go, which cannot import test code.)
func signatureOracle(v *ViewDef) string {
	var b strings.Builder
	b.WriteString("VE=" + v.Extent.String() + ";S:")
	for _, s := range v.Select {
		fmt.Fprintf(&b, "%s/%s/%v/%v,", s.Attr, s.OutputName(), s.Dispensable, s.Replaceable)
	}
	b.WriteString("F:")
	for _, f := range v.From {
		fmt.Fprintf(&b, "%s.%s/%s/%v/%v,", f.Source, f.Rel, f.Binding(), f.Dispensable, f.Replaceable)
	}
	b.WriteString("W:")
	for _, c := range v.Where {
		fmt.Fprintf(&b, "%s/%v/%v,", clauseOracle(c.Clause), c.Dispensable, c.Replaceable)
	}
	return b.String()
}

func clauseOracle(c Clause) string {
	if c.Right.Attr != "" {
		return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
	}
	if c.Const.Type() == relation.TypeString {
		escaped := strings.ReplaceAll(c.Const.Text(), "'", "''")
		return fmt.Sprintf("%s %s '%s'", c.Left, c.Op, escaped)
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Const.Text())
}

// signatureCorners are definitions no parser produces: every VE value,
// sources, aliases, every flag, and constants of every kind — NULL, bools,
// NaN, ±0, infinities, extreme ints and floats, quotes and non-ASCII
// strings — against unqualified and qualified references.
func signatureCorners() []*ViewDef {
	consts := []relation.Value{
		relation.Null, relation.Bool(true), relation.Bool(false),
		relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1)), relation.Float(0),
		relation.Float(math.Inf(1)), relation.Float(-1.2345678901234567e-300), relation.Float(math.MaxFloat64),
		relation.Int(math.MinInt64), relation.Int(math.MaxInt64), relation.Int(0),
		relation.String(""), relation.String("'"), relation.String("O''Hare's"), relation.String("Zürich ≡"),
	}
	var out []*ViewDef
	for i, c := range consts {
		v := &ViewDef{
			Name:   "V",
			Extent: ExtentParam(i % 4),
			Select: []SelectItem{
				{Attr: AttrRef{Rel: "R", Attr: "A"}, Alias: "X", Dispensable: i%2 == 0, Replaceable: i%3 == 0},
				{Attr: AttrRef{Attr: "B"}},
			},
			From: []FromItem{
				{Source: "IS1", Rel: "R", Dispensable: i%2 == 1, Replaceable: true},
				{Rel: "S", Alias: "T"},
			},
			Where: []CondItem{
				{Clause: Clause{Left: AttrRef{Rel: "R", Attr: "A"}, Op: relation.Op(i % 7), Const: c}, Dispensable: true},
				{Clause: Clause{Left: AttrRef{Attr: "B"}, Op: relation.OpEQ, Right: AttrRef{Rel: "T", Attr: "B"}}, Replaceable: true},
				{Clause: Clause{Left: AttrRef{Rel: "T", Attr: "C"}, Op: relation.OpNE, Right: AttrRef{Attr: "D"}}},
			},
		}
		out = append(out, v, &ViewDef{Name: "Empty", Extent: v.Extent})
	}
	return out
}

// TestSignatureMatchesOracle checks Signature and Clause.String against the
// fmt oracle over the fuzz seeds and the corner definitions, and pins the
// allocation count.
func TestSignatureMatchesOracle(t *testing.T) {
	defs := signatureCorners()
	for _, src := range fuzzSeeds {
		v, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, v)
	}
	for _, v := range defs {
		if got, want := v.Signature(), signatureOracle(v); got != want {
			t.Fatalf("Signature = %q\noracle      %q", got, want)
		}
		for _, c := range v.Where {
			if got, want := c.Clause.String(), clauseOracle(c.Clause); got != want {
				t.Fatalf("Clause.String = %q, oracle %q", got, want)
			}
		}
		if n := testing.AllocsPerRun(20, func() { _ = v.Signature() }); n > 2 {
			t.Errorf("Signature of %q allocates %v times, want ≤ 2", v.Name, n)
		}
	}
}
