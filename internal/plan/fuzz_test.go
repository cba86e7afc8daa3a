package plan

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
)

// fuzzCursor doles out bytes from the fuzz input, wrapping around so any
// input length yields a complete scenario deterministically.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) next() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[c.pos%len(c.data)]
	c.pos++
	return b
}

// fuzzStrings is the string domain: four letters, and strings that a
// "s"-tagged, "|"-joined row key would confuse across two columns
// (("a|s", "") and ("a", "|s")) or that hold the checksum's framing byte.
var fuzzStrings = []string{"a", "b", "c", "d", "a|s", "|s", "", "\x1e"}

// fuzzValue decodes one typed value from the cursor over a deliberately
// tiny domain, so generated relations collide on join keys, duplicate rows,
// and hit every comparison outcome.
func fuzzValue(c *fuzzCursor, typ relation.Type) relation.Value {
	b := c.next()
	switch typ {
	case relation.TypeInt:
		return relation.Int(int64(b%7) - 3)
	case relation.TypeFloat:
		return relation.Float(float64(int64(b%9)-4) / 2)
	case relation.TypeString:
		return relation.String(fuzzStrings[int(b)%len(fuzzStrings)])
	default:
		return relation.Bool(b%2 == 0)
	}
}

// FuzzColumnarParity generates a two-relation view with fuzzed rows and
// fuzzed WHERE clauses (random operators, attribute-constant and
// attribute-attribute, equi- and theta-joins), then executes the compiled
// plan and checks it against the relation algebra, which shares no code
// with the executor: R and S rebound to qualified names, relation.Join
// under the WHERE conjunction, projected to the select list. Both sides
// deduplicate, so equality of tuple sets plus a duplicate check on the
// plan's extent pins the full multiset contract.
func FuzzColumnarParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("columnar-vs-reference"))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x55, 0xaa, 0x13, 0x37, 0x42})

	rSchema := relation.NewSchema(
		relation.Attribute{Name: "A", Type: relation.TypeInt, Size: 8},
		relation.Attribute{Name: "B", Type: relation.TypeFloat, Size: 8},
		relation.Attribute{Name: "C", Type: relation.TypeString, Size: 8},
	)
	sSchema := relation.NewSchema(
		relation.Attribute{Name: "D", Type: relation.TypeInt, Size: 8},
		relation.Attribute{Name: "E", Type: relation.TypeInt, Size: 8},
	)
	type attr struct {
		rel, name string
		typ       relation.Type
	}
	attrs := []attr{
		{"R", "A", relation.TypeInt},
		{"R", "B", relation.TypeFloat},
		{"R", "C", relation.TypeString},
		{"S", "D", relation.TypeInt},
		{"S", "E", relation.TypeInt},
	}
	ops := []relation.Op{relation.OpLT, relation.OpLE, relation.OpEQ, relation.OpGE, relation.OpGT, relation.OpNE}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzCursor{data: data}

		fill := func(name string, schema *relation.Schema) *relation.Relation {
			rel := relation.New(name, schema)
			rows := int(c.next() % 24)
			for i := 0; i < rows; i++ {
				row := make(relation.Tuple, schema.Len())
				for j := 0; j < schema.Len(); j++ {
					row[j] = fuzzValue(c, schema.Attr(j).Type)
				}
				rel.Insert(row) //nolint:errcheck // arity matches by construction
			}
			return rel
		}
		r := fill("R", rSchema)
		s := fill("S", sSchema)

		q := &esql.ViewDef{Name: "VFuzz", Extent: esql.ExtentAny}
		q.From = append(q.From,
			esql.FromItem{Rel: "R"},
			esql.FromItem{Rel: "S"},
		)
		q.Select = append(q.Select,
			esql.SelectItem{Attr: esql.AttrRef{Rel: "R", Attr: "A"}},
			esql.SelectItem{Attr: esql.AttrRef{Rel: "R", Attr: "C"}},
			esql.SelectItem{Attr: esql.AttrRef{Rel: "S", Attr: "E"}},
		)
		nWhere := int(c.next() % 5)
		for i := 0; i < nWhere; i++ {
			left := attrs[int(c.next())%len(attrs)]
			op := ops[int(c.next())%len(ops)]
			cl := esql.Clause{Left: esql.AttrRef{Rel: left.rel, Attr: left.name}, Op: op}
			if c.next()%2 == 0 {
				cl.Const = fuzzValue(c, left.typ)
				if c.next()%5 == 0 { // cross-type numeric constant
					cl.Const = fuzzValue(c, relation.TypeFloat)
					if left.typ != relation.TypeInt && left.typ != relation.TypeFloat {
						cl.Const = fuzzValue(c, left.typ)
					}
				}
			} else {
				right := attrs[int(c.next())%len(attrs)]
				if right == left {
					right = attrs[(int(c.next())+1)%len(attrs)]
				}
				if right == left {
					continue
				}
				cl.Right = esql.AttrRef{Rel: right.rel, Attr: right.name}
			}
			q.Where = append(q.Where, esql.CondItem{Clause: cl})
		}

		cat := staticCatalog{
			rels:  map[string]*relation.Relation{"R": r, "S": s},
			cards: map[string]int{"R": r.Card(), "S": s.Card()},
		}
		p, err := CompileCatalog(q, cat)
		if err != nil {
			t.Fatalf("compile: %v\nview: %+v", err, q)
		}
		columnar, err := p.Execute(context.Background())
		if err != nil {
			t.Fatalf("columnar execute: %v", err)
		}
		assertNoDuplicates(t, "columnar", columnar)

		qualified := func(rel *relation.Relation) *relation.Relation {
			out, err := rel.Rebind(rel.Name, rel.Schema().Qualify(rel.Name, rel.Name))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		var cond relation.And
		for _, c := range Pending(q) {
			cond = append(cond, c)
		}
		joined, err := relation.Join(qualified(r), qualified(s), cond)
		if err != nil {
			t.Fatalf("reference join: %v", err)
		}
		projected, err := joined.Project("R.A", "R.C", "S.E")
		if err != nil {
			t.Fatal(err)
		}
		reference, err := projected.Rebind(q.Name, columnar.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if columnar.Card() != reference.Card() || !columnar.Equal(reference) {
			t.Fatalf("columnar and reference extents diverge under plan:\n%s\ncolumnar:\n%s\nreference:\n%s",
				p.Explain(), columnar, reference)
		}
	})
}

// assertNoDuplicates verifies the dedup contract: a plan's result relation
// holds each tuple at most once, so set equality is multiset equality.
func assertNoDuplicates(t *testing.T, path string, rel *relation.Relation) {
	t.Helper()
	seen := make(map[string]bool, rel.Card())
	for _, tp := range rel.Tuples() {
		k := rowKey(tp)
		if seen[k] {
			t.Fatalf("%s result contains duplicate tuple %s", path, fmt.Sprint(tp))
		}
		seen[k] = true
	}
}
