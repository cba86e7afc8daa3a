package space_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/space"
)

// The landing differential: an attribute change lands on a relation without
// re-keying its rows (delete-attribute through the columnar Project,
// add-attribute over the existing column vectors, rename-attribute as a
// Rebind), and must leave exactly what the row-by-row rebuild it replaced
// left — while the pre-change relation, which an older Version still holds,
// stays what it was, even once a data update lands on the landed one.

// rebuildOracle is the landing of an attribute change as it was written
// before: a fresh relation built by Insert, one row at a time, in the
// pre-change relation's row order.
func rebuildOracle(t testing.TB, r *relation.Relation, c space.Change) *relation.Relation {
	t.Helper()
	sch := r.Schema()
	var out *relation.Relation
	switch c.Kind {
	case space.DeleteAttribute:
		var keep []string
		var idx []int
		for i, n := range sch.Names() {
			if n != c.Attr {
				keep, idx = append(keep, n), append(idx, i)
			}
		}
		ps, err := sch.Project(keep...)
		if err != nil {
			t.Fatal(err)
		}
		out = relation.New(c.Rel, ps)
		for _, row := range r.Tuples() {
			pt := make(relation.Tuple, len(idx))
			for i, j := range idx {
				pt[i] = row[j]
			}
			out.Insert(pt) //nolint:errcheck // arity matches by construction
		}
	case space.AddAttribute:
		attrs := append(sch.Attrs(), relation.Attribute{Name: c.Attr, Type: c.AttrType})
		out = relation.New(c.Rel, relation.NewSchema(attrs...))
		for _, row := range r.Tuples() {
			out.Insert(append(row.Clone(), relation.Null)) //nolint:errcheck // arity matches
		}
	case space.RenameAttribute:
		renamed, err := sch.Rename(c.Attr, c.NewName)
		if err != nil {
			t.Fatal(err)
		}
		out = relation.New(c.Rel, renamed)
		for _, row := range r.Tuples() {
			out.Insert(row) //nolint:errcheck // arity matches
		}
	default:
		t.Fatalf("not an attribute change: %s", c)
	}
	return out
}

// landRows mixes every value kind the key encoding distinguishes: a typed
// int column, a float column with NaNs of two payloads and both zeros, a
// string column with a quote and the empty string, and a mixed column with
// NULLs. Rows 0/1 and 2/3 differ only in D, so dropping D creates
// duplicates.
func landRows() []relation.Tuple {
	I, F, S, B, N := relation.Int, relation.Float, relation.String, relation.Bool, relation.Null
	return []relation.Tuple{
		{I(1), F(0.5), S("a"), I(1)},
		{I(1), F(0.5), S("a"), S("x")},
		{I(2), F(math.NaN()), S("b"), N},
		{I(2), F(math.Float64frombits(0x7FF8000000000001)), S("b"), F(1)},
		{I(3), F(0), S(""), I(3)},
		{I(3), F(math.Copysign(0, -1)), S(""), I(3)},
		{I(4), F(1), S("it's"), F(math.Copysign(0, -1))},
		{I(5), F(2), S("c"), B(true)},
		{I(6), F(3), S("d"), N},
	}
}

func landSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Attribute{Name: "A", Type: relation.TypeInt},
		relation.Attribute{Name: "B", Type: relation.TypeFloat},
		relation.Attribute{Name: "C", Type: relation.TypeString},
		relation.Attribute{Name: "D", Type: relation.TypeString},
	)
}

// landForms names the physical forms a pre-change relation can have; each
// is built named "R" over the given rows, with a key index memoized on the
// first column so a landing has one to carry over.
var landForms = []string{"New+Insert", "FromDistinctRows", "FromColumns", "cached-batch", "Rebind", "Rebind renamed", "WithDelta-chain"}

func landForm(t testing.TB, form string, schema *relation.Schema, rows []relation.Tuple) *relation.Relation {
	t.Helper()
	inserted := relation.MustFromRows("R", schema, rows...)
	distinct := slices.Clone(inserted.Tuples())
	var r *relation.Relation
	switch form {
	case "New+Insert":
		r = inserted
	case "FromDistinctRows":
		r = relation.FromDistinctRows("R", schema, distinct)
	case "FromColumns":
		r = relation.FromColumns("R", schema, relation.NewColumnBatch(distinct, schema.Len()))
	case "cached-batch":
		r = inserted
		r.Columns()
	case "Rebind":
		other := make([]string, schema.Len())
		for i := range other {
			other[i] = fmt.Sprintf("x%d", i)
		}
		var err error
		if r, err = relation.MustFromRows("X", relation.MustSchema(relation.TypeInt, other...), rows...).Rebind("R", schema); err != nil {
			t.Fatal(err)
		}
	case "Rebind renamed":
		var err error
		if r, err = relation.FromColumns("X", schema, relation.NewColumnBatch(distinct, schema.Len())).Rebind("R", schema); err != nil {
			t.Fatal(err)
		}
	case "WithDelta-chain":
		// Generation 0 lacks the first two rows and holds a stray one; two
		// generations later the rows are the same set in another order.
		stray := make(relation.Tuple, schema.Len())
		for i := range stray {
			stray[i] = relation.String("stray")
		}
		r = relation.MustFromRows("R", schema, append(slices.Clone(distinct[min(2, len(distinct)):]), stray)...)
		r.KeyIndex([]int{0})
		var err error
		if r, err = r.WithDelta(distinct[:min(2, len(distinct))], nil); err != nil {
			t.Fatal(err)
		}
		if r, err = r.WithDelta(nil, []relation.Tuple{stray}); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown form %q", form)
	}
	r.KeyIndex([]int{0})
	return r
}

// landSpace places r in a fresh space, at source "S".
func landSpace(t testing.TB, r *relation.Relation) *space.Space {
	t.Helper()
	sp := space.New()
	if _, err := sp.AddSource("S"); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("S", r); err != nil {
		t.Fatal(err)
	}
	return sp
}

// probes are the tuples Contains is asked about: every row, and every row
// with its last cell swapped for a value no row holds.
func probes(r *relation.Relation) []relation.Tuple {
	var out []relation.Tuple
	for _, row := range r.Tuples() {
		absent := row.Clone()
		absent[len(absent)-1] = relation.String("absent")
		out = append(out, row, absent)
	}
	return out
}

// keySets are the column sets KeyIndex is checked over: each single column,
// and the first two together.
func keySets(width int) [][]int {
	out := [][]int{}
	for c := 0; c < width; c++ {
		out = append(out, []int{c})
	}
	if width >= 2 {
		out = append(out, []int{0, 1})
	}
	return out
}

// landDigest hashes everything a reader can ask the relation: its name and
// column names, its rows in storage order, Card, the row checksum, Contains
// over the given probes, and the key-index positions of every key set for
// every probe.
func landDigest(r *relation.Relation, probe []relation.Tuple) uint64 {
	h := fnv.New64a()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	h.Write([]byte(r.Name + "|" + fmt.Sprint(r.Schema().Names())))
	for _, row := range r.Tuples() {
		for _, v := range row {
			h.Write([]byte(strconv.Quote(v.Key())))
		}
		h.Write([]byte{0})
	}
	word(uint64(r.Card()))
	word(exec.RowChecksum(r))
	for _, p := range probe {
		if len(p) == r.Schema().Len() && r.Contains(p) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{2})
		}
	}
	for _, cols := range keySets(r.Schema().Len()) {
		for _, p := range probe {
			if len(p) != r.Schema().Len() {
				continue
			}
			for _, pos := range r.Lookup(cols, p) {
				word(uint64(pos))
			}
			h.Write([]byte{0xff})
		}
	}
	return h.Sum64()
}

// checkLanded compares the landed relation with the oracle rebuild: schema,
// Card, the rows in storage order, Contains, RowChecksum, SortedOrder,
// Relation.Lookup, and the MKB's card and schema.
func checkLanded(t testing.TB, label string, sp *space.Space, got, want *relation.Relation) {
	t.Helper()
	if !slices.Equal(got.Schema().Names(), want.Schema().Names()) {
		t.Fatalf("%s: schema %v, oracle %v", label, got.Schema().Names(), want.Schema().Names())
	}
	if got.Card() != want.Card() {
		t.Fatalf("%s: card %d, oracle %d", label, got.Card(), want.Card())
	}
	if g, w := exec.RowChecksum(got), exec.RowChecksum(want); g != w {
		t.Fatalf("%s: RowChecksum %016x, oracle %016x", label, g, w)
	}
	gs, ws := got.SortedOrder(), want.SortedOrder()
	grows, wrows := got.Tuples(), want.Tuples()
	for i := range wrows {
		if !sameRow(grows[i], wrows[i]) {
			t.Fatalf("%s: row %d = %v, oracle %v", label, i, grows[i], wrows[i])
		}
		if !sameRow(grows[gs[i]], wrows[ws[i]]) {
			t.Fatalf("%s: sorted row %d = %v, oracle %v", label, i, grows[gs[i]], wrows[ws[i]])
		}
	}
	for _, p := range probes(want) {
		if got.Contains(p) != want.Contains(p) {
			t.Fatalf("%s: Contains(%v) = %v, oracle %v", label, p, got.Contains(p), want.Contains(p))
		}
	}
	for _, cols := range keySets(want.Schema().Len()) {
		for _, p := range probes(want) {
			if g, w := got.Lookup(cols, p), want.Lookup(cols, p); !slices.Equal(g, w) {
				t.Fatalf("%s: Lookup(%v, %v) = %v, oracle %v", label, cols, p, g, w)
			}
		}
	}
	info := sp.MKB().Relation(want.Name)
	if info == nil || info.Card != want.Card() || !slices.Equal(info.Schema.Names(), want.Schema().Names()) {
		t.Fatalf("%s: MKB holds %+v, oracle card %d schema %v", label, info, want.Card(), want.Schema().Names())
	}
}

// landAndCheck lands c on the space's relation R, compares the result with
// the oracle, lands a data update on it (WithDelta and ReplaceRelation: a
// delete that moves the last row into the first slot, then an insert),
// compares again, and requires every held relation to digest as it did
// before the landing.
func landAndCheck(t testing.TB, label string, sp *space.Space, c space.Change, held map[*relation.Relation]uint64, edit bool) {
	t.Helper()
	pre := sp.Relation("R")
	want := rebuildOracle(t, pre, c)
	if err := sp.ApplyChange(c); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := sp.Relation("R")
	checkLanded(t, label, sp, got, want)
	checkHeld(t, label+" landed", held)
	if edit && want.Card() > 0 {
		extra := make(relation.Tuple, want.Schema().Len())
		for i := range extra {
			extra[i] = relation.Int(int64(1000 + i))
		}
		ins, del := []relation.Tuple{extra}, []relation.Tuple{want.Tuples()[0]}
		want, err := want.WithDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		next, err := got.WithDelta(ins, del)
		if err == nil {
			err = sp.ReplaceRelation("R", next)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkLanded(t, label+" updated", sp, sp.Relation("R"), want)
		checkHeld(t, label+" updated", held)
	}
}

func checkHeld(t testing.TB, label string, held map[*relation.Relation]uint64) {
	t.Helper()
	for r, d := range held {
		if landDigest(r, probes(r)) != d {
			t.Fatalf("%s: a pre-change relation %s%v changed", label, r.Name, r.Schema().Names())
		}
	}
}

// TestLandingMatchesRebuild lands every attribute change — delete each
// attribute, add one, rename each — on every physical form of the same
// rows.
func TestLandingMatchesRebuild(t *testing.T) {
	var changes []space.Change
	for _, a := range landSchema().Names() {
		changes = append(changes,
			space.Change{Kind: space.DeleteAttribute, Rel: "R", Attr: a},
			space.Change{Kind: space.RenameAttribute, Rel: "R", Attr: a, NewName: "Z"})
	}
	changes = append(changes, space.Change{Kind: space.AddAttribute, Rel: "R", Attr: "E", AttrType: relation.TypeInt})
	shrank := false
	for _, form := range landForms {
		for _, c := range changes {
			r := landForm(t, form, landSchema(), landRows())
			sp := landSpace(t, r)
			held := map[*relation.Relation]uint64{r: landDigest(r, probes(r))}
			landAndCheck(t, fmt.Sprintf("%s / %s", form, c), sp, c, held, true)
			if c.Kind == space.DeleteAttribute && c.Attr == "D" && sp.Relation("R").Card() < len(landRows())-1 {
				shrank = true
			}
		}
	}
	if !shrank {
		t.Fatal("dropping D created no duplicates: the corpus does not exercise Project's dedup")
	}
}

// runLandScript interprets script as a chain of attribute changes on one
// relation: a first byte picks the pre-change form, then each step reads a
// change byte (kind, attribute) and an edit byte (whether to land a data
// update on the landed relation). Every relation the chain leaves behind stays
// held and is re-checked after every later landing.
func runLandScript(t testing.TB, script []byte) (steps int) {
	next := func() (byte, bool) {
		if len(script) == 0 {
			return 0, false
		}
		b := script[0]
		script = script[1:]
		return b, true
	}
	b, _ := next()
	r := landForm(t, landForms[int(b)%len(landForms)], landSchema(), landRows())
	sp := landSpace(t, r)
	held := map[*relation.Relation]uint64{r: landDigest(r, probes(r))}
	types := []relation.Type{relation.TypeInt, relation.TypeFloat, relation.TypeString, relation.TypeBool}
	for {
		op, ok := next()
		if !ok {
			return steps
		}
		edit, _ := next()
		cur := sp.Relation("R")
		names := cur.Schema().Names()
		attr := names[int(op/3)%len(names)]
		var c space.Change
		switch {
		case op%3 == 0 && len(names) > 1:
			c = space.Change{Kind: space.DeleteAttribute, Rel: "R", Attr: attr}
		case op%3 == 1 || len(names) > 6:
			c = space.Change{Kind: space.RenameAttribute, Rel: "R", Attr: attr, NewName: fmt.Sprintf("r%d", steps)}
		default:
			c = space.Change{Kind: space.AddAttribute, Rel: "R", Attr: fmt.Sprintf("n%d", steps), AttrType: types[int(op/3)%len(types)]}
		}
		steps++
		landAndCheck(t, fmt.Sprintf("step %d (%s)", steps, c), sp, c, held, edit%2 == 1)
		landed := sp.Relation("R")
		held[landed] = landDigest(landed, probes(landed))
	}
}

// TestLandChangeChain runs a seeded script of 200 landings.
func TestLandChangeChain(t *testing.T) {
	script := make([]byte, 401)
	rand.New(rand.NewSource(25)).Read(script)
	if steps := runLandScript(t, script); steps != 200 {
		t.Fatalf("%d steps, want 200", steps)
	}
}

// FuzzLandChange is the same body over an arbitrary change script.
func FuzzLandChange(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 9, 1, 1, 0, 2, 1})          // New+Insert: drop D and update, rename B, add
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1, 2, 1})    // FromColumns: drop until one column is left, then add
	f.Add([]byte{6, 4, 1, 5, 1, 9, 0, 10, 1})   // WithDelta chain: rename, add, drop the added one
	f.Add([]byte{4, 1, 1, 7, 1, 3, 1, 0, 0, 2}) // Rebind: rename twice, drop B, drop A, add
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			t.Skip()
		}
		runLandScript(t, script)
	})
}

// sameRow reports whether two tuples agree cell by cell, each cell compared
// by its type-tagged Value.Key.
func sameRow(a, b relation.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y relation.Value) bool { return x.Key() == y.Key() })
}
