package relation

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// stringKeyPair returns two distinct rows that a "s"-tagged, "|"-joined
// string encoding spells alike (sa|sb|sc): the pair a row identity built on
// such strings would merge.
func stringKeyPair() (a, b Tuple) {
	return Tuple{String("a|sb"), String("c")}, Tuple{String("a"), String("b|sc")}
}

// TestRowsSharingAStringKeyStayDistinct builds the pair through every
// constructor that files rows — New+Insert, FromRows, WithDelta, Rebind —
// and checks that the relation holds, finds, probes and deletes (WithDelta)
// each of the two on its own.
func TestRowsSharingAStringKeyStayDistinct(t *testing.T) {
	a, b := stringKeyPair()
	schema := MustSchema(TypeString, "X", "Y")
	inserted := New("R", schema)
	inserted.Insert(a) //nolint:errcheck // arity matches
	inserted.Insert(b) //nolint:errcheck // arity matches
	fromRows := MustFromRows("R", schema, a, b)
	landedBoth, err := New("R", schema).WithDelta([]Tuple{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	landedOne, err := MustFromRows("R", schema, a).WithDelta([]Tuple{b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromRows.KeyIndex([]int{0, 1})
	rebound, err := fromRows.Rebind("R", MustSchema(TypeString, "X", "Z"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		form string
		r    *Relation
	}{{"New+Insert", inserted}, {"FromRows", fromRows}, {"WithDelta", landedBoth}, {"WithDelta onto a", landedOne}, {"Rebind", rebound}} {
		r := c.r
		if r.Card() != 2 || !r.Contains(a) || !r.Contains(b) {
			t.Fatalf("%s: card %d, Contains(a) %v, Contains(b) %v; want 2, true, true", c.form, r.Card(), r.Contains(a), r.Contains(b))
		}
		for _, u := range []Tuple{a, b} {
			ps := r.Lookup([]int{0, 1}, u)
			if len(ps) != 1 || !sameRow(r.Row(int(ps[0])), u) {
				t.Fatalf("%s: the two-column probe for %v finds %v", c.form, u, ps)
			}
		}
		for _, u := range []Tuple{a, b} {
			gone, err := r.WithDelta(nil, []Tuple{u})
			if err != nil {
				t.Fatal(err)
			}
			if gone.Card() != 1 || gone.Contains(u) || gone.Contains(a) == gone.Contains(b) {
				t.Fatalf("%s: WithDelta deleting %v leaves card %d, Contains(a) %v, Contains(b) %v", c.form, u, gone.Card(), gone.Contains(a), gone.Contains(b))
			}
		}
	}
}

// TestJoinKeepsRowsSharingAStringKeyApart: the algebra's hash join on a
// two-column equi-key matches a row with its equal, not with the other row
// of the pair.
func TestJoinKeepsRowsSharingAStringKeyApart(t *testing.T) {
	a, b := stringKeyPair()
	r := MustFromRows("R", MustSchema(TypeString, "X", "Y"), a)
	on := And{AttrAttr("X", OpEQ, "U"), AttrAttr("Y", OpEQ, "V")}
	for _, c := range []struct {
		s    Tuple
		want int
	}{{b, 0}, {a, 1}} {
		s := MustFromRows("S", MustSchema(TypeString, "U", "V"), c.s)
		j, err := Join(r, s, on)
		if err != nil {
			t.Fatal(err)
		}
		if j.Card() != c.want {
			t.Errorf("%v ⋈ %v on both columns: %d rows, want %d", a, c.s, j.Card(), c.want)
		}
	}
}

// TestKeyIndexCollisionChain files distinct rows under one hash — a 64-bit
// collision the suites never meet by chance — through the index's own
// refile and fork: written in place, and on both sides of a fork (two
// forks of one index, neither writing what the other reads); b and c are
// filed under a's hash. The candidates confirmed by typed equality must
// keep the rows apart (KeyIndex.find for a, whose probe really hashes
// there), a delete must drop the right one and a moved row must be
// refiled.
func TestKeyIndexCollisionChain(t *testing.T) {
	cols := allCols(2)
	a, b := stringKeyPair()
	c, d, e := Tuple{Int(1), Int(2)}, Tuple{Float(1), Int(2)}, Tuple{String("x"), Null}
	forced := hashCells(a, cols)
	hash := func(u Tuple) uint64 {
		if sameRow(u, d) {
			return hashCells(u, cols)
		}
		return forced
	}
	check := func(side string, ix *KeyIndex, rows []Tuple, chain string, absent ...Tuple) {
		t.Helper()
		at := func(p int) Tuple { return rows[p] }
		for i, u := range rows {
			got := -1
			for _, p := range ix.Probe(nil, hash(u)) {
				if sameCells(rows[p], u, cols) {
					got = int(p)
				}
			}
			if got != i {
				t.Errorf("%s: %v found at %d, want %d", side, u, got, i)
			}
			if sameRow(u, a) && ix.find(a, at) != i {
				t.Errorf("%s: KeyIndex.find(a) = %d, want %d", side, ix.find(a, at), i)
			}
		}
		for _, u := range absent {
			for _, p := range ix.Probe(nil, hash(u)) {
				if sameCells(rows[p], u, cols) {
					t.Errorf("%s: deleted %v found at %d", side, u, p)
				}
			}
		}
		if got := fmt.Sprint(ix.Probe(nil, forced)); got != chain {
			t.Errorf("%s: %s filed under the shared hash, want %s", side, got, chain)
		}
	}
	rows := []Tuple{b, c, a, d}
	build := func() *KeyIndex {
		ix := &KeyIndex{cols: cols}
		for i, u := range rows {
			ix.refile(hash(u), -1, i)
		}
		return ix
	}
	parent := build()
	check("built", parent, rows, "[0 1 2]")

	// Swap-remove as Relation.drop does: the last row moves into the hole.
	remove := func(ix *KeyIndex, rows []Tuple, i int) []Tuple {
		last := len(rows) - 1
		ix.refile(hash(rows[i]), i, -1)
		if i != last {
			ix.refile(hash(rows[last]), last, i)
			rows[i] = rows[last]
		}
		return rows[:last]
	}
	// b goes, d moves to 0; e joins the chain.
	edit := func(ix *KeyIndex) []Tuple {
		out := remove(ix, slices.Clone(rows), 0)
		ix.refile(hash(e), -1, len(out))
		return append(out, e)
	}
	inPlace := build()
	check("in place", inPlace, edit(inPlace), "[1 2 3]", b)

	child := parent.fork()
	childRows := remove(child, slices.Clone(rows), 1) // c goes, d moves to 1
	sibling := parent.fork()
	check("sibling", sibling, edit(sibling), "[1 2 3]", b)
	check("child", child, childRows, "[0 2]", c)

	// A second fork of the child, the moved row deleted and a collided row
	// moved over it, leaves the first child alone.
	grand := child.fork()
	grandRows := remove(grand, slices.Clone(childRows), 1) // d goes, a moves to 1
	check("grandchild", grand, grandRows, "[0 1]", c, d)
	check("child after the grandchild's edits", child, childRows, "[0 2]", c)
	check("parent after its forks' edits", parent, rows, "[0 1 2]")
}

// TestKeyIndexIsCompact pins what a resident index costs at 10k rows: a
// memoized key index and a dedup index grown by Insert each hold at most
// 200 KiB, in arrays without pointers the collector would have to scan,
// and a built index has no young generation.
func TestKeyIndexIsCompact(t *testing.T) {
	r := New("R", MustSchema(TypeInt, "K", "V"))
	for i := range 10_000 {
		r.Insert(Tuple{Int(int64(i)), Int(int64(i))}) //nolint:errcheck // arity matches
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix := r.KeyIndex([]int{0})
	runtime.ReadMemStats(&after)
	if built := after.TotalAlloc - before.TotalAlloc; built > 200<<10 {
		t.Errorf("building a 10k-row key index allocates %d KiB, want ≤ 200 KiB", built>>10)
	}
	for name, ix := range map[string]*KeyIndex{"key index": ix, "dedup index": r.index()} {
		v := reflect.ValueOf(ix).Elem()
		held := uintptr(0)
		for i := range v.NumField() {
			f, field := v.Field(i), v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Slice:
				if !pointerFree(f.Type().Elem()) {
					t.Errorf("%s: field %s holds %s", name, field, f.Type())
				}
				held += uintptr(f.Cap()) * f.Type().Elem().Size()
			case reflect.Map:
				if f.Len() != 0 {
					t.Errorf("%s: field %s holds %d entries in a built index", name, field, f.Len())
				}
			case reflect.Bool, reflect.Int:
			default:
				t.Errorf("%s: field %s is a %s", name, field, f.Type())
			}
		}
		t.Logf("%s: %d KiB held", name, held>>10)
		if held > 200<<10 {
			t.Errorf("%s: %d KiB held, want ≤ 200 KiB", name, held>>10)
		}
	}
}

// pointerFree reports whether values of type t hold no pointer: integers,
// and structs and arrays of them.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int32, reflect.Uint32, reflect.Int64, reflect.Uint64:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestKeyedReadsAllocateNothing pins the keyed read paths of a 10k-row
// paged relation: Contains and a duplicate Insert hash the probed row and
// compare typed cells, so neither allocates.
func TestKeyedReadsAllocateNothing(t *testing.T) {
	r := New("R", MustSchema(TypeString, "K", "V"))
	for i := range 10_000 {
		r.Insert(Tuple{String(fmt.Sprint("k", i)), Int(int64(i))}) //nolint:errcheck // arity matches
	}
	probe := Tuple{String("k4321"), Int(4321)}
	if n := testing.AllocsPerRun(100, func() {
		if !r.Contains(probe) {
			t.Fatal("row missing")
		}
	}); n != 0 {
		t.Errorf("Contains allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Insert(probe) }); n != 0 { //nolint:errcheck // arity matches
		t.Errorf("a duplicate Insert allocates %v times, want 0", n)
	}
	if r.Card() != 10_000 {
		t.Errorf("card %d after duplicate inserts, want 10000", r.Card())
	}
}

// TestDeferredIndexRaceFree builds the deferred dedup index of a
// columnar-born relation from several readers at once while a writer forks
// it (WithDelta); run under -race.
func TestDeferredIndexRaceFree(t *testing.T) {
	a, b := stringKeyPair()
	schema := MustSchema(TypeString, "X", "Y")
	r := FromColumns("R", schema, NewColumnBatch([]Tuple{a}, 2))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !r.Contains(a) || r.Contains(b) {
				t.Error("a columnar-born relation answers Contains wrongly")
			}
		}()
	}
	next, err := r.WithDelta([]Tuple{b}, nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if next.Card() != 2 || !next.Contains(b) || r.Contains(b) {
		t.Errorf("the fork holds %d rows; Contains(b) %v, on the parent %v", next.Card(), next.Contains(b), r.Contains(b))
	}
}
