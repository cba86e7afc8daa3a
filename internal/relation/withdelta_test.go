package relation

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// The generation-chain differential for the shared pages and indexes: a
// chain of WithDelta generations, some through a Rebind, each sharing its pages, its
// dedup index and its memoized key indexes with its predecessor, checked
// after every step against a model (a plain set of tuples) and against
// indexes built from scratch — and every earlier generation checked to be
// what it was when it was born.

// chainCols are the column sets memoized on generation 0 and carried down
// the chain: the first column, the second, both.
var chainCols = [][]int{{0}, {1}, {0, 1}}

// chainUniverse is the closed set of tuples a chain draws from: (K, L, P)
// with K one of n distinct keys over every value kind the key encoding
// distinguishes, L one of ten values, and P ∈ {0, 1} so that a key can
// hold two rows.
func chainUniverse(n int) []Tuple {
	low := []Value{Int(0), Int(1), Int(2), Int(3), String("a"), String("b"), Null, Float(math.NaN()), Float(math.Copysign(0, -1)), Float(0)}
	var out []Tuple
	for i := 0; i < n; i++ {
		var k Value
		switch {
		case i == 0:
			k = Null
		case i == 1:
			k = Float(math.NaN())
		case i == 2:
			k = Float(0)
		case i == 3:
			k = Float(math.Copysign(0, -1))
		case i%3 == 0:
			k = String("k" + string(rune('A'+i%26)) + string(rune('a'+i/26)))
		case i%3 == 1:
			k = Float(float64(i) + 0.5)
		default:
			k = Int(int64(i))
		}
		out = append(out, Tuple{k, low[i%len(low)], Int(0)}, Tuple{k, low[i%len(low)], Int(1)})
	}
	return out
}

// chainStrings is the universe of the two-string-column mode: every pair
// of 16 strings over {a, s, |, \x1e}. Under a "s"-tagged, "|"-joined
// string encoding many pairs would share a key — ("a|s", "") and
// ("a", "|s") both spell sa|s|s — so the chain fails unless rows are told
// apart cell by cell.
func chainStrings() []Tuple {
	strs := []string{"", "a", "s", "|", "\x1e", "sa", "s|", "a|s", "|s", "a|", "|a", "as", "s\x1e", "\x1es", "a|sa", "sa|s"}
	var out []Tuple
	for _, k := range strs {
		for _, l := range strs {
			out = append(out, Tuple{String(k), String(l)})
		}
	}
	return out
}

// sameCell is typed cell equality spelled out for the oracles, apart from
// the engine's: same kind and payload, every NaN equal, -0 apart from +0.
func sameCell(x, y Value) bool {
	if x.Type() != y.Type() {
		return false
	}
	switch x.Type() {
	case TypeFloat:
		f, g := x.AsFloat(), y.AsFloat()
		return math.Float64bits(f) == math.Float64bits(g) || math.IsNaN(f) && math.IsNaN(g)
	case TypeInt:
		return x.AsInt() == y.AsInt()
	case TypeString:
		return x.AsString() == y.AsString()
	case TypeBool:
		return x.AsBool() == y.AsBool()
	}
	return true // both NULL
}

// sameRow reports whether two tuples agree cell by cell.
func sameRow(a, b Tuple) bool { return slices.EqualFunc(a, b, sameCell) }

// sameAt is sameRow over the cells at cols.
func sameAt(a, b Tuple, cols []int) bool {
	for _, c := range cols {
		if !sameCell(a[c], b[c]) {
			return false
		}
	}
	return true
}

// chainGen is one generation held by the test: the relation, which
// universe tuples it must hold, and the digest of everything a reader can
// ask it.
type chainGen struct {
	r      *Relation
	model  []bool // by universe position
	digest uint64
}

// universeAt returns u's position in the universe, compared cell by cell.
func universeAt(universe []Tuple, u Tuple) int {
	return slices.IndexFunc(universe, func(v Tuple) bool { return sameRow(u, v) })
}

// chainDigest hashes the rows in storage order, read off the pages, which
// universe tuples the relation holds and, for every column set, the
// positions filed under the key of every universe tuple.
func chainDigest(r *Relation, universe []Tuple) uint64 {
	h := fnv.New64a()
	for i := range r.Card() {
		for _, v := range r.Row(i) {
			h.Write([]byte(strconv.Quote(v.Key())))
		}
		h.Write([]byte{0})
	}
	for _, u := range universe {
		if r.Contains(u) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{2})
		}
	}
	for _, cols := range chainCols {
		for _, u := range universe {
			for _, p := range r.Lookup(cols, u) {
				h.Write([]byte{byte(p), byte(p >> 8), byte(p >> 16), byte(p >> 24)})
			}
			h.Write([]byte{0xff})
		}
	}
	return h.Sum64()
}

// chainMatches lists, per column set of chainCols and universe position,
// the universe positions that agree with it on those columns.
func chainMatches(universe []Tuple) [][][]int {
	out := make([][][]int, len(chainCols))
	for k, cols := range chainCols {
		out[k] = make([][]int, len(universe))
		for i, u := range universe {
			for j, v := range universe {
				if sameAt(u, v, cols) {
					out[k][i] = append(out[k][i], j)
				}
			}
		}
	}
	return out
}

// check compares a generation with its model, its row readers with one
// another, and its indexes with indexes built from scratch over the same
// rows and with the model's counts (matches is chainMatches(universe)).
func (g *chainGen) check(t *testing.T, at int, universe []Tuple, matches [][][]int) {
	t.Helper()
	rows := g.r.Tuples()
	var held []Tuple
	for i, in := range g.model {
		if in {
			held = append(held, universe[i])
		}
	}
	if g.r.Card() != len(held) || len(rows) != len(held) {
		t.Fatalf("generation %d: card %d, %d rows, model holds %d", at, g.r.Card(), len(rows), len(held))
	}
	order := g.r.SortedOrder() // over the pages: no batch is cached yet
	batch := g.r.Columns()
	for i, row := range rows {
		if !sameRow(g.r.Row(i), row) {
			t.Fatalf("generation %d: Row(%d) = %v, Tuples()[%d] = %v", at, i, g.r.Row(i), i, row)
		}
		for c, v := range row {
			if batch.Col(c).Value(i).Key() != v.Key() {
				t.Fatalf("generation %d: Columns() row %d = %v, Tuples() %v", at, i, batch.Col(c).Value(i), row)
			}
		}
	}
	want := make(Sel, len(rows))
	for i := range want {
		want[i] = int32(i)
	}
	sort.Slice(want, func(i, j int) bool { return compareRows(rows[want[i]], rows[want[j]]) < 0 })
	if !slices.Equal(order, want) || !slices.Equal(g.r.SortedOrder(), want) {
		t.Fatalf("generation %d: SortedOrder over the pages %v, over the batch %v, over Tuples() %v", at, order, g.r.SortedOrder(), want)
	}
	ref := MustFromRows("ref", g.r.Schema(), held...)
	if ref.Card() != len(held) {
		t.Fatalf("generation %d: %d distinct model rows inserted one by one keep %d", at, len(held), ref.Card())
	}
	for i, u := range universe {
		if g.r.Contains(u) != g.model[i] || ref.Contains(u) != g.model[i] {
			t.Fatalf("generation %d: Contains(%v) = %v, want %v", at, u, g.r.Contains(u), g.model[i])
		}
	}
	distinct := make([]bool, len(universe))
	for _, row := range rows {
		i := universeAt(universe, row)
		if i < 0 || !g.model[i] || distinct[i] {
			t.Fatalf("generation %d: row %v is a duplicate or not in the model", at, row)
		}
		distinct[i] = true
	}
	fresh := FromDistinctRows("fresh", g.r.Schema(), rows)
	for k, cols := range chainCols {
		for i, u := range universe {
			ps := g.r.Lookup(cols, u)
			if want := fresh.Lookup(cols, u); !slices.Equal(ps, want) {
				t.Fatalf("generation %d: Lookup(%v, %v) = %v, built from scratch %v", at, cols, u, ps, want)
			}
			n := 0
			for _, j := range matches[k][i] {
				if g.model[j] {
					n++
				}
			}
			if len(ps) != n || len(ref.Lookup(cols, u)) != n {
				t.Fatalf("generation %d: Lookup(%v, %v) holds %d rows, the model %d", at, cols, u, len(ps), n)
			}
			for _, p := range ps {
				if !sameAt(rows[p], u, cols) {
					t.Fatalf("generation %d: Lookup(%v, %v) addresses row %v", at, cols, u, rows[p])
				}
			}
		}
	}
}

// compareRows orders two rows by Value.Compare, column by column.
func compareRows(a, b Tuple) int {
	for c := range a {
		if d := a[c].Compare(b[c]); d != 0 {
			return d
		}
	}
	return 0
}

// toCard is the batch that brings g to n rows: its first rows deleted, or
// absent universe tuples inserted.
func toCard(g *chainGen, universe []Tuple, n int) (ins, del []Tuple) {
	rows := g.r.Tuples()
	if len(rows) >= n {
		return nil, slices.Clone(rows[:len(rows)-n])
	}
	for i, u := range universe {
		if !g.model[i] && len(ins) < n-len(rows) {
			ins = append(ins, u)
		}
	}
	return ins, nil
}

// runDeltaChain interprets script as a chain of generations and returns how
// many generations ran and how many of them folded their young generation
// into a fresh base. Every generation reads, in order: one byte for the
// batch (its size, or "delete everything", or "rebind to a renamed column
// and apply the batch to that", or — with one more byte and no ops —
// "bring the relation to 31, 32, 33 or 64 rows"), two bytes per op (what,
// which tuple), then two bytes for an Insert into the sealed parent, the
// child or both after the fork (three when both), which must fail. universe has 256 tuples, so one
// script byte names one; its first tuple's width and kinds set the schema.
func runDeltaChain(t *testing.T, script []byte, universe []Tuple) (generations, folds int) {
	next := func() (byte, bool) {
		if len(script) == 0 {
			return 0, false
		}
		b := script[0]
		script = script[1:]
		return b, true
	}
	pick := func() Tuple {
		b, _ := next()
		return universe[int(b)%len(universe)]
	}

	matches := chainMatches(universe)
	names := []string{"K", "L", "P"}[:len(universe[0])]
	cur := &chainGen{r: New("R", MustSchema(universe[0][0].Type(), names...)), model: make([]bool, len(universe))}
	for i, u := range universe {
		if i%3 != 0 {
			cur.r.Insert(u) //nolint:errcheck // arity matches
			cur.model[i] = true
		}
	}
	cur.digest = chainDigest(cur.r, universe) // memoizes every column set
	held := []*chainGen{cur}

	for {
		size, ok := next()
		if !ok {
			return generations, folds
		}
		var ins, del []Tuple
		ops := int(size % 20)
		switch size % 32 {
		case 31:
			del = slices.Clone(cur.r.Tuples())
		case 30: // around page boundaries: a full page, one row either side, two pages
			b, _ := next()
			ins, del = toCard(cur, universe, []int{31, 32, 33, 64}[b%4])
			ops = 0
		}
		for i := 0; i < ops; i++ {
			what, ok := next()
			if !ok {
				break
			}
			switch rows := cur.r.Tuples(); {
			case what%6 == 0:
				ins = append(ins, pick()) // present or absent
			case what%6 == 1:
				del = append(del, pick()) // present or absent
			case what%6 == 2: // delete and reinsert in one batch
				u := pick()
				ins, del = append(ins, u), append(del, u)
			case what%6 == 3 && len(rows) > 0: // the last row moves into the hole
				del = append(del, rows[0])
			case what%6 == 4 && len(rows) > 0: // no row moves
				del = append(del, rows[len(rows)-1])
			default:
				ins = append(ins, pick(), pick())
			}
		}
		parent := cur.r
		if size%32 == 29 { // the batch lands on a Rebind to a renamed column
			renamed := slices.Clone(names)
			renamed[len(renamed)-1] += fmt.Sprint(generations)
			var err error
			if parent, err = parent.Rebind("R", MustSchema(universe[0][0].Type(), renamed...)); err != nil {
				t.Fatal(err)
			}
		}
		landed, err := parent.WithDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		generations++
		if !landed.kidx.seen.m.frozen {
			folds++
		}
		if len(landed.kidx.all) != len(chainCols) {
			t.Fatalf("generation %d: %d key indexes carried over, want %d", generations, len(landed.kidx.all), len(chainCols))
		}
		child := &chainGen{r: landed, model: slices.Clone(cur.model)}
		for _, u := range del {
			child.model[universeAt(universe, u)] = false
		}
		for _, u := range ins {
			child.model[universeAt(universe, u)] = true
		}

		// Both sides of the fork are sealed: an Insert into either, or into
		// both, fails and changes nothing (the digests below).
		if where, ok := next(); ok && where%8 < 6 {
			edit := func(g *chainGen) {
				if err := g.r.Insert(pick()); !errors.Is(err, ErrSealed) {
					t.Fatalf("generation %d: Insert after the fork = %v, want ErrSealed", generations, err)
				}
			}
			if where%8 < 2 || where%8 >= 4 {
				edit(cur)
			}
			if where%8 >= 2 {
				edit(child)
			}
		}
		child.check(t, generations, universe, matches)
		child.digest = chainDigest(child.r, universe)

		// Every earlier generation is what it was: the last few after every
		// step, all of them every fiftieth and at the end of the script.
		from := max(0, len(held)-4)
		if generations%50 == 0 || len(script) == 0 {
			from = 0
		}
		for i, g := range held[from:] {
			if chainDigest(g.r, universe) != g.digest {
				t.Fatalf("generation %d changed after generation %d landed", from+i, generations)
			}
		}
		held = append(held, child)
		cur = child
	}
}

// TestWithDeltaChain runs a seeded script of some 330 generations, then one
// of some 150 over the two-string-column universe.
func TestWithDeltaChain(t *testing.T) {
	script := make([]byte, 6_500)
	rand.New(rand.NewSource(20)).Read(script)
	generations, folds := runDeltaChain(t, script, chainUniverse(128))
	t.Logf("%d generations, %d folds", generations, folds)
	if generations < 300 || folds < 3 {
		t.Errorf("%d generations crossed %d folds; want at least 300 and 3", generations, folds)
	}
	script = make([]byte, 3_000)
	rand.New(rand.NewSource(21)).Read(script)
	if generations, _ = runDeltaChain(t, script, chainStrings()); generations < 100 {
		t.Errorf("the string chain ran %d generations; want at least 100", generations)
	}
}

// FuzzWithDeltaChain is the same body over an arbitrary op script; a
// script whose first byte is 0xff runs the rest over the two-string-column
// universe.
func FuzzWithDeltaChain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 7, 1, 7, 2, 9, 0, 4})                        // insert, delete, delete+reinsert, Insert into the parent
	f.Add([]byte{31, 2, 0, 5, 1, 2, 0, 200, 0, 201, 2, 5})          // empty the relation, Insert into the child, refill
	f.Add([]byte{2, 3, 0, 4, 0, 9, 9, 2, 3, 0, 3, 0, 1, 17, 31, 7}) // swap-moves, then empty

	// A full page, its last row deleted; 33 rows, the tail page emptied; two
	// full pages, the last row deleted; the relation emptied, then batches
	// through Rebinds of the empty relation, Inserts tried on both sides.
	f.Add([]byte{30, 1, 6, 1, 4, 6, 30, 2, 6, 1, 4, 6, 30, 3, 6, 1, 4, 6, 63, 4, 4, 4, 6, 61, 5, 10, 20, 4, 30, 40, 61, 5, 11, 21, 5, 31, 41})
	// Batches through Rebinds of a full relation, Inserts tried on both sides.
	f.Add([]byte{61, 2, 7, 4, 9, 12, 125, 5, 1, 2, 5, 3, 4, 0, 5, 1, 6, 3, 4, 40, 50, 221, 4, 5, 8, 9})
	// Strings: ("a|s", "") and ("a", "|s") inserted in one batch, then
	// deleted one batch each; the last fork's parent refuses ("a|s", "")
	// back.
	f.Add([]byte{0xff, 2, 0, 112, 0, 24, 6, 1, 1, 112, 6, 1, 1, 24, 0, 112})
	// Strings: around page boundaries, then a batch through a Rebind.
	f.Add([]byte{0xff, 30, 1, 6, 1, 4, 6, 30, 3, 6, 61, 5, 10, 20, 4, 30, 40})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		universe := chainUniverse(128)
		if len(script) > 0 && script[0] == 0xff {
			script, universe = script[1:], chainStrings()
		}
		runDeltaChain(t, script, universe)
	})
}

// TestSupersededRelationIsCollectable pins the no-parent-chain rule: a
// generation shares its base maps with its successors but is not reachable
// from them, so once nothing else holds it the collector takes it.
func TestSupersededRelationIsCollectable(t *testing.T) {
	gen0 := New("R", abSchema())
	for i := 0; i < 1000; i++ {
		gen0.Insert(Tuple{Int(int64(i)), Int(int64(i))}) //nolint:errcheck // arity matches
	}
	gen0.KeyIndex([]int{0})
	collected := make(chan struct{})
	runtime.SetFinalizer(gen0, func(*Relation) { close(collected) })
	cur := gen0
	gen0 = nil
	for g := 0; g < 40; g++ {
		next, err := cur.WithDelta([]Tuple{{Int(int64(g)), Int(-1)}}, []Tuple{{Int(int64(g + 500)), Int(int64(g + 500))}})
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			under7 := cur.Lookup([]int{0}, Tuple{Int(7), Null})
			if cur.Card() != 1000 || len(under7) != 2 {
				t.Errorf("generation 40 holds %d rows, %v under key 7", cur.Card(), under7)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("generation 0 is still reachable from generation 40")
}

// TestWithDeltaBytesIndependentOfCard pins the landing kernel's O(|Δ|) rule
// in bytes: a 16-tuple WithDelta copies the page table, one pointer per
// page, and the pages it writes, never the rows.
func TestWithDeltaBytesIndependentOfCard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1M-row relation")
	}
	for _, c := range []struct {
		n     int
		limit uint64
	}{{10_000, 16 << 10}, {1_000_000, 300 << 10}} {
		rows := make([]Tuple, c.n)
		vals := make([]Value, 2*c.n)
		for i := range rows {
			vals[2*i], vals[2*i+1] = Int(int64(i)), Int(int64(i))
			rows[i] = vals[2*i : 2*i+2 : 2*i+2]
		}
		r := FromDistinctRows("R", abSchema(), rows)
		r.KeyIndex([]int{0})
		delta := make([]Tuple, 16)
		for k := range delta {
			delta[k] = Tuple{Int(int64(k * 7)), Int(-1)}
		}
		step := func(i int) {
			var err error
			if i%2 == 0 {
				r, err = r.WithDelta(delta, nil)
			} else {
				r, err = r.WithDelta(nil, delta)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range 4 {
			step(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range 20 {
			step(i)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / 20; got > c.limit {
			t.Errorf("WithDelta of 16 tuples at %d rows allocates %d KB, want ≤ %d KB", c.n, got>>10, c.limit>>10)
		}
	}
}

// BenchmarkWithDelta is the landing kernel by itself — one 16-tuple delta
// against a relation carrying one memoized key index — which the ledger's
// update-maintain workload sees only summed with maintenance.
func BenchmarkWithDelta(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := New("R", abSchema())
			for i := 0; i < n; i++ {
				r.Insert(Tuple{Int(int64(i)), Int(int64(i))}) //nolint:errcheck // arity matches
			}
			r.KeyIndex([]int{0})
			delta := make([]Tuple, 16)
			for k := range delta {
				delta[k] = Tuple{Int(int64(k * 7)), Int(-1)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if i%2 == 0 {
					r, err = r.WithDelta(delta, nil)
				} else {
					r, err = r.WithDelta(nil, delta)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
