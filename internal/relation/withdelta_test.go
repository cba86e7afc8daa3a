package relation

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// The generation-chain differential for the shared pages and indexes: a
// chain of WithDelta and Relabel generations, each sharing its pages, its
// dedup index and its memoized key indexes with its predecessor, checked
// after every step against a model (a plain set of tuples) and against
// indexes built from scratch — and every earlier generation checked to be
// what it was when it was born.

// chainCols are the column sets memoized on generation 0 and carried down
// the chain: the key column, the low-cardinality column, both.
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

// chainGen is one generation held by the test: the relation, the set of
// tuples it must hold, and the digest of everything a reader can ask it.
type chainGen struct {
	r      *Relation
	model  map[string]Tuple
	digest uint64
}

// chainDigest hashes the rows in storage order, read off the pages, which
// universe tuples the relation holds and, for every column set, the
// positions filed under the key of every universe tuple.
func chainDigest(r *Relation, universe []Tuple) uint64 {
	h := fnv.New64a()
	for i := range r.Card() {
		h.Write([]byte(r.Row(i).Key()))
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
		ix := r.KeyIndex(cols)
		for _, u := range universe {
			for _, p := range ix.Get(TupleKey(u, cols)) {
				h.Write([]byte{byte(p), byte(p >> 8), byte(p >> 16), byte(p >> 24)})
			}
			h.Write([]byte{0xff})
		}
	}
	return h.Sum64()
}

// check compares a generation with its model, its row readers with one
// another, and its indexes with indexes built from scratch over the same
// rows.
func (g *chainGen) check(t *testing.T, at int, universe []Tuple) {
	t.Helper()
	rows := g.r.Tuples()
	if g.r.Card() != len(g.model) || len(rows) != len(g.model) {
		t.Fatalf("generation %d: card %d, %d rows, model holds %d", at, g.r.Card(), len(rows), len(g.model))
	}
	order := g.r.SortedOrder() // over the pages: no batch is cached yet
	batch := g.r.Columns()
	for i, row := range rows {
		if g.r.Row(i).Key() != row.Key() {
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
	ref := MustFromRows("ref", g.r.Schema(), slices.Collect(maps.Values(g.model))...)
	for _, u := range universe {
		_, want := g.model[u.Key()]
		if g.r.Contains(u) != want || ref.Contains(u) != want {
			t.Fatalf("generation %d: Contains(%v) = %v, want %v", at, u, g.r.Contains(u), want)
		}
	}
	distinct := map[string]bool{}
	for _, row := range rows {
		if _, ok := g.model[row.Key()]; !ok || distinct[row.Key()] {
			t.Fatalf("generation %d: row %v is a duplicate or not in the model", at, row)
		}
		distinct[row.Key()] = true
	}
	fresh := FromDistinctRows("fresh", g.r.Schema(), rows)
	for _, cols := range chainCols {
		got, want, byModel := g.r.KeyIndex(cols), fresh.KeyIndex(cols), ref.KeyIndex(cols)
		for _, u := range universe {
			k := TupleKey(u, cols)
			ps := got.Get(k)
			if !slices.Equal(ps, want.Get(k)) {
				t.Fatalf("generation %d: KeyIndex(%v).Get(%q) = %v, built from scratch %v", at, cols, k, ps, want.Get(k))
			}
			if len(ps) != len(byModel.Get(k)) {
				t.Fatalf("generation %d: KeyIndex(%v).Get(%q) holds %d rows, the model %d", at, cols, k, len(ps), len(byModel.Get(k)))
			}
			for _, p := range ps {
				if TupleKey(rows[p], cols) != k {
					t.Fatalf("generation %d: KeyIndex(%v).Get(%q) addresses row %v", at, cols, k, rows[p])
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
	for _, u := range universe {
		if _, ok := g.model[u.Key()]; !ok && len(ins) < n-len(rows) {
			ins = append(ins, u)
		}
	}
	return ins, nil
}

// runDeltaChain interprets script as a chain of generations and returns how
// many generations ran and how many of them folded their young generation
// into a fresh base. Every generation reads, in order: one byte for the
// batch (its size, or "delete everything", or "fork through Relabel and
// apply the batch in place", or — with one more byte and no ops — "bring
// the relation to 31, 32, 33 or 64 rows"), two bytes per op (what, which
// tuple), then two bytes for an in-place edit of the parent, the child or
// both after the fork (three when both).
func runDeltaChain(t *testing.T, script []byte) (generations, folds int) {
	universe := chainUniverse(128) // 256 tuples: one script byte names one
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

	cur := &chainGen{r: New("R", MustSchema(TypeInt, "K", "L", "P")), model: map[string]Tuple{}}
	for i, u := range universe {
		if i%3 != 0 {
			cur.r.Insert(u) //nolint:errcheck // arity matches
			cur.model[u.Key()] = u
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
		relabel := size%32 == 29 // a Relabel fork, then the batch in place on the child
		var landed *Relation
		var err error
		if relabel {
			landed, err = cur.r.Relabel(MustSchema(TypeInt, "K", "L", fmt.Sprint("P", generations)))
		} else {
			landed, err = cur.r.WithDelta(ins, del)
		}
		if err != nil {
			t.Fatal(err)
		}
		generations++
		if !landed.seen.frozen.Load() {
			folds++
		}
		if len(landed.kidx.all) != len(chainCols) {
			t.Fatalf("generation %d: %d key indexes carried over, want %d", generations, len(landed.kidx.all), len(chainCols))
		}
		if relabel {
			for _, u := range del {
				landed.Delete(u)
			}
			for _, u := range ins {
				landed.Insert(u) //nolint:errcheck // arity matches
			}
		}
		child := &chainGen{r: landed, model: map[string]Tuple{}}
		for k, v := range cur.model {
			child.model[k] = v
		}
		for _, u := range del {
			delete(child.model, u.Key())
		}
		for _, u := range ins {
			child.model[u.Key()] = u
		}

		// An in-place edit of either side, or of both, after the fork stays
		// on that side.
		if where, ok := next(); ok && where%8 < 6 {
			edit := func(g *chainGen) {
				u := pick()
				if where%2 == 0 {
					g.r.Insert(u) //nolint:errcheck // arity matches
					g.model[u.Key()] = u
				} else {
					g.r.Delete(u)
					delete(g.model, u.Key())
				}
			}
			if where%8 < 2 || where%8 >= 4 {
				edit(cur)
				cur.check(t, generations-1, universe)
				cur.digest = chainDigest(cur.r, universe)
			}
			if where%8 >= 2 {
				edit(child)
			}
		}
		child.check(t, generations, universe)
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

// TestWithDeltaChain runs a seeded script of some 330 generations.
func TestWithDeltaChain(t *testing.T) {
	script := make([]byte, 6_500)
	rand.New(rand.NewSource(20)).Read(script)
	generations, folds := runDeltaChain(t, script)
	t.Logf("%d generations, %d folds", generations, folds)
	if generations < 300 || folds < 3 {
		t.Errorf("%d generations crossed %d folds; want at least 300 and 3", generations, folds)
	}
}

// FuzzWithDeltaChain is the same body over an arbitrary op script.
func FuzzWithDeltaChain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 7, 1, 7, 2, 9, 0, 4})                        // insert, delete, delete+reinsert, edit the parent
	f.Add([]byte{31, 2, 0, 5, 1, 2, 0, 200, 0, 201, 2, 5})          // empty the relation, edit the child, refill
	f.Add([]byte{2, 3, 0, 4, 0, 9, 9, 2, 3, 0, 3, 0, 1, 17, 31, 7}) // swap-moves, then empty

	// A full page, its last row deleted; 33 rows, the tail page emptied; two
	// full pages, the last row deleted; the relation emptied, then Relabel
	// forks of the empty relation filled in place on both sides.
	f.Add([]byte{30, 1, 6, 1, 4, 6, 30, 2, 6, 1, 4, 6, 30, 3, 6, 1, 4, 6, 63, 4, 4, 4, 6, 61, 5, 10, 20, 4, 30, 40, 61, 5, 11, 21, 5, 31, 41})
	// Relabel forks of a full relation, each batch and a two-sided edit in place.
	f.Add([]byte{61, 2, 7, 4, 9, 12, 125, 5, 1, 2, 5, 3, 4, 0, 5, 1, 6, 3, 4, 40, 50, 221, 4, 5, 8, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		runDeltaChain(t, script)
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
			under7 := cur.KeyIndex([]int{0}).Get(TupleKey(Tuple{Int(7)}, []int{0}))
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
