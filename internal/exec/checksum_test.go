package exec_test

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/relation"
)

// rowChecksumOracle is the checksum's definition restated tuple at a time:
// force the tuple image, hash the column names as one boxed string row and
// each row as boxed cells (relation.HashTuple), and sum the finalized terms.
// exec.RowChecksum must return the same bits for every relation in every
// physical form — over a batch it reads the typed vectors, so this is a
// typed-against-boxed differential of the row hash.
func rowChecksumOracle(r *relation.Relation) uint64 {
	var nameRow relation.Tuple
	for _, n := range r.Schema().Names() {
		nameRow = append(nameRow, relation.String(n))
	}
	names := relation.HashTuple(nameRow)
	var sum uint64
	for _, t := range r.Tuples() {
		sum += fmix64(relation.HashTuple(t) ^ names)
	}
	return sum
}

// fmix64 is the murmur3 64-bit finalizer, written out from its reference.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// sortedOracle is Relation.Sorted as it was written before SortedOrder:
// copy the tuples and sort.Slice them cell by cell with Value.Compare.
func sortedOracle(r *relation.Relation) []relation.Tuple {
	out := append([]relation.Tuple(nil), r.Tuples()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// physicalForms builds the same rows as every physical form a consumer can
// meet: columnar-born, distinct-row tuple-backed, insert-built, insert-built
// with an ingested batch cached, and rebound / renamed views of those.
func physicalForms(t testing.TB, names []string, rows []relation.Tuple) map[string]*relation.Relation {
	t.Helper()
	schema := relation.MustSchema(relation.TypeInt, names...)
	inserted := relation.New("R", schema)
	for _, row := range rows {
		if err := inserted.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	// Insert deduplicated; the deferred-index constructors require that.
	distinct := inserted.Tuples()
	copyRows := func() []relation.Tuple { return append([]relation.Tuple(nil), distinct...) }
	born := relation.FromColumns("R", schema, relation.NewColumnBatch(distinct, schema.Len()))
	cached := relation.FromDistinctRows("R", schema, copyRows())
	cached.Columns()

	renamed := make([]string, len(names))
	for i, n := range names {
		renamed[i] = "q." + n
	}
	rebind := func(r *relation.Relation, name string, schema *relation.Schema) *relation.Relation {
		out, err := r.Rebind(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return map[string]*relation.Relation{
		"FromColumns":          born,
		"FromDistinctRows":     relation.FromDistinctRows("R", schema, copyRows()),
		"New+Insert":           inserted,
		"cached-batch":         cached,
		"FromColumns/Rebind":   rebind(born, "Q", relation.MustSchema(relation.TypeInt, renamed...)),
		"New+Insert/Rebind":    rebind(inserted, "Q", relation.MustSchema(relation.TypeInt, renamed...)),
		"FromColumns/renamed":  rebind(born, "other", schema),
		"FromDistinct/renamed": rebind(relation.FromDistinctRows("R", schema, copyRows()), "other", schema),
	}
}

// checkConsumers asserts, for every physical form of the rows, that the
// checksum equals the oracle's and that SortedOrder lists the rows exactly
// as the oracle sort does.
func checkConsumers(t testing.TB, names []string, rows []relation.Tuple) {
	t.Helper()
	for form, r := range physicalForms(t, names, rows) {
		got := exec.RowChecksum(r) // before the oracle forces tuples
		order := r.SortedOrder()
		if want := rowChecksumOracle(r); got != want {
			t.Fatalf("%s: RowChecksum = %016x, oracle %016x\n%s", form, got, want, r)
		}
		want := sortedOracle(r)
		if len(order) != len(want) {
			t.Fatalf("%s: SortedOrder has %d rows, want %d", form, len(order), len(want))
		}
		for i, p := range order {
			if g, w := r.Tuples()[p], want[i]; !sameRow(g, w) {
				t.Fatalf("%s: sorted row %d = %v, oracle %v", form, i, g, w)
			}
		}
		for i, row := range r.Sorted() {
			if g, w := row, want[i]; !sameRow(g, w) {
				t.Fatalf("%s: Sorted()[%d] = %v, oracle %v", form, i, g, w)
			}
		}
	}
}

// nanWithPayload returns a NaN whose mantissa carries the given payload;
// the typed key collapses them all to one key.
func nanWithPayload(p uint64) float64 {
	return math.Float64frombits(0x7FF0000000000001 | p&0x000FFFFFFFFFFFFF)
}

func TestRowChecksumMatchesOracle(t *testing.T) {
	I, F, S, B, N := relation.Int, relation.Float, relation.String, relation.Bool, relation.Null
	cases := []struct {
		name  string
		names []string
		rows  []relation.Tuple
	}{
		{"empty", []string{"A", "B"}, nil},
		{"zero-width empty", nil, nil},
		{"zero-width one row", nil, []relation.Tuple{{}}},
		{"ints", []string{"A"}, []relation.Tuple{
			{I(0)}, {I(-1)}, {I(9)}, {I(10)}, {I(99)}, {I(100)}, {I(-100)},
			{I(math.MaxInt64)}, {I(math.MinInt64)}, {I(math.MinInt64 + 1)},
			{I(1 << 53)}, {I(1<<53 + 1)}, {I(-(1 << 53))}, {I(-(1 << 53) - 1)},
		}},
		{"floats", []string{"F"}, []relation.Tuple{
			{F(0)}, {F(math.Copysign(0, -1))}, {F(1)}, {F(-1)}, {F(0.1)}, {F(1e300)}, {F(-1e-300)},
			{F(math.Inf(1))}, {F(math.Inf(-1))}, {F(math.NaN())},
			{F(math.SmallestNonzeroFloat64)}, {F(-math.SmallestNonzeroFloat64)},
			{F(math.Float64frombits(0x000FFFFFFFFFFFFF))}, {F(math.MaxFloat64)},
		}},
		{"nan payloads", []string{"K", "F"}, []relation.Tuple{
			{I(1), F(nanWithPayload(0))}, {I(2), F(nanWithPayload(0xDEADBEEF))},
			{I(3), F(-nanWithPayload(7))}, {I(4), F(math.NaN())},
		}},
		{"strings", []string{"S", "T"}, []relation.Tuple{
			{S(""), S("x")}, {S("\x1e"), S("\x1f")}, {S("a\x1eb"), S("")}, {S("a"), S("\x1eb")},
			{S("s1"), S("i1")}, {S("héllo"), S("\xff\xfe")}, {S("_"), S("b1")},
		}},
		{"bools", []string{"B", "C"}, []relation.Tuple{
			{B(true), B(false)}, {B(false), B(true)}, {B(true), B(true)}, {B(false), B(false)},
		}},
		{"nulls", []string{"A", "B"}, []relation.Tuple{
			{N, N}, {N, I(1)}, {I(1), N}, {S("_"), N},
		}},
		{"mixed kinds", []string{"M", "K"}, []relation.Tuple{
			{I(1), I(1)}, {F(1), I(2)}, {S("1"), I(3)}, {B(true), I(4)}, {N, I(5)},
			{S("i1"), I(6)}, {F(math.NaN()), I(7)}, {I(1 << 53), I(8)}, {F(1 << 53), I(9)},
		}},
		{"all kinds", []string{"I", "F", "S", "B", "N"}, []relation.Tuple{
			{I(1), F(1.5), S("a"), B(true), N},
			{I(2), F(-2.5), S("b"), B(false), N},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkConsumers(t, c.names, c.rows) })
	}

	// A thousand rows over every scalar kind (the subtest keeps the name it
	// had when the kernel hashed 256-row chunks).
	var wide []relation.Tuple
	for i := 0; i < 1000; i++ {
		wide = append(wide, relation.Tuple{I(int64(i)), F(float64(i) / 3), S(fmt.Sprint("s", i%17)), B(i%3 == 0), I(int64(i % 7))})
	}
	t.Run("chunked", func(t *testing.T) { checkConsumers(t, []string{"A", "B", "C", "D", "E"}, wide) })
}

// TestRowChecksumStringFraming pins the framing of string cells: these two
// one-row relations spell the same bytes when a string is written without
// its length, because the second row moves a separator, a column name and a
// type tag from one cell into the other.
func TestRowChecksumStringFraming(t *testing.T) {
	S := relation.String
	schema := relation.MustSchema(relation.TypeString, "A", "B")
	a := []relation.Tuple{{S("x"), S("y\x1eB\x1fsz")}}
	b := []relation.Tuple{{S("x\x1eB\x1fsy"), S("z")}}
	forms := map[string]func([]relation.Tuple) *relation.Relation{
		"rows": func(rows []relation.Tuple) *relation.Relation { return relation.FromDistinctRows("R", schema, rows) },
		"columnar": func(rows []relation.Tuple) *relation.Relation {
			return relation.FromColumns("R", schema, relation.NewColumnBatch(rows, 2))
		},
	}
	for form, build := range forms {
		ra, rb := build(a), build(b)
		if ra.Equal(rb) {
			t.Fatalf("%s: the relations compare Equal", form)
		}
		if x, y := exec.RowChecksum(ra), exec.RowChecksum(rb); x == y {
			t.Errorf("%s: RowChecksum = %016x for both relations", form, x)
		}
	}
}

// checkSeparates asserts that distinct rows, each as a one-row relation,
// checksum apart.
func checkSeparates(t testing.TB, names []string, rows []relation.Tuple) {
	t.Helper()
	schema := relation.MustSchema(relation.TypeInt, names...)
	sums := make([]uint64, len(rows))
	for i, row := range rows {
		sums[i] = exec.RowChecksum(relation.FromDistinctRows("R", schema, []relation.Tuple{row}))
	}
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if sums[i] == sums[j] && !sameRow(rows[i], rows[j]) {
				t.Fatalf("rows %v and %v both checksum to %016x", rows[i], rows[j], sums[i])
			}
		}
	}
}

// decodeRows turns fuzz bytes into a small relation: a width, one kind byte
// per column (a uniform scalar kind, or per-cell kinds for a mixed column),
// then cells until the input runs out.
func decodeRows(data []byte) (names []string, rows []relation.Tuple) {
	next := func(n int) []byte {
		if len(data) < n {
			pad := make([]byte, n)
			copy(pad, data)
			data = nil
			return pad
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	width := int(next(1)[0] % 5)
	kinds := make([]byte, width)
	for c := range kinds {
		names = append(names, fmt.Sprintf("c%d", c))
		kinds[c] = next(1)[0] % 6
	}
	cell := func(kind byte) relation.Value {
		if kind == 5 {
			kind = next(1)[0] % 5
		}
		switch kind {
		case 1:
			return relation.Int(int64(binary.LittleEndian.Uint64(next(8))))
		case 2:
			return relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
		case 3:
			return relation.String(string(next(int(next(1)[0] % 6))))
		case 4:
			return relation.Bool(next(1)[0]&1 == 1)
		default:
			return relation.Null
		}
	}
	for len(data) > 0 && len(rows) < 64 {
		row := make(relation.Tuple, width)
		for c := range row {
			row[c] = cell(kinds[c])
		}
		rows = append(rows, row)
	}
	return names, rows
}

func FuzzRowChecksum(f *testing.F) {
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	minInt := uint64(1) << 63
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})                                                                    // zero-width rows
	f.Add(cat([]byte{1, 1}, le(minInt), le(0), le(math.MaxUint64), le(1<<53), le(1<<53+1)))      // ints
	f.Add(cat([]byte{1, 2}, le(0x7FF8000000000001), le(0xFFF0000000000001), le(1<<63), le(0)))   // NaNs, ±0
	f.Add(cat([]byte{1, 2}, le(0x7FF0000000000000), le(0xFFF0000000000000), le(1), le(1<<63|1))) // ±Inf, subnormals
	f.Add([]byte{2, 3, 3, 1, 0x1e, 1, 0x1f, 0, 2, 'a', 0x1e, 3, 0x1f, 'b', 0x1e, 0, 0})          // separator strings
	f.Add([]byte{2, 4, 0, 1, 0, 0, 1, 1})                                                        // bools and NULLs
	f.Add([]byte{2, 3, 3, 0, 5, 0x1e, 'c', '1', 0x1f, 's', 5, 0x1e, 'c', '1', 0x1f, 's', 0})     // string framing: ("", "\x1ec1\x1fs") vs ("\x1ec1\x1fs", "")
	f.Add(cat([]byte{2, 5, 1, 1}, le(1), le(7), []byte{2}, le(0x3FF0000000000000), le(8), []byte{3, 1, '1'}, le(9), []byte{0}, le(10)))
	f.Fuzz(func(t *testing.T, data []byte) {
		names, rows := decodeRows(data)
		checkConsumers(t, names, rows)
		checkSeparates(t, names, rows)
	})
}

// deltaUniverse is the rows a WithDelta chain draws from: pairwise distinct
// under the typed key, over every scalar kind, NULL, NaN, ±0 and strings
// that frame alike when spelled without their lengths.
func deltaUniverse() []relation.Tuple {
	as := []relation.Value{
		relation.Int(0), relation.Int(1), relation.Int(-1), relation.Int(math.MinInt64),
		relation.Float(1), relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(math.NaN()),
		relation.String(""), relation.String("1"), relation.String("a|s"), relation.String("|s"),
		relation.Bool(true), relation.Bool(false), relation.Null, relation.Float(math.Inf(1)),
	}
	bs := []relation.Value{relation.Int(0), relation.Int(1), relation.String("s"), relation.Null}
	var out []relation.Tuple
	for _, a := range as {
		for _, b := range bs {
			out = append(out, relation.Tuple{a, b})
		}
	}
	return out
}

// checkDeltaHomomorphic runs script as a chain of WithDelta batches and
// asserts at every generation that the checksum moved by exactly the
// one-row checksums of the rows the batch really inserted, less those of
// the rows it really deleted, as a set of universe positions decides them
// (deletes land before inserts, so a row in both ends up held). A batch's
// first byte gives its size, and with bit 3 set the result's column batch
// is ingested before it is checksummed, so both read paths are crossed.
func checkDeltaHomomorphic(t testing.TB, script []byte) {
	t.Helper()
	universe := deltaUniverse()
	schema := relation.MustSchema(relation.TypeInt, "A", "B")
	one := func(u int) uint64 {
		return exec.RowChecksum(relation.FromDistinctRows("R", schema, []relation.Tuple{universe[u]}))
	}
	r, held := relation.New("R", schema), map[int]bool{}
	for gen := 0; len(script) > 0; gen++ {
		head := script[0]
		script = script[1:]
		var ins, del []relation.Tuple
		before := maps.Clone(held)
		var dels, inss []int
		for k := 0; k < int(head%8) && len(script) > 0; k++ {
			u := int(script[0]>>1) % len(universe)
			if script[0]&1 == 0 {
				ins, inss = append(ins, universe[u]), append(inss, u)
			} else {
				del, dels = append(del, universe[u]), append(dels, u)
			}
			script = script[1:]
		}
		for _, u := range dels {
			delete(held, u)
		}
		for _, u := range inss {
			held[u] = true
		}
		want := exec.RowChecksum(r)
		for u := range held {
			if !before[u] {
				want += one(u)
			}
		}
		for u := range before {
			if !held[u] {
				want -= one(u)
			}
		}
		next, err := r.WithDelta(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if head&8 != 0 {
			next.Columns()
		}
		if got := exec.RowChecksum(next); got != want {
			t.Fatalf("generation %d (+%d −%d): RowChecksum = %016x, parent plus the rows that moved %016x", gen, len(ins), len(del), got, want)
		}
		if next.Card() != len(held) {
			t.Fatalf("generation %d: card %d, model holds %d", gen, next.Card(), len(held))
		}
		r = next
	}
	if got, want := exec.RowChecksum(r), rowChecksumOracle(r); got != want {
		t.Fatalf("chain end: RowChecksum = %016x, oracle %016x", got, want)
	}
}

// TestRowChecksumHomomorphicOverWithDelta holds the checksum to the
// algebra a carried checksum relies on: landing a batch adds the one-row
// checksums of what it inserted and subtracts those of what it deleted.
func TestRowChecksumHomomorphicOverWithDelta(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	script := make([]byte, 4000)
	for i := range script {
		script[i] = byte(rng.Uint32())
	}
	checkDeltaHomomorphic(t, script)
}

func FuzzRowChecksumWithDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 0, 2, 4, 1, 1})                      // insert three read off their batch, delete one
	f.Add([]byte{2, 14, 15, 10, 14, 15, 2, 14, 15})       // delete and reinsert one row in one batch, both read paths
	f.Add([]byte{7, 0, 0, 2, 2, 1, 1, 3, 15, 1, 3, 5, 7}) // duplicate inserts, deletes of absent rows
	f.Add([]byte{4, 80, 82, 88, 90, 12, 81, 83, 89, 91})  // string rows framed alike, in and out
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		checkDeltaHomomorphic(t, script)
	})
}

// consumerFixture is a 5k-row × 5-column result in the shape join-scan
// produces, as tuples.
func consumerFixture() (*relation.Schema, []relation.Tuple) {
	schema := relation.MustSchema(relation.TypeInt, "R1.A", "R1.B", "R2.C", "R3.D", "R4.E")
	rows := make([]relation.Tuple, 5000)
	for i := range rows {
		rows[i] = relation.Tuple{
			relation.Int(int64(i)), relation.Int(int64(i * 7 % 10007)), relation.Float(float64(i) / 8),
			relation.String(fmt.Sprint("v", i%97)), relation.Int(int64(i % 13)),
		}
	}
	return schema, rows
}

// firstCallAllocs reports what the first call of f allocates.
// testing.AllocsPerRun runs f once unmeasured before the measured run, so
// that warm-up call is skipped.
func firstCallAllocs(f func()) float64 {
	calls := 0
	return testing.AllocsPerRun(1, func() {
		if calls++; calls == 2 {
			f()
		}
	})
}

// TestRowChecksumAllocsAndSideEffects pins what the checksum costs and what
// it leaves alone: at most two allocations on a columnar-born result, no
// ingested batch on a tuple-backed one, and no tuple image or dedup index on
// a columnar-born one.
func TestRowChecksumAllocsAndSideEffects(t *testing.T) {
	schema, rows := consumerFixture()
	born := relation.FromColumns("Q", schema, relation.NewColumnBatch(rows, schema.Len()))
	var sink uint64
	if n := testing.AllocsPerRun(10, func() { sink += exec.RowChecksum(born) }); n > 2 {
		t.Errorf("RowChecksum on a columnar-born 5k×5 result: %v allocs/run, want ≤ 2", n)
	}
	if n := firstCallAllocs(func() { born.Tuples() }); n == 0 {
		t.Error("RowChecksum materialised the tuple image of a columnar-born relation")
	}
	if n := firstCallAllocs(func() { born.Contains(rows[0]) }); n == 0 { // a built index answers with no allocation
		t.Errorf("RowChecksum built the dedup index of a columnar-born relation (first Contains: %v allocs)", n)
	}

	backed := relation.FromDistinctRows("Q", schema, rows)
	if n := testing.AllocsPerRun(10, func() { sink += exec.RowChecksum(backed) }); n > 2 {
		t.Errorf("RowChecksum on a tuple-backed 5k×5 result: %v allocs/run, want ≤ 2", n)
	}
	if backed.CachedColumns() != nil {
		t.Error("RowChecksum ingested and cached a column batch on a tuple-backed relation")
	}
	if got, want := exec.RowChecksum(backed), exec.RowChecksum(born); got != want {
		t.Errorf("forms disagree: tuple-backed %016x, columnar-born %016x", got, want)
	}
}

// TestSortedOrderSideEffects pins the same for the sort: a columnar-born
// result is ordered without its tuples, a tuple-backed one without a batch.
func TestSortedOrderSideEffects(t *testing.T) {
	schema, rows := consumerFixture()
	born := relation.FromColumns("Q", schema, relation.NewColumnBatch(rows, schema.Len()))
	born.SortedOrder()
	if n := firstCallAllocs(func() { born.Tuples() }); n == 0 {
		t.Error("SortedOrder materialised the tuple image of a columnar-born relation")
	}
	backed := relation.FromDistinctRows("Q", schema, rows)
	backed.SortedOrder()
	if backed.CachedColumns() != nil {
		t.Error("SortedOrder ingested and cached a column batch on a tuple-backed relation")
	}
}

func BenchmarkRowChecksum(b *testing.B) {
	schema, rows := consumerFixture()
	ints := make([]relation.Tuple, len(rows)) // join-scan's result shape
	for i := range ints {
		k := int64(i + 4500)
		ints[i] = relation.Tuple{relation.Int(k), relation.Int(k), relation.Int(2 * k), relation.Int(3 * k), relation.Int(4 * k)}
	}
	forms := map[string]*relation.Relation{
		"columnar":      relation.FromColumns("Q", schema, relation.NewColumnBatch(rows, schema.Len())),
		"columnar-ints": relation.FromColumns("Q", schema, relation.NewColumnBatch(ints, schema.Len())),
		"tuples":        relation.FromDistinctRows("Q", schema, rows),
	}
	for name, r := range forms {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for b.Loop() {
				sink += exec.RowChecksum(r)
			}
			_ = sink
		})
	}
}

// sameRow reports whether two tuples agree cell by cell under the strict
// typed key.
func sameRow(a, b relation.Tuple) bool {
	return slices.EqualFunc(a, b, relation.ValueKeyEqual)
}
