package exec

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/esql"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/space"
)

// joinKeyDomains are the key values the join oracle draws from, each small
// enough that key groups repeat: typed columns of each kind, and a mixed
// one whose cells are boxed. Equality is strict: Int(1) ≠ Float(1), NaN
// matches NaN, +0 and -0 stay apart, and string pairs that a "|"-joined
// key would spell alike stay apart.
var joinKeyDomains = [][]relation.Value{
	{relation.Int(0), relation.Int(1), relation.Int(2)},
	{relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(1), relation.Float(math.NaN())},
	{relation.String(""), relation.String("a"), relation.String("a|s"), relation.String("|s"), relation.String("s|")},
	{relation.Int(1), relation.Float(1), relation.Null, relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1)),
		relation.Float(0), relation.String("a|s"), relation.String("|s")},
}

// checkJoinOracle decodes a scenario from script — two relations R(K1, K2,
// P) and S(K1, K2, Q) over one key domain, S (and at times R) carried
// through a chain of WithDelta batches after its key indexes were
// memoized, so the indexes' young generations answer some probes — and
// joins them on K1, or on K1 and K2, three ways: a hash join probing S's
// borrowed index, one indexing its smaller input itself, and
// EvaluateNaive. The two hash joins must agree as bags, and each, as a set
// projected to the view, with the reference; so must the compiled plan
// (Evaluate). It returns the number of rows the joins matched.
func checkJoinOracle(t *testing.T, script []byte) int {
	at := 0
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[at%len(script)]
		at++
		return int(b)
	}
	dom := joinKeyDomains[next()%len(joinKeyDomains)]
	twoKeys := next()%2 == 1
	row := func(payload int) relation.Tuple {
		return relation.Tuple{dom[next()%len(dom)], dom[next()%len(dom)], relation.Int(int64(payload))}
	}
	build := func(name, payload string, land bool) *relation.Relation {
		schema := relation.NewSchema(relation.Attribute{Name: "K1"}, relation.Attribute{Name: "K2"},
			relation.Attribute{Name: payload, Type: relation.TypeInt})
		r := relation.New(name, schema)
		for i := range next() % 24 {
			r.Insert(row(i % 5)) //nolint:errcheck // arity matches
		}
		r.Seal()
		if !land {
			return r
		}
		r.KeyIndex([]int{0})
		r.KeyIndex([]int{0, 1})
		for range 1 + next()%3 {
			var ins, del []relation.Tuple
			for range next() % 6 {
				ins = append(ins, row(next()%5))
			}
			if rows := r.Tuples(); len(rows) > 0 {
				for range next() % 4 {
					del = append(del, rows[next()%len(rows)])
				}
			}
			var err error
			if r, err = r.WithDelta(ins, del); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	r := build("R", "P", next()%2 == 1)
	s := build("S", "Q", true)

	src := `CREATE VIEW J AS SELECT R.K1, R.K2, R.P, S.Q FROM R, S WHERE R.K1 = S.K1`
	keys := []relation.Clause{relation.AttrAttr("R.K1", relation.OpEQ, "S.K1")}
	if twoKeys {
		src += ` AND R.K2 = S.K2`
		keys = append(keys, relation.AttrAttr("R.K2", relation.OpEQ, "S.K2"))
	}
	bag := func(transient bool) map[string]int {
		rs := plan.UnboundScan(r.Schema(), r.Name, "R").Bind(r, r.Card())
		ss := plan.UnboundScan(s.Schema(), s.Name, "S").Bind(s, s.Card())
		var right plan.Node = ss
		if transient {
			var err error
			if right, err = plan.NewFilter(ss, relation.And{}, s.Card()); err != nil {
				t.Fatal(err)
			}
		}
		j, err := plan.NewHashJoin(rs, right, keys, nil, r.Card())
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.ExecuteBag(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for _, u := range out.Tuples() {
			m[cellsKey(u[0], u[1], u[2], u[5])]++
		}
		return m
	}
	borrowed, transient := bag(false), bag(true)

	// The blocked probe against Probe row by row, with R's rows as the
	// probe side: over S's landed indexes, whose young generations answer
	// some of a block, R's (landed or flat), and a flat index over S's rows.
	flatS := relation.MustFromRows("S", s.Schema(), s.Tuples()...)
	block := 1 + next()%relation.BlockRows
	for _, key := range [][]int{{0}, {0, 1}} {
		for _, ix := range []*relation.Relation{s, r, flatS} {
			checkBlockProbe(t, ix.KeyIndex(key), r, key, block)
		}
	}

	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*relation.Relation{r, s} {
		if err := sp.AddRelation("IS1", rel); err != nil {
			t.Fatal(err)
		}
	}
	v := esql.MustParse(src)
	naive, err := EvaluateNaive(v, sp)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := Evaluate(context.Background(), v, sp)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, u := range naive.Tuples() {
		want[cellsKey(u...)] = 1
	}
	asSet := func(m map[string]int) map[string]int {
		out := make(map[string]int, len(m))
		for k := range m {
			out[k] = 1
		}
		return out
	}
	for name, got := range map[string]map[string]int{"borrowed": asSet(borrowed), "transient": asSet(transient)} {
		if !sameCounts(got, want) {
			t.Fatalf("%s hash join %v != naive %v\nR:\n%s\nS:\n%s", name, got, want, r, s)
		}
	}
	if !sameCounts(borrowed, transient) {
		t.Fatalf("borrowed-index bag %v != transient-index bag %v\nR:\n%s\nS:\n%s", borrowed, transient, r, s)
	}
	if planned.Card() != naive.Card() || !planned.Equal(naive) {
		t.Fatalf("compiled plan:\n%s\nnaive:\n%s", planned, naive)
	}
	matched := 0
	for _, n := range borrowed {
		matched += n
	}
	return matched
}

// checkBlockProbe holds KeyIndex.ProbeBlock, over blocks of block hashes,
// to Probe row by row: the same candidate pairs in the same order, probing
// ix with the cells of every row of probe at key.
func checkBlockProbe(t *testing.T, ix *relation.KeyIndex, probe *relation.Relation, key []int, block int) {
	t.Helper()
	b := probe.Columns()
	cols := make([]*relation.Column, len(key))
	for i, c := range key {
		cols[i] = b.Col(c)
	}
	n := b.Rows()
	var gotB, gotP, wantB, wantP []int32
	hs := make([]uint64, block)
	for lo := 0; lo < n; lo += block {
		blk := hs[:min(block, n-lo)]
		relation.HashRows(cols, nil, lo, blk)
		gotB, gotP = ix.ProbeBlock(gotB, gotP, blk, lo)
	}
	for p := range n {
		h := relation.HashSeed
		for _, col := range cols {
			h = col.Hash(p, h)
		}
		for wantB = ix.Probe(wantB, h); len(wantP) < len(wantB); {
			wantP = append(wantP, int32(p))
		}
	}
	if !slices.Equal(gotB, wantB) || !slices.Equal(gotP, wantP) {
		t.Fatalf("key %v, blocks of %d: ProbeBlock pairs (%v, %v), Probe row by row (%v, %v)", key, block, gotB, gotP, wantB, wantP)
	}
}

// cellsKey spells cells as their quoted type-and-text strings, an injective
// test-side encoding (the text keeps -0's sign).
func cellsKey(cells ...relation.Value) string {
	var b []byte
	for _, c := range cells {
		b = strconv.AppendQuote(b, c.Type().String()+":"+c.Text())
	}
	return string(b)
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestJoinIndexOracle runs the join oracle over seeded scripts: every key
// domain, one and two keys, R plain and landed.
func TestJoinIndexOracle(t *testing.T) {
	matched := 0
	for seed := range 200 {
		script := make([]byte, 96)
		rand.New(rand.NewSource(int64(seed))).Read(script)
		script[0], script[1] = byte(seed), byte(seed/4)
		matched += checkJoinOracle(t, script)
	}
	if matched == 0 {
		t.Fatal("no script joined a row; the oracle is vacuous")
	}
}

// FuzzJoinIndexOracle is the join oracle over an arbitrary script.
func FuzzJoinIndexOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 0, 23, 3, 3, 3, 2, 2, 1, 0, 7, 7, 5})
	f.Add([]byte{2, 1, 1, 18, 4, 3, 2, 1, 0, 9, 8, 7, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			t.Skip()
		}
		checkJoinOracle(t, script)
	})
}
