package plan

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
)

// TestIndexLookupBuildsNoFlatImage pins that a hash join probing a base
// relation's borrowed index with a small input reads the rows it matched
// one at a time: 16 keys looked up in a freshly landed 64k-row relation
// must leave both the relation's flat image (Tuples) and its columnar form
// unbuilt, or every hop of a maintenance batch would copy or ingest the
// relation.
func TestIndexLookupBuildsNoFlatImage(t *testing.T) {
	const n = 64_000
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i))}
	}
	base := relation.FromDistinctRows("R", relation.MustSchema(relation.TypeInt, "K", "A"), rows)
	base.KeyIndex([]int{0})
	delta := make([]relation.Tuple, 16)
	for k := range delta {
		delta[k] = relation.Tuple{relation.Int(int64(k * 7)), relation.Int(-1)}
	}
	landed, err := base.WithDelta(delta, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan := scanOf(landed, "R", landed.Card())
	left, err := NewBatchScan(relation.MustSchema(relation.TypeInt, "D.K", "D.A"), relation.NewColumnBatch(delta, 2))
	if err != nil {
		t.Fatal(err)
	}
	lookup, err := NewHashJoin(left, scan, []relation.Clause{relation.AttrAttr("D.K", relation.OpEQ, "R.K")}, nil, len(delta))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecuteBag(context.Background(), lookup)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2*len(delta) { // every key holds its old row and the landed one
		t.Fatalf("lookup matched %d rows, want %d", out.Rows(), 2*len(delta))
	}
	if landed.CachedColumns() != nil {
		t.Error("the probe hop ingested the landed relation into columns")
	}
	calls := 0
	if allocs := testing.AllocsPerRun(1, func() {
		if calls++; calls == 2 {
			landed.Tuples()
		}
	}); allocs == 0 {
		t.Error("the probe hop built the landed relation's flat image")
	}
}

// TestIndexLookupMatchesHashJoin is the bag differential of the hash join's
// two index sources: over the same delta leaf, scanned relation, keys and
// residual, ExecuteBag of the join probing the bare scan's borrowed index
// (Relation.KeyIndex) must equal, as a multiset, ExecuteBag of the join
// whose scan sits under a pass-through filter, so that it indexes the
// smaller input itself (relation.IndexRows). Both group keys by strict
// typed-key equality — Column.Hash confirmed by KeyEqual — so Int(1) and
// Float(1) never match, NaN matches NaN, +0 and -0 stay apart, and
// two-column keys that a "|"-joined string would spell alike (("a|s", "")
// and ("a", "|s")) stay apart. The landed storage answers some probes from
// its index's young generation.
func TestIndexLookupMatchesHashJoin(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	domains := map[string][]relation.Value{
		"int":   {relation.Int(0), relation.Int(1), relation.Int(2), relation.Int(3)},
		"float": {relation.Float(0), relation.Float(negZero), relation.Float(1), relation.Float(nan), relation.Float(2.5)},
		"string": {relation.String(""), relation.String("a"), relation.String("b"), relation.String("c"),
			relation.String("|"), relation.String("sa"), relation.String("s|"), relation.String("a|s"),
			relation.String("|s"), relation.String("\x1e"), relation.String("\x1f")},
		"mixed": {relation.Int(1), relation.Float(1), {}, relation.Float(nan), relation.Float(negZero),
			relation.Float(0), relation.String("a"), relation.String("a|s"), relation.String("|s"),
			relation.String("s|"), relation.String("\x1e")},
	}
	storages := map[string]func(rows []relation.Tuple, rng *rand.Rand) *relation.Relation{
		"landed": func(rows []relation.Tuple, rng *rand.Rand) *relation.Relation {
			base := relation.FromDistinctRows("R", scanSchema, rows[:len(rows)-8])
			base.KeyIndex([]int{0})
			base.KeyIndex([]int{0, 1})
			var del []relation.Tuple
			for range 8 {
				del = append(del, rows[rng.Intn(len(rows)-8)])
			}
			landed, err := base.WithDelta(rows[len(rows)-8:], del)
			if err != nil {
				t.Fatal(err)
			}
			return landed
		},
		"columnar": func(rows []relation.Tuple, _ *rand.Rand) *relation.Relation {
			return relation.FromColumns("R", scanSchema, relation.NewColumnBatch(rows, scanSchema.Len()))
		},
	}
	keySets := map[string][]relation.Clause{
		"one": {relation.AttrAttr("D.K1", relation.OpEQ, "R.K1")},
		"two": {relation.AttrAttr("D.K1", relation.OpEQ, "R.K1"),
			relation.AttrAttr("D.K2", relation.OpEQ, "R.K2")},
	}
	residuals := map[string]relation.And{
		"none":  nil,
		"scan":  {relation.AttrConst("R.P", relation.OpGE, relation.Int(20))},
		"cross": {relation.AttrAttr("D.X", relation.OpLT, "R.P")},
	}

	matched := 0
	seed := int64(0)
	for kind, dom := range domains {
		for store, build := range storages {
			for _, leftRows := range []int{0, 1, 16, 300} {
				seed++
				rng := rand.New(rand.NewSource(seed))
				pick := func() relation.Value { return dom[rng.Intn(len(dom))] }
				rows := make([]relation.Tuple, 72)
				for i := range rows {
					rows[i] = relation.Tuple{pick(), pick(), relation.Int(int64(i))}
				}
				scanned := build(rows, rng)
				delta := make([]relation.Tuple, leftRows)
				for i := range delta {
					if i%5 == 4 { // a duplicate row, not only a duplicate key
						delta[i] = delta[i-1]
						continue
					}
					delta[i] = relation.Tuple{pick(), pick(), relation.Int(int64(rng.Intn(60)))}
				}
				batch := relation.NewColumnBatch(delta, deltaSchema.Len())
				for keyName, keys := range keySets {
					for resName, residual := range residuals {
						name := fmt.Sprintf("%s/%s/left=%d/keys=%s/residual=%s", kind, store, leftRows, keyName, resName)
						borrowed, transient := bagPair(t, scanned, batch, keys, residual)
						if !maps.Equal(borrowed, transient) {
							t.Errorf("%s: borrowed-index bag %v != transient-index bag %v", name, borrowed, transient)
						}
						for _, c := range transient {
							matched += c
						}
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no case matched any row; the differential is vacuous")
	}
}

var (
	scanSchema = relation.NewSchema(
		relation.Attribute{Name: "K1"}, relation.Attribute{Name: "K2"},
		relation.Attribute{Name: "P", Type: relation.TypeInt})
	deltaSchema = relation.NewSchema(
		relation.Attribute{Name: "D.K1"}, relation.Attribute{Name: "D.K2"},
		relation.Attribute{Name: "D.X", Type: relation.TypeInt})
)

// bagPair runs batch ⋈ scanned through a hash join probing the scan's
// borrowed index and one building a transient index, over the same inputs,
// and returns both results as multisets of tuple keys.
func bagPair(t *testing.T, scanned *relation.Relation, batch *relation.ColumnBatch, keys []relation.Clause, residual relation.And) (borrowed, transient map[string]int) {
	t.Helper()
	bag := func(build func(left *BatchScan, scan *Scan) (Node, error)) map[string]int {
		left, err := NewBatchScan(deltaSchema, batch)
		if err != nil {
			t.Fatal(err)
		}
		scan := scanOf(scanned, "R", scanned.Card())
		node, err := build(left, scan)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ExecuteBag(context.Background(), node)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for _, tu := range out.Tuples() {
			m[rowKey(tu)]++
		}
		return m
	}
	borrowed = bag(func(left *BatchScan, scan *Scan) (Node, error) {
		return NewHashJoin(left, scan, keys, residual, batch.Rows())
	})
	transient = bag(func(left *BatchScan, scan *Scan) (Node, error) {
		through, err := NewFilter(scan, relation.And{}, scan.EstRows())
		if err != nil {
			return nil, err
		}
		return NewHashJoin(left, through, keys, residual, batch.Rows())
	})
	return borrowed, transient
}

// rowKey spells a tuple as its cells' quoted type-and-text strings — an
// injective test-side encoding for counting a bag.
func rowKey(t relation.Tuple) string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(strconv.Quote(v.Type().String() + ":" + v.Text()))
	}
	return b.String()
}

// joinScanPlan compiles the base route of the join-scan benchmark's read:
// three 10k-row relations R1..R3(K, Ai), joined 1:1 on K, under a filter
// on R1 that keeps about half of its rows.
func joinScanPlan(t *testing.T) (*Plan, map[string]*relation.Relation) {
	t.Helper()
	rels, cards := joinScanRels(t)
	q := esql.MustParse(`CREATE VIEW Q AS SELECT R1.K, R1.A1, R2.A2, R3.A3 FROM R1, R2, R3
		WHERE R1.K = R2.K AND R2.K = R3.K AND R1.A1 > 5000`)
	p, err := CompileCatalog(q, staticCatalog{rels: rels, cards: cards})
	if err != nil {
		t.Fatal(err)
	}
	return p, rels
}

// joinScanRels is R1..R3(K, Ai) with 10k rows each, joined 1:1 on K.
func joinScanRels(t *testing.T) (map[string]*relation.Relation, map[string]int) {
	t.Helper()
	const n = 10_000
	rels := map[string]*relation.Relation{}
	cards := map[string]int{}
	for i := int64(1); i <= 3; i++ {
		name := fmt.Sprintf("R%d", i)
		r := relation.New(name, relation.MustSchema(relation.TypeInt, "K", fmt.Sprintf("A%d", i)))
		for j := int64(0); j < n; j++ {
			if err := r.Insert(relation.Tuple{relation.Int(j), relation.Int(j * i)}); err != nil {
				t.Fatal(err)
			}
		}
		r.Seal()
		rels[name], cards[name] = r, n
	}
	return rels, cards
}

// TestBaseJoinBorrowsMemoizedIndex pins what a repeated read over unchanged
// base relations costs: binding the plan memoizes R2's and R3's key indexes
// on K, which prove its root's elision, and every execution probes them,
// builds no hash table sized by a base relation and deduplicates nothing.
// An execution allocates 381 KB, against 589 KB with the root deduplicating
// (a 10k-row dedup table is 128 KB, and its gather vectors as much again).
func TestBaseJoinBorrowsMemoizedIndex(t *testing.T) {
	p, rels := joinScanPlan(t)
	if got, want := p.Root.Label(), "Dedup → Q [elided: R1 drives; R2.K, R3.K unique] [est=12500000]"; got != want {
		t.Fatalf("the root is %q, want %q", got, want)
	}
	ctx := context.Background()
	first, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Card() != 4_999 {
		t.Fatalf("the read returned %d rows, want 4999", first.Card())
	}
	var before, after runtime.MemStats
	indexes := map[string]*relation.KeyIndex{"R2": nil, "R3": nil}
	for name := range indexes {
		runtime.ReadMemStats(&before)
		ix := rels[name].KeyIndex([]int{0})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew != 0 {
			t.Errorf("%s's key index on K was not memoized by the read: getting it allocated %d bytes", name, grew)
		}
		indexes[name] = ix
	}
	const runs = 10
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := p.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for name, ix := range indexes {
		if rels[name].KeyIndex([]int{0}) != ix {
			t.Errorf("%s's key index on K changed across reads", name)
		}
	}
	perExec := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d KB allocated per execution", perExec>>10)
	if perExec > 420<<10 {
		t.Errorf("an execution allocates %d KB, want ≤ 420 KB", perExec>>10)
	}
}

// TestDedupElisionBuildsNoOtherIndex pins that binding a plan reads only the
// key indexes its joins borrow when it runs: binding the join-scan plan
// memoizes R2's and R3's on K and none of R1's, and binding a plan whose
// join probes a filtered R2 — which builds a transient index instead, so
// its root is not elided — memoizes none.
func TestDedupElisionBuildsNoOtherIndex(t *testing.T) {
	built := func(r *relation.Relation) bool {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.KeyIndex([]int{0})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc == before.TotalAlloc
	}
	_, rels := joinScanPlan(t)
	for name, want := range map[string]bool{"R1": false, "R2": true, "R3": true} {
		if got := built(rels[name]); got != want {
			t.Errorf("after the bind, %s's key index on K memoized: %v, want %v", name, got, want)
		}
	}
	rels, cards := joinScanRels(t)
	cards["R1"] = 10 // R1 drives, and the join probes R2 under its filter
	q := esql.MustParse(`CREATE VIEW Q AS SELECT R1.K, R1.A1, R2.A2 FROM R1, R2 WHERE R1.K = R2.K AND R2.A2 > 10`)
	p, err := CompileCatalog(q, staticCatalog{rels: rels, cards: cards})
	if err != nil {
		t.Fatal(err)
	}
	if _, filtered := p.Root.child.(*Project).child.(*HashJoin).right.(*Filter); p.Root.elided != "" || !filtered {
		t.Fatalf("want a root deduplicating a join that probes a filtered R2:\n%s", p.Explain())
	}
	for _, name := range []string{"R1", "R2"} {
		if built(rels[name]) {
			t.Errorf("binding a plan with no borrowed index memoized %s's key index on K", name)
		}
	}
}
