package maintain

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/space"
)

// TestCollapseRetouchedTupleOnce: a tuple inserted, deleted and inserted
// again in one batch is one pending insert, and a present tuple deleted,
// re-inserted and deleted again is one pending delete — each listed once,
// or the fold would count its derivation twice.
func TestCollapseRetouchedTupleOnce(t *testing.T) {
	sp, _ := joinSpace(t)
	fresh, present := relation.Tuple{relation.Int(5), relation.Int(50)}, relation.Tuple{relation.Int(2), relation.Int(20)}
	deltas, _, err := Collapse(sp, []Update{
		{Insert, "R", fresh}, {Delete, "R", fresh}, {Insert, "R", fresh},
		{Delete, "R", present}, {Insert, "R", present}, {Delete, "R", present},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || len(deltas[0].Inserts) != 1 || len(deltas[0].Deletes) != 1 {
		t.Fatalf("deltas = %+v, want one insert of %v and one delete of %v", deltas, fresh, present)
	}
}

func TestCollapseNetsUpdates(t *testing.T) {
	sp, _ := joinSpace(t)
	deltas, metrics, err := Collapse(sp, []Update{
		{Insert, "R", relation.Tuple{relation.Int(3), relation.Int(30)}},
		{Delete, "R", relation.Tuple{relation.Int(3), relation.Int(30)}}, // cancels the insert
		{Insert, "R", relation.Tuple{relation.Int(1), relation.Int(10)}}, // already present: no-op
		{Delete, "R", relation.Tuple{relation.Int(2), relation.Int(20)}}, // present: real delete
		{Insert, "R", relation.Tuple{relation.Int(4), relation.Int(40)}}, // absent: real insert
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every update notifies once, no-ops and cancelled pairs included.
	if metrics.Messages != 5 {
		t.Errorf("notification messages = %d, want 5", metrics.Messages)
	}
	if len(deltas) != 1 || deltas[0].Rel != "R" {
		t.Fatalf("deltas = %+v, want one delta for R", deltas)
	}
	d := deltas[0]
	if len(d.Inserts) != 1 || !slices.Equal(d.Inserts[0], relation.Tuple{relation.Int(4), relation.Int(40)}) {
		t.Errorf("net inserts = %v", d.Inserts)
	}
	if len(d.Deletes) != 1 || !slices.Equal(d.Deletes[0], relation.Tuple{relation.Int(2), relation.Int(20)}) {
		t.Errorf("net deletes = %v", d.Deletes)
	}
	if d.Card() != 2 {
		t.Errorf("delta card = %d, want 2", d.Card())
	}
	// Collapse inspects state but must not modify it.
	if sp.Relation("R").Card() != 2 {
		t.Errorf("Collapse mutated the base relation: card = %d", sp.Relation("R").Card())
	}
}

func TestApplyBaseCopyOnWrite(t *testing.T) {
	sp, _ := joinSpace(t)
	old := sp.Relation("R")
	deltas, _, err := Collapse(sp, []Update{
		{Insert, "R", relation.Tuple{relation.Int(3), relation.Int(30)}},
		{Delete, "R", relation.Tuple{relation.Int(1), relation.Int(10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := ApplyBase(sp, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if pre["R"] != old {
		t.Error("pre-state map should hold the replaced relation object")
	}
	if sp.Relation("R") == old {
		t.Fatal("ApplyBase mutated the relation in place; want a fresh object")
	}
	if old.Card() != 2 || !old.Contains(relation.Tuple{relation.Int(1), relation.Int(10)}) {
		t.Error("pre-update relation changed under a reader")
	}
	cur := sp.Relation("R")
	if cur.Card() != 2 || !cur.Contains(relation.Tuple{relation.Int(3), relation.Int(30)}) ||
		cur.Contains(relation.Tuple{relation.Int(1), relation.Int(10)}) {
		t.Errorf("post-update relation wrong:\n%s", cur)
	}
}

// TestSiteVisitOrder pins Algorithm 1's visit order through the onSite
// seam: for each delta step the maintainer queries the delta's own site
// first (co-located relations join without a message round trip in the
// paper's model) and then the remaining sites in FROM order.
func TestSiteVisitOrder(t *testing.T) {
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10})...)
	tt := relation.MustFromRows("T", relation.MustSchema(relation.TypeInt, "A", "D"),
		relation.IntRows([]int64{1, 1000}, []int64{2, 2000})...)
	s := relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "C"),
		relation.IntRows([]int64{1, 100}, []int64{2, 200})...)
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS1", tt); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", s); err != nil {
		t.Fatal(err)
	}
	v := esql.MustParse("CREATE VIEW V AS SELECT R.B, S.C, T.D FROM R, S, T WHERE R.A = S.A AND R.A = T.A")
	q, err := exec.Qualify(v, sp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := exec.Evaluate(context.Background(), q, sp)
	if err != nil {
		t.Fatal(err)
	}
	m := New(sp, q, ext)
	var visits []string
	m.onSite = func(source string) { visits = append(visits, source) }
	// ΔR originates at IS1, which also hosts T; S sits at IS2. Although S
	// precedes T in the FROM clause, the co-located T is joined first.
	if _, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(2), relation.Int(20)}}); err != nil {
		t.Fatal(err)
	}
	if len(visits) != 2 || visits[0] != "IS1" || visits[1] != "IS2" {
		t.Errorf("site visits = %v, want [IS1 IS2] (co-located first, then FROM order)", visits)
	}
	if m.Extent.Card() != 2 {
		t.Errorf("extent = %d, want 2", m.Extent.Card())
	}
	recompute(t, sp, m)
}

// TestSeedBoundClauseSkipsSites pins the seed-clause fix: a WHERE clause
// fully bound inside the delta is applied once at the seed, and a delta it
// empties never visits any site — the only message is the notification.
func TestSeedBoundClauseSkipsSites(t *testing.T) {
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 200})...)
	s := relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "C"),
		relation.IntRows([]int64{1, 100}, []int64{7, 700})...)
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", s); err != nil {
		t.Fatal(err)
	}
	v := esql.MustParse("CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A AND R.B > 100")
	q, err := exec.Qualify(v, sp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := exec.Evaluate(context.Background(), q, sp)
	if err != nil {
		t.Fatal(err)
	}
	m := New(sp, q, ext)
	var visits []string
	m.onSite = func(source string) { visits = append(visits, source) }
	// B = 5 fails R.B > 100, a clause fully bound by ΔR: the propagation
	// must stop at the seed.
	metrics, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(7), relation.Int(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 0 {
		t.Errorf("seed-filtered delta visited sites %v; want none", visits)
	}
	if metrics.Messages != 1 {
		t.Errorf("messages = %d, want 1 (notification only)", metrics.Messages)
	}
	recompute(t, sp, m)
	// A qualifying tuple does propagate.
	metrics, err = m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(7), relation.Int(300)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 1 || visits[0] != "IS2" {
		t.Errorf("qualifying delta visits = %v, want [IS2]", visits)
	}
	if metrics.Messages != 3 {
		t.Errorf("messages = %d, want 3", metrics.Messages)
	}
	recompute(t, sp, m)
}

// TestBatchSharedBase drives the warehouse decomposition by hand: one
// Collapse, one ApplyBase, then per-view ApplyDeltas against the shared
// pre-state — both views must match a full recompute afterwards.
func TestBatchSharedBase(t *testing.T) {
	sp, m1 := joinSpace(t)
	v2 := esql.MustParse("CREATE VIEW W AS SELECT R.B FROM R")
	q2, err := exec.Qualify(v2, sp)
	if err != nil {
		t.Fatal(err)
	}
	ext2, err := exec.Evaluate(context.Background(), q2, sp)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(sp, q2, ext2)

	deltas, _, err := Collapse(sp, []Update{
		{Insert, "R", relation.Tuple{relation.Int(3), relation.Int(30)}},
		{Insert, "S", relation.Tuple{relation.Int(2), relation.Int(200)}},
		{Delete, "R", relation.Tuple{relation.Int(1), relation.Int(10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := ApplyBase(sp, deltas)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Maintainer{m1, m2} {
		if _, err := m.ApplyDeltas(context.Background(), deltas, pre); err != nil {
			t.Fatal(err)
		}
		recompute(t, sp, m)
	}
	if m2.Extent.Card() != 2 { // B values {20, 30}
		t.Errorf("single-relation view card = %d, want 2", m2.Extent.Card())
	}
}

// chainSpace builds n-row relations R1..R4(K, Ai) — the shape of the
// ledger's update-maintain workload — homed at the given sources, and a
// maintainer for view over them.
func chainSpace(t *testing.T, n int, homes [4]string, view string) (*space.Space, *Maintainer) {
	t.Helper()
	sp := space.New()
	for i, src := range homes {
		if sp.Source(src) == nil {
			if _, err := sp.AddSource(src); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("R%d", i+1)
		rows := make([]relation.Tuple, n)
		for j := range rows {
			rows[j] = relation.Tuple{relation.Int(int64(j)), relation.Int(int64(j * (i + 1)))}
		}
		r := relation.MustFromRows(name, relation.MustSchema(relation.TypeInt, "K", fmt.Sprintf("A%d", i+1)), rows...)
		if err := sp.AddRelation(src, r); err != nil {
			t.Fatal(err)
		}
	}
	q, err := exec.Qualify(esql.MustParse(view), sp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := exec.Evaluate(context.Background(), q, sp)
	if err != nil {
		t.Fatal(err)
	}
	return sp, New(sp, q, ext)
}

const chainV4 = `CREATE VIEW V4 AS SELECT R1.K, R1.A1, R2.A2, R3.A3, R4.A4
	FROM R1, R2, R3, R4 WHERE R1.K = R2.K AND R2.K = R3.K AND R3.K = R4.K`

// chainBatch is 16 tuples over existing keys with fresh attribute values,
// so every delta tuple finds exactly one partner per relation.
func chainBatch(kind UpdateKind, rel string) []Update {
	out := make([]Update, 16)
	for k := range out {
		out[k] = Update{Kind: kind, Rel: rel, Tuple: relation.Tuple{relation.Int(int64(7 * k)), relation.Int(int64(1_000_000 + k))}}
	}
	return out
}

// applyBatch runs the three phases for one batch against one maintainer.
func applyBatch(t *testing.T, sp *space.Space, m *Maintainer, batch []Update) Metrics {
	t.Helper()
	deltas, total, err := Collapse(sp, batch)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := ApplyBase(sp, deltas)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := m.ApplyDeltas(context.Background(), deltas, pre)
	if err != nil {
		t.Fatal(err)
	}
	total.Add(pm)
	return total
}

// TestHopOrderFollowsJoinPredicates pins the hop order inside a site: a
// delta into the third or fourth relation of a chain join visits its
// co-located partners along the join predicates, so no hop ever sees more
// than |Δ| × the key fan-out rows and every hop is charged one index
// retrieval per delta tuple — where FROM order would first cross ΔR3 with
// all of R1. Messages and bytes are what the site sequence fixes and do
// not depend on the order of hops inside a site.
func TestHopOrderFollowsJoinPredicates(t *testing.T) {
	const n = 1000
	for _, rel := range []string{"R3", "R4"} {
		sp, m := chainSpace(t, n, [4]string{"IS1", "IS1", "IS1", "IS1"}, chainV4)
		var visits []string
		m.onSite = func(source string) { visits = append(visits, source) }
		maxIn := 0
		m.onHop = func(_ string, in int) { maxIn = max(maxIn, in) }
		for _, kind := range []UpdateKind{Insert, Delete} {
			visits, maxIn = nil, 0
			got := applyBatch(t, sp, m, chainBatch(kind, rel))
			recompute(t, sp, m)
			// 16 notifications + query and answer at the one site; the delta
			// goes out as 16 two-int tuples and comes back five relations wide.
			want := Metrics{Messages: 16 + 2, Bytes: 16*16 + 16*16 + 16*64, IO: 3 * 16}
			if got != want {
				t.Errorf("Δ%s kind %d: metrics = %+v, want %+v", rel, kind, got, want)
			}
			// After the insert a touched key holds two rows of rel and one
			// of every partner, so a hop's input is the delta itself.
			if maxIn > 16 {
				t.Errorf("Δ%s kind %d: a hop took %d rows in, want ≤ 16", rel, kind, maxIn)
			}
			if len(visits) != 1 || visits[0] != "IS1" {
				t.Errorf("Δ%s: site visits = %v, want [IS1]", rel, visits)
			}
		}
		if m.Extent.Card() != n {
			t.Errorf("Δ%s: extent = %d rows after insert+delete, want %d", rel, m.Extent.Card(), n)
		}
	}
}

// TestHopOrderFallsBackToFromOrder covers a site with no bridging clause:
// the view asks for a cross product, and the FROM-order fallback must
// still produce it.
func TestHopOrderFallsBackToFromOrder(t *testing.T) {
	sp, m := chainSpace(t, 30, [4]string{"IS1", "IS1", "IS1", "IS1"},
		"CREATE VIEW X AS SELECT R1.A1, R2.A2, R3.A3 FROM R1, R2, R3 WHERE R1.A1 < 5 AND R2.A2 < 4")
	var hops []string
	m.onHop = func(binding string, _ int) { hops = append(hops, binding) }
	applyBatch(t, sp, m, []Update{{Kind: Insert, Rel: "R3", Tuple: relation.Tuple{relation.Int(99), relation.Int(-1)}}})
	recompute(t, sp, m)
	if len(hops) != 2 || hops[0] != "R1" || hops[1] != "R2" {
		t.Errorf("hops = %v, want [R1 R2] (FROM order when nothing connects)", hops)
	}
	// R1.A1 < 5 keeps 5 rows of R1, R2.A2 < 4 keeps 2 rows of R2, R3 has 31.
	if want := 5 * 2 * 31; m.Extent.Card() != want {
		t.Errorf("cross-product extent = %d rows, want %d", m.Extent.Card(), want)
	}
}

// TestHopOrderKeepsSiteOrder spreads the chain over two sites: the order of
// hops inside a site follows the join predicates, the order of sites stays
// the updating site first, then FROM order.
func TestHopOrderKeepsSiteOrder(t *testing.T) {
	// R3 and R4 at IS1, R1 and R2 at IS2: ΔR4 visits IS1 (R3), then IS2,
	// where R2 — connected through R3.K — is joined before R1.
	sp, m := chainSpace(t, 200, [4]string{"IS2", "IS2", "IS1", "IS1"}, chainV4)
	var visits, hops []string
	m.onSite = func(source string) { visits = append(visits, source) }
	m.onHop = func(binding string, _ int) { hops = append(hops, binding) }
	got := applyBatch(t, sp, m, chainBatch(Insert, "R4"))
	recompute(t, sp, m)
	if fmt.Sprint(visits) != "[IS1 IS2]" {
		t.Errorf("site visits = %v, want [IS1 IS2]", visits)
	}
	if fmt.Sprint(hops) != "[R3 R2 R1]" {
		t.Errorf("hops = %v, want [R3 R2 R1]", hops)
	}
	// Out and back per site: two, then four ints out, four, then eight back.
	if want := (Metrics{Messages: 16 + 4, Bytes: 16 * (16 + 16 + 32 + 32 + 64), IO: 3 * 16}); got != want {
		t.Errorf("metrics = %+v, want %+v", got, want)
	}
}
