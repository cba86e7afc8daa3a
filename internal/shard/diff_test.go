// Package shard_test is what is left of the sharded serving layer: its
// differential corpus and the serving contract its tests pinned, now held
// against the one eve.System that replaced it. The package has no non-test
// code. The tests stay at this path, under these names, because the
// repository's test floor names them one by one.
package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	eve "repro"
	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/scenario"
	"repro/internal/space"
)

// The partition differential: every generated query is answered by one
// reference system holding the whole catalog and by the same catalog dealt
// round-robin over 1, 2 and 4 independent systems (each over its own clone
// of the space), whose per-part winners are merged by the router's own
// tie rule. The route decision (kind, chosen view, page cost) must agree
// exactly, and the routed rows must equal base-only evaluation of the
// query — before evolution, and again after replaying the same churn
// history everywhere. What this holds the router to: its decision is the
// minimum of a total order (cost, view over base, registration order), so
// it may visit any subset of the views that contains every match — which
// is all the match index inside a Version ever does. Parity extends to
// failures: a query that errors on the reference must error on every
// partition, and vice versa.

var shardCounts = []int{1, 2, 4}

// partition is one catalog dealt over independent systems, plus each view's
// place in the global registration order.
type partition struct {
	parts []*eve.System
	order map[string]int
}

// route returns the merged winner of the parts' own routes for sql.
func (p *partition) route(sql string) (*eve.Route, error) {
	var best *eve.Route
	for _, sys := range p.parts {
		r, err := sys.Snapshot().RouteQuery(sql)
		if err != nil {
			// Qualification failures do not depend on the views held.
			return nil, err
		}
		if best == nil || p.better(r, best) {
			best = r
		}
	}
	return best, nil
}

// better is the router's tie rule lifted over parts: strictly cheaper
// wins; on a cost tie a view route beats the base route; between equal-cost
// view routes the earlier registered view wins.
func (p *partition) better(r, best *eve.Route) bool {
	if r.Cost != best.Cost {
		return r.Cost < best.Cost
	}
	rv, bv := r.Kind != eve.RouteBase, best.Kind != eve.RouteBase
	if rv != bv {
		return rv
	}
	return rv && p.order[r.View] < p.order[best.View]
}

// diffUniverse pairs one reference system with its partitions.
type diffUniverse struct {
	name       string
	ref        *eve.System
	partitions []*partition // indexed like shardCounts
	queries    []string
	changes    []space.Change
}

// newSystem builds a system over sp or fails the test.
func newSystem(t *testing.T, sp *space.Space) *eve.System {
	t.Helper()
	sys, err := eve.New(eve.WithSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// buildUniverse registers the views, in order, on the reference (which
// keeps the original space) and deals them over each partition's parts.
// Registering one shared definition everywhere is safe — qualification
// clones it.
func buildUniverse(t *testing.T, name string, sp *space.Space, views []*esql.ViewDef) *diffUniverse {
	t.Helper()
	u := &diffUniverse{name: name}
	for _, n := range shardCounts {
		p := &partition{order: make(map[string]int)}
		for i := 0; i < n; i++ {
			p.parts = append(p.parts, newSystem(t, sp.Clone()))
		}
		u.partitions = append(u.partitions, p)
	}
	u.ref = newSystem(t, sp)
	for i, def := range views {
		if _, err := u.ref.RegisterView(context.Background(), def); err != nil {
			t.Fatalf("%s: reference register: %v", name, err)
		}
		for _, p := range u.partitions {
			p.order[def.Name] = i
			if _, err := p.parts[i%len(p.parts)].RegisterView(context.Background(), def); err != nil {
				t.Fatalf("%s: partition register: %v", name, err)
			}
		}
	}
	return u
}

// checkQuery asserts reference/partition parity for one query against one
// partition — same error class (both fail or both succeed), same route
// decision — and that the rows either side serves equal base-only
// evaluation in schema, cardinality, and row checksum.
func checkQuery(t *testing.T, u *diffUniverse, ci int, sql string) eve.RouteKind {
	t.Helper()
	rr, rerr := u.ref.Snapshot().RouteQuery(sql)
	pr, perr := u.partitions[ci].route(sql)
	if (rerr != nil) != (perr != nil) {
		t.Fatalf("route error parity: reference %v, %d parts %v", rerr, shardCounts[ci], perr)
	}
	if rerr != nil {
		return eve.RouteBase
	}
	if pr.Kind != rr.Kind || pr.View != rr.View || pr.Cost != rr.Cost {
		t.Fatalf("route decision diverged on %d parts:\nreference:   %v via %q cost %g\npartitioned: %v via %q cost %g",
			shardCounts[ci], rr.Kind, rr.View, rr.Cost, pr.Kind, pr.View, pr.Cost)
	}
	want, err := exec.EvaluateNaive(esql.MustParseQuery(sql), u.ref.Space)
	if err != nil {
		t.Fatalf("base-only replay: %v", err)
	}
	for side, r := range map[string]*eve.Route{"reference": rr, "partitioned": pr} {
		got, err := r.Execute(context.Background())
		if err != nil {
			t.Fatalf("%s execute (%v via %q): %v", side, r.Kind, r.View, err)
		}
		if g, w := fmt.Sprint(got.Schema().Names()), fmt.Sprint(want.Schema().Names()); g != w {
			t.Fatalf("%s schema = %v, want %v (%d parts, route %v via %q)", side, g, w, shardCounts[ci], r.Kind, r.View)
		}
		if got.Card() != want.Card() {
			t.Fatalf("%s card = %d, want %d (%d parts, route %v via %q)", side, got.Card(), want.Card(), shardCounts[ci], r.Kind, r.View)
		}
		if exec.RowChecksum(got) != exec.RowChecksum(want) {
			t.Fatalf("%s checksum mismatch (%d parts, route %v via %q):\nrouted:\n%s\nbase-only:\n%s",
				side, shardCounts[ci], r.Kind, r.View, got, want)
		}
	}
	return rr.Kind
}

// churnUniverse: the full churn scenario — twin families, PC-related
// donors, spares — with a mixed 10-change history, plus anchored and
// seeded-random query sweeps over every relation class.
func churnUniverse(t *testing.T) *diffUniverse {
	t.Helper()
	p := scenario.ChurnParams{
		Families: 3, TwinsPerFamily: 2, Width: 5, Donors: 2,
		Spares: 2, SpareAttrs: 3, Changes: 10, Seed: 17,
		FamilyDeleteRatio: 0.15, FamilyRenameRatio: 0.25, DonorRatio: 0.3,
	}
	h, err := scenario.Churn(p)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 50); err != nil {
		t.Fatal(err)
	}
	u := buildUniverse(t, "churn", sp, h.Views())
	u.changes = h.Changes

	// Anchors per family: twin-exact (extent hit), narrowed (residual),
	// key-touching (base fallback), Equal-donor substitution.
	for f := 1; f <= p.Families; f++ {
		fam, eq := fmt.Sprintf("W%d", f), fmt.Sprintf("D%d_2", f)
		u.queries = append(u.queries,
			fmt.Sprintf("SELECT %[1]s.A1, %[1]s.A2, %[1]s.A3, %[1]s.A4, %[1]s.A5 FROM %[1]s", fam),
			fmt.Sprintf("SELECT %[1]s.A2, %[1]s.A4 FROM %[1]s WHERE %[1]s.A2 > 120", fam),
			fmt.Sprintf("SELECT %[1]s.K, %[1]s.A1 FROM %[1]s", fam),
			fmt.Sprintf("SELECT %[1]s.A1, %[1]s.A3 FROM %[1]s", eq),
			fmt.Sprintf("SELECT %[1]s.A1 FROM %[1]s WHERE %[1]s.A1 <> 77", eq),
		)
	}
	// Seeded random sweep over families, donors, and spares.
	rng := rand.New(rand.NewSource(23))
	var rels []string
	for f := 1; f <= p.Families; f++ {
		rels = append(rels, fmt.Sprintf("W%d", f))
		for d := 1; d <= p.Donors; d++ {
			rels = append(rels, fmt.Sprintf("D%d_%d", f, d))
		}
	}
	attrs := []string{"K", "A1", "A2", "A3", "A4", "A5"}
	ops := []string{"<", "<=", "=", ">=", ">", "<>"}
	for i := 0; i < 80; i++ {
		rel := rels[rng.Intn(len(rels))]
		perm := rng.Perm(len(attrs))[:1+rng.Intn(4)]
		sel := ""
		for j, k := range perm {
			if j > 0 {
				sel += ", "
			}
			sel += rel + "." + attrs[k]
		}
		q := "SELECT " + sel + " FROM " + rel
		for n, sep := rng.Intn(3), " WHERE "; n > 0; n-- {
			q += fmt.Sprintf("%s%s.%s %s %d", sep, rel, attrs[rng.Intn(len(attrs))],
				ops[rng.Intn(len(ops))], rng.Intn(500)-50)
			sep = " AND "
		}
		u.queries = append(u.queries, q)
	}
	return u
}

// wideUniverse: the wide two-relation join scenario — VWide materializes
// RA ⋈ W0, donor D2 is PC-Equal to W0 — with join-query sweeps.
func wideUniverse(t *testing.T) *diffUniverse {
	t.Helper()
	sp, err := scenario.WideSpace(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 40); err != nil {
		t.Fatal(err)
	}
	u := buildUniverse(t, "wide", sp, []*esql.ViewDef{scenario.WideView(6)})
	all := []string{"K", "A1", "A2", "A3", "A4", "A5", "A6"}
	mk := func(w0, sel, extra string) string {
		q := "SELECT " + sel + " FROM RA, " + w0 + " WHERE RA.K = " + w0 + ".K"
		if extra != "" {
			q += " AND " + extra
		}
		return q
	}
	selAll := ""
	for i, a := range all {
		if i > 0 {
			selAll += ", "
		}
		selAll += "W0." + a
	}
	u.queries = append(u.queries,
		mk("W0", selAll, ""),
		mk("W0", "W0.A1, W0.K", ""),
		mk("W0", "W0.A3, W0.A4", "W0.A3 < 170"),
		mk("W0", "RA.X, W0.K", ""), // RA.X not exposed → base
		mk("D2", "D2.K, D2.A1, D2.A2", ""),
		mk("D1", "D1.K, D1.A1", ""),
	)
	rng := rand.New(rand.NewSource(29))
	ops := []string{"<", "<=", ">=", ">", "<>"}
	for i := 0; i < 40; i++ {
		w0 := []string{"W0", "D1", "D2"}[rng.Intn(3)]
		perm := rng.Perm(len(all))[:1+rng.Intn(4)]
		sel := ""
		for j, k := range perm {
			if j > 0 {
				sel += ", "
			}
			sel += w0 + "." + all[k]
		}
		extra := ""
		if rng.Intn(2) == 0 {
			extra = fmt.Sprintf("%s.%s %s %d", w0, all[rng.Intn(len(all))],
				ops[rng.Intn(len(ops))], rng.Intn(400))
		}
		u.queries = append(u.queries, mk(w0, sel, extra))
	}
	return u
}

// runParity sweeps every (query × partition) pair in parallel subtests —
// under -race this doubles as the concurrency proof of the routed read
// path — and tallies route kinds.
func runParity(t *testing.T, u *diffUniverse, stage string, kinds *[3]atomic.Int64) {
	t.Helper()
	t.Run(stage, func(t *testing.T) {
		for qi, sql := range u.queries {
			for ci := range u.partitions {
				t.Run(fmt.Sprintf("q%03d/shards%d", qi, shardCounts[ci]), func(t *testing.T) {
					t.Parallel()
					kinds[checkQuery(t, u, ci, sql)].Add(1)
				})
			}
		}
	})
}

// evolveAll replays the universe's churn history through the reference and
// every part of every partition, asserting the same number of landed steps
// and, per step, the same number of views touched across a partition as on
// the reference.
func evolveAll(t *testing.T, u *diffUniverse) {
	t.Helper()
	refSteps, err := u.ref.EvolveBatch(context.Background(), u.changes)
	if err != nil {
		t.Fatalf("reference EvolveBatch: %v", err)
	}
	for ci, p := range u.partitions {
		touched := make([]int, len(refSteps))
		for _, sys := range p.parts {
			steps, err := sys.EvolveBatch(context.Background(), u.changes)
			if err != nil {
				t.Fatalf("%d parts: EvolveBatch: %v", shardCounts[ci], err)
			}
			if len(steps) != len(refSteps) {
				t.Fatalf("%d parts: landed %d steps, reference %d", shardCounts[ci], len(steps), len(refSteps))
			}
			for k := range steps {
				touched[k] += len(steps[k].Results)
			}
		}
		for k := range refSteps {
			if touched[k] != len(refSteps[k].Results) {
				t.Fatalf("%d parts: step %d touched %d views, reference %d",
					shardCounts[ci], k, touched[k], len(refSteps[k].Results))
			}
		}
	}
}

// TestShardDifferential is the suite: >200 (query × partition) cases
// before evolution and the same sweep again after replaying the churn
// history, all route-decision-identical to the reference and
// checksum-identical to base-only evaluation.
func TestShardDifferential(t *testing.T) {
	var kinds [3]atomic.Int64
	universes := []*diffUniverse{churnUniverse(t), wideUniverse(t)}
	total := 0
	for _, u := range universes {
		total += len(u.queries) * len(u.partitions)
	}
	if total < 200 {
		t.Fatalf("only %d cases generated, want >= 200", total)
	}
	for _, u := range universes {
		t.Run(u.name, func(t *testing.T) {
			runParity(t, u, "pre-evolution", &kinds)
			if t.Failed() || len(u.changes) == 0 {
				return
			}
			evolveAll(t, u)
			runParity(t, u, "post-evolution", &kinds)
		})
	}
	if t.Failed() {
		return
	}
	for k := range kinds {
		if kinds[k].Load() == 0 {
			t.Errorf("route kind %v never chosen", eve.RouteKind(k))
		}
		t.Logf("%v: %d cases", eve.RouteKind(k), kinds[k].Load())
	}
}

// TestPrefixConsistencyDuringEvolution drives a spare-only churn history
// through a system while reader goroutines continuously snapshot and query
// untouched family views: every read must return the initial checksum
// (spare churn never moves family data) and the pinned seq must be
// monotone across one reader's successive snapshots.
func TestPrefixConsistencyDuringEvolution(t *testing.T) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families: 2, TwinsPerFamily: 2, Width: 4, Donors: 1,
		Spares: 3, SpareAttrs: 3, Changes: 12, Seed: 31,
		// Ratios zero: every change is spare churn, so family/donor queries
		// are stable throughout and any divergence is a consistency bug.
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := populatedSystem(t, h, 40)
	queries := []string{
		"SELECT W1.A1, W1.A2, W1.A3, W1.A4 FROM W1",
		"SELECT W2.A2 FROM W2 WHERE W2.A2 > 100",
		"SELECT D1_1.K, D1_1.A1 FROM D1_1",
	}
	want := make([]uint64, len(queries))
	for i, q := range queries {
		res, err := sys.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("reference query %q: %v", q, err)
		}
		want[i] = exec.RowChecksum(res)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := sys.Snapshot()
				if snap.Seq() < prev {
					errc <- fmt.Errorf("seq went backwards: %d -> %d", prev, snap.Seq())
					return
				}
				prev = snap.Seq()
				qi := i % len(queries)
				res, err := snap.Query(context.Background(), queries[qi])
				if err != nil {
					errc <- fmt.Errorf("query %q during evolution: %w", queries[qi], err)
					return
				}
				if got := exec.RowChecksum(res); got != want[qi] {
					errc <- fmt.Errorf("query %q checksum changed during spare-only churn", queries[qi])
					return
				}
			}
		}()
	}
	for _, ch := range h.Changes {
		if _, err := sys.ApplyChange(context.Background(), ch); err != nil {
			t.Fatalf("ApplyChange: %v", err)
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
