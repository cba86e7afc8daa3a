package warehouse

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/space"
)

// The write path lands a batch on relations that share their indexes with
// the generation before (relation.WithDelta): these tests pin that sharing
// from the outside — readers of a pinned Version race the writer, and one
// batch costs the same allocations and bytes whatever the relations hold.

// chainWarehouse builds the ledger's update-maintain shape: R1..R4(K, Ai)
// with n rows each at one source, under V4 = R1⋈R2⋈R3⋈R4, V12 = R1⋈R2 and
// V1 = σ(R1).
func chainWarehouse(t testing.TB, n int) *Warehouse {
	t.Helper()
	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		r := relation.New(fmt.Sprintf("R%d", i), relation.MustSchema(relation.TypeInt, "K", fmt.Sprintf("A%d", i)))
		for j := 0; j < n; j++ {
			if err := r.Insert(relation.Tuple{relation.Int(int64(j)), relation.Int(int64(j * i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.AddRelation("IS1", r); err != nil {
			t.Fatal(err)
		}
	}
	wh := New(sp, DefaultConfig())
	for _, src := range []string{
		`CREATE VIEW V4 AS SELECT R1.K, R1.A1, R2.A2, R3.A3, R4.A4 FROM R1, R2, R3, R4 WHERE R1.K = R2.K AND R2.K = R3.K AND R3.K = R4.K`,
		`CREATE VIEW V12 AS SELECT R1.K, R1.A1, R2.A2 FROM R1, R2 WHERE R1.K = R2.K`,
		fmt.Sprintf(`CREATE VIEW V1 AS SELECT R1.K, R1.A1 FROM R1 WHERE R1.A1 > %d`, n/2),
	} {
		if _, err := wh.DefineView(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	return wh
}

// chainOp is operation i of the workload: operation 2b inserts batch b — 16
// tuples over existing keys with fresh attribute values — into R1, R2 or R3
// in turn, operation 2b+1 deletes it again.
func chainOp(i, n int) (rel string, batch []maintain.Update) {
	b := i / 2
	rel = fmt.Sprintf("R%d", b%3+1)
	kind := maintain.Insert
	if i%2 == 1 {
		kind = maintain.Delete
	}
	batch = make([]maintain.Update, 16)
	for k := range batch {
		t := relation.Tuple{relation.Int(int64((b*16 + k) * 7 % n)), relation.Int(int64(1_000_000 + b*16 + k))}
		batch[k] = maintain.Update{Kind: kind, Rel: rel, Tuple: t}
	}
	return rel, batch
}

// TestStressForkWhileReading lands 2,000 batches while four readers keep
// asking whatever Version is published for rows, membership and key-index
// positions. Under the race detector any write by a fork to something a
// reader of the parent reads is a report; without it, every answer must
// still be the one the Version's sequence number implies.
func TestStressForkWhileReading(t *testing.T) {
	const n, batches = 500, 2000
	wh := chainWarehouse(t, n)
	seq0 := wh.Acquire().Seq()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for reads := 0; ctx.Err() == nil || reads == 0; reads++ {
				v := wh.Acquire()
				applied := int(v.Seq() - seq0)
				// With an odd count the last batch is an insert not yet
				// deleted: its relation holds 16 more rows, two per touched key.
				rel, batch := chainOp(max(applied-1, 0), n)
				r := v.Relation(rel)
				inFlight := applied%2 == 1
				wantCard, wantRows := n, 1
				if inFlight {
					wantCard, wantRows = n+16, 2
				}
				rows := r.Tuples()
				if r.Card() != wantCard || len(rows) != wantCard {
					t.Errorf("seq %d: %s holds %d rows, want %d", v.Seq(), rel, r.Card(), wantCard)
					return
				}
				for _, u := range batch {
					if r.Contains(u.Tuple) != inFlight {
						t.Errorf("seq %d: %s.Contains(%v) = %v", v.Seq(), rel, u.Tuple, !inFlight)
						return
					}
					ps := r.Lookup([]int{0}, u.Tuple)
					if len(ps) != wantRows {
						t.Errorf("seq %d: %s key %v holds rows %v, want %d", v.Seq(), rel, u.Tuple[0], ps, wantRows)
						return
					}
					for _, p := range ps {
						if !rows[p][0].Equal(u.Tuple[0]) {
							t.Errorf("seq %d: %s key %v addresses row %v", v.Seq(), rel, u.Tuple[0], rows[p])
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < batches; i++ {
		_, batch := chainOp(i, n)
		if _, err := wh.ApplyUpdates(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
	for _, v := range wh.Acquire().Views() {
		fresh, err := exec.Evaluate(context.Background(), v.Def, wh.Space)
		if err != nil {
			t.Fatal(err)
		}
		if exec.RowChecksum(fresh) != exec.RowChecksum(v.Extent) {
			t.Errorf("view %s diverged from recompute after %d batches", v.Def.Name, batches)
		}
	}
}

// TestWriteAllocsIndependentOfCard pins O(|Δ|) landing and maintenance as an
// allocation count and in bytes: one steady-state batch allocates as many
// objects into 64k-row relations as into 2k-row ones — no index is cloned or
// rebuilt, which would allocate per bucket or per row — and bytes that grow
// only by the page tables the landing forks (one pointer per 32 rows, about
// 46 KB more at 64k rows than at 2k) — no row slice is copied and no landed
// relation re-ingested, either of which would allocate per row — and few of
// both in absolute terms.
func TestWriteAllocsIndependentOfCard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 64k-row relations")
	}
	perBatch := func(n int) (allocs, bytes float64) {
		wh := chainWarehouse(t, n)
		i := 0
		next := func() {
			_, batch := chainOp(i, n)
			i++
			if _, err := wh.ApplyUpdates(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		}
		for i < 11 { // every index built, every view's counts in place
			next()
		}
		allocs = testing.AllocsPerRun(60, next) // whole cycles of six
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 60 {
			next()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 60
	}
	small, smallB := perBatch(2_000)
	at10k, at10kB := perBatch(10_000)
	large, largeB := perBatch(64_000)
	t.Logf("per batch: %.0f allocations / %.0f KB at 2k rows, %.0f / %.0f KB at 10k, %.0f / %.0f KB at 64k",
		small, smallB/1024, at10k, at10kB/1024, large, largeB/1024)
	if large > small*1.10 || small > large*1.10 {
		t.Errorf("allocations per batch move with cardinality: %.0f at 2k rows, %.0f at 64k", small, large)
	}
	if at10k > 565 { // 513 measured, plus 10%
		t.Errorf("%.0f allocations per batch at 10k rows, want ≤ 565", at10k)
	}
	if largeB-smallB > 56<<10 {
		t.Errorf("bytes per batch move with cardinality beyond the page tables: %.0f KB at 2k rows, %.0f KB at 64k", smallB/1024, largeB/1024)
	}
	if at10kB > 70<<10 { // 63 KB measured, plus 10%
		t.Errorf("%.0f KB per batch at 10k rows, want ≤ 70 KB", at10kB/1024)
	}
}
