package maintain

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/space"
)

// storedRows renders a relation's rows in storage order, read off its
// pages, so a held extent is compared without building its flat image.
func storedRows(r *relation.Relation) string {
	var b strings.Builder
	for i := range r.Card() {
		for _, v := range r.Row(i) {
			b.WriteString(strconv.Quote(v.Key()))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCountingOracle drives views whose rows have several derivations — a
// join projected past its key and a self-join — through a seeded script of
// insert/delete batches. After every batch the extent must equal
// recomputation, the multi-derivation map must equal a from-scratch count, a
// batch with no net effect on the view must keep the extent object, and the
// extent an older Version holds must be unchanged.
func TestCountingOracle(t *testing.T) {
	for _, src := range []string{
		"CREATE VIEW P AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A",
		"CREATE VIEW J AS SELECT X.B, Y.C FROM R X, R Y WHERE X.A = Y.A",
	} {
		def := esql.MustParse(src)
		t.Run(def.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(26))
			val := func(n int) relation.Value { return relation.Int(int64(rng.Intn(n))) }
			sp := space.New()
			if _, err := sp.AddSource("IS1"); err != nil {
				t.Fatal(err)
			}
			r := relation.New("R", relation.MustSchema(relation.TypeInt, "A", "B", "C"))
			s := relation.New("S", relation.MustSchema(relation.TypeInt, "A", "C"))
			for range 12 {
				r.Insert(relation.Tuple{val(4), val(3), val(3)}) //nolint:errcheck // arity matches
				s.Insert(relation.Tuple{val(4), val(3)})         //nolint:errcheck // arity matches
			}
			for _, rel := range []*relation.Relation{r, s} {
				if err := sp.AddRelation("IS1", rel); err != nil {
					t.Fatal(err)
				}
			}
			q, err := exec.Qualify(def, sp)
			if err != nil {
				t.Fatal(err)
			}
			ext, err := exec.Evaluate(context.Background(), q, sp)
			if err != nil {
				t.Fatal(err)
			}
			m := New(sp, q, ext)

			kept, moved, multi := 0, 0, 0
			for b := range 150 {
				var batch []Update
				for range 1 + rng.Intn(5) {
					rel, tu := "R", relation.Tuple{val(4), val(3), val(3)}
					if rng.Intn(3) == 0 {
						rel, tu = "S", relation.Tuple{val(4), val(3)}
					}
					kind := Insert
					if rng.Intn(2) == 0 {
						kind = Delete
						if cur := sp.Relation(rel); cur.Card() > 0 && rng.Intn(4) > 0 {
							tu = space.RandomTuple(cur, rng)
						}
					}
					batch = append(batch, Update{Kind: kind, Rel: rel, Tuple: tu})
				}
				held := m.Extent
				heldRows, heldSum := storedRows(held), exec.RowChecksum(held)
				applyBatch(t, sp, m, batch)

				fresh, err := exec.Evaluate(context.Background(), m.View, sp)
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Card() != m.Extent.Card() || exec.RowChecksum(fresh) != exec.RowChecksum(m.Extent) {
					t.Fatalf("batch %d: extent diverged\nmaintained:\n%s\nrecomputed:\n%s", b, m.Extent, fresh)
				}
				if m.counts != nil {
					want, err := m.evalCounts(context.Background(), func(f esql.FromItem) *relation.Relation { return sp.Relation(f.Rel) })
					if err != nil {
						t.Fatal(err)
					}
					if !sameCounts(&m.counts.multi, &want.multi) || !sameCounts(&want.multi, &m.counts.multi) {
						t.Fatalf("batch %d: the multi-derivation map differs from a from-scratch count", b)
					}
					n := 0
					for range want.multi.All() {
						n++
					}
					multi = max(multi, n)
				}
				if exec.RowChecksum(fresh) == heldSum && fresh.Card() == held.Card() {
					kept++
					if m.Extent != held {
						t.Fatalf("batch %d: no net effect on the view, but the extent object was replaced", b)
					}
				} else {
					moved++
				}
				if storedRows(held) != heldRows || exec.RowChecksum(held) != heldSum {
					t.Fatalf("batch %d: the pre-batch extent changed", b)
				}
			}
			t.Logf("%d batches moved the view, %d left it as it was; up to %d multi-derivation rows", moved, kept, multi)
			if kept == 0 || moved == 0 || multi == 0 {
				t.Errorf("the script never covered a kept extent, a moved one, or a multi-derivation row")
			}
		})
	}
}

// sameCounts reports whether every row of a has the same count in b.
func sameCounts(a, b *relation.TupleSet[int]) bool {
	for t, n := range a.All() {
		if c, ok := b.Get(t); !ok || c != n {
			return false
		}
	}
	return true
}
