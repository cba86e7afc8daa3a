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
			b.WriteString(strconv.Quote(v.Type().String() + ":" + v.Text()))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// oracleViews are the counting oracle's inputs: a join projected past its
// key, a self-join, a three-relation view over two sources whose steps
// between them run every placement arm — the seed filter (T.C > 0 on ΔT),
// a scan condition pushed below a join (T.C > 0 on ΔR and ΔS), a theta
// residual (S.C < T.C), and index-lookup, hash-join and nested-loop hops —
// and a key join under a scan condition (R.B > 0 on ΔS), whose small
// deltas probe R's key index and apply the condition to the matches.
var oracleViews = []string{
	"CREATE VIEW P AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A",
	"CREATE VIEW J AS SELECT X.B, Y.C FROM R X, R Y WHERE X.A = Y.A",
	"CREATE VIEW K AS SELECT R.B, T.C FROM R, S, T WHERE R.A = S.A AND S.C < T.C AND T.C > 0",
	"CREATE VIEW Q AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A AND R.B > 0",
}

// unread names, per oracle view, an attribute the view does not read:
// renaming it changes its relation's schema object and adopts nothing, so
// a compiled step program outlives the schema it was compiled over (J
// reads every column of R, so its rename only moves S).
var unread = map[string][2]string{"P": {"R", "C"}, "J": {"S", "C"}, "K": {"R", "C"}, "Q": {"R", "C"}}

// toggleRename renames view's unread attribute through the space, or
// renames it back when renamed says it is.
func toggleRename(t testing.TB, sp *space.Space, view string, renamed *bool) {
	t.Helper()
	rel, from, to := unread[view][0], unread[view][1], unread[view][1]+"2"
	if *renamed {
		from, to = to, from
	}
	if err := sp.ApplyChange(space.Change{Kind: space.RenameAttribute, Rel: rel, Attr: from, NewName: to}); err != nil {
		t.Fatal(err)
	}
	*renamed = !*renamed
}

// oracleMaintainer builds R(A, B, C) and S(A, C) at IS1 with twelve rows
// each drawn from rng, T(C, D) at IS2 with eight fixed rows, and a
// maintainer for the view src over them.
func oracleMaintainer(t testing.TB, src string, rng *rand.Rand) (*space.Space, *Maintainer) {
	t.Helper()
	val := func(n int) relation.Value { return relation.Int(int64(rng.Intn(n))) }
	sp := space.New()
	r := relation.New("R", relation.MustSchema(relation.TypeInt, "A", "B", "C"))
	s := relation.New("S", relation.MustSchema(relation.TypeInt, "A", "C"))
	tt := relation.New("T", relation.MustSchema(relation.TypeInt, "C", "D"))
	for range 12 {
		r.Insert(relation.Tuple{val(4), val(3), val(3)}) //nolint:errcheck // arity matches
		s.Insert(relation.Tuple{val(4), val(3)})         //nolint:errcheck // arity matches
	}
	for i := range 8 {
		tt.Insert(relation.Tuple{relation.Int(int64(i%6 - 2)), relation.Int(int64(i / 6))}) //nolint:errcheck // arity matches
	}
	for src, rels := range map[string][]*relation.Relation{"IS1": {r, s}, "IS2": {tt}} {
		if _, err := sp.AddSource(src); err != nil {
			t.Fatal(err)
		}
		for _, rel := range rels {
			if err := sp.AddRelation(src, rel); err != nil {
				t.Fatal(err)
			}
		}
	}
	q, err := exec.Qualify(esql.MustParse(src), sp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := exec.Evaluate(context.Background(), q, sp)
	if err != nil {
		t.Fatal(err)
	}
	return sp, New(sp, q, ext, defaultBfr)
}

// checkOracle fails t unless the maintained extent equals recomputation and
// the multi-derivation map equals a from-scratch count; it returns the
// number of multi-derivation rows.
func checkOracle(t testing.TB, sp *space.Space, m *Maintainer) int {
	t.Helper()
	fresh, err := exec.Evaluate(context.Background(), m.View, sp)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Card() != m.Extent.Card() || exec.RowChecksum(fresh) != exec.RowChecksum(m.Extent) {
		t.Fatalf("extent diverged\nmaintained:\n%s\nrecomputed:\n%s", m.Extent, fresh)
	}
	if m.counts == nil {
		return 0
	}
	want, err := m.evalCounts(context.Background(), func(f esql.FromItem) *relation.Relation { return sp.Relation(f.Rel) })
	if err != nil {
		t.Fatal(err)
	}
	if !sameCounts(&m.counts.multi, &want.multi) || !sameCounts(&want.multi, &m.counts.multi) {
		t.Fatal("the multi-derivation map differs from a from-scratch count")
	}
	n := 0
	for range want.multi.All() {
		n++
	}
	return n
}

// TestCountingOracle drives views whose rows have several derivations
// (oracleViews) through a seeded script of insert/delete batches, renaming
// an attribute the view does not read before batch 12 of every 25 and
// renaming it back 25 batches later. After
// every batch the extent must equal recomputation, the multi-derivation map
// must equal a from-scratch count, a batch with no net effect on the view
// must keep the extent object, and the extent an older Version holds must
// be unchanged.
func TestCountingOracle(t *testing.T) {
	for _, src := range oracleViews {
		def := esql.MustParse(src)
		t.Run(def.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(26))
			val := func(n int) relation.Value { return relation.Int(int64(rng.Intn(n))) }
			sp, m := oracleMaintainer(t, src, rng)
			readsT := len(def.From) == 3

			kept, moved, multi, renamed := 0, 0, 0, false
			for b := range 150 {
				if b%25 == 12 {
					toggleRename(t, sp, def.Name, &renamed)
				}
				var batch []Update
				for range 1 + rng.Intn(5) {
					rel, tu := "R", relation.Tuple{val(4), val(3), val(3)}
					if rng.Intn(3) == 0 {
						rel, tu = "S", relation.Tuple{val(4), val(3)}
					}
					if readsT && rng.Intn(4) == 0 {
						rel, tu = "T", relation.Tuple{relation.Int(int64(rng.Intn(6) - 2)), val(2)}
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

				multi = max(multi, checkOracle(t, sp, m))
				if exec.RowChecksum(m.Extent) == heldSum && m.Extent.Card() == held.Card() {
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

// FuzzApplyDeltas runs an arbitrary script of mixed-sign batches and
// schema renames over one of the counting oracle's views (the first byte
// picks it) and checks the extent and the multi-derivation map after every
// batch. A header byte h with h%8 == 7 renames the view's unread attribute,
// or renames it back. Any other starts a batch of 1 + h%5 updates, two
// bytes each: a picks the relation (a%4: R, R, S, T), the kind (bit 2)
// and, for a delete, whether to remove a present row (bit 3 clear) at
// index b; otherwise b spells the tuple.
func FuzzApplyDeltas(f *testing.F) {
	for i := range oracleViews {
		script := make([]byte, 96)
		rand.New(rand.NewSource(int64(i))).Read(script)
		script[0] = byte(i)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 512 {
			t.Skip()
		}
		src := oracleViews[int(script[0])%len(oracleViews)]
		sp, m := oracleMaintainer(t, src, rand.New(rand.NewSource(26)))
		renamed := false
		for script = script[1:]; len(script) > 0; {
			h := script[0]
			script = script[1:]
			if h%8 == 7 {
				toggleRename(t, sp, m.View.Name, &renamed)
				continue
			}
			n := 1 + int(h)%5
			var batch []Update
			for ; n > 0 && len(script) >= 2; n-- {
				a, b := script[0], script[1]
				script = script[2:]
				i := func(v byte, mod int) relation.Value { return relation.Int(int64(int(v) % mod)) }
				rel, tu := "R", relation.Tuple{i(b, 4), i(b>>2, 3), i(b>>4, 3)}
				switch a % 4 {
				case 2:
					rel, tu = "S", relation.Tuple{i(b, 4), i(b>>2, 3)}
				case 3:
					rel, tu = "T", relation.Tuple{relation.Int(int64(b%6) - 2), i(b>>3, 2)}
				}
				kind := Insert
				if a&4 != 0 {
					kind = Delete
					if cur := sp.Relation(rel); cur.Card() > 0 && a&8 == 0 {
						tu = cur.Row(int(b) % cur.Card())
					}
				}
				batch = append(batch, Update{Kind: kind, Rel: rel, Tuple: tu})
			}
			applyBatch(t, sp, m, batch)
			checkOracle(t, sp, m)
		}
	})
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
