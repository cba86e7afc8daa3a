package relation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// projectOracle is Project as it was written before the columnar kernel:
// one projected tuple and one Insert — a row hash and an index probe — per
// source row. It defines π with duplicate removal; Project must return the
// same rows, in the same order, for every relation in every physical form.
func projectOracle(r *Relation, names ...string) (*Relation, error) {
	ps, err := r.schema.Project(names...)
	if err != nil {
		return nil, fmt.Errorf("project %s: %w", r.Name, err)
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = r.schema.IndexOf(n)
	}
	out := New(r.Name, ps)
	for _, t := range r.Tuples() {
		pt := make(Tuple, len(idx))
		for i, j := range idx {
			pt[i] = t[j]
		}
		out.Insert(pt) //nolint:errcheck // arity matches by construction
	}
	return out, nil
}

// projectForms builds the rows as every physical form Project can meet.
func projectForms(t *testing.T, schema *Schema, rows []Tuple) map[string]*Relation {
	t.Helper()
	inserted := MustFromRows("R", schema, rows...)
	distinct := inserted.Tuples()
	cached := FromDistinctRows("R", schema, slices.Clone(distinct))
	cached.Columns()
	rebound, err := inserted.Rebind("R", schema)
	if err != nil {
		t.Fatal(err)
	}
	landed, err := inserted.WithDelta(nil, distinct[:len(distinct)/2])
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Relation{
		"New+Insert":       inserted,
		"FromDistinctRows": FromDistinctRows("R", schema, slices.Clone(distinct)),
		"FromColumns":      FromColumns("R", schema, NewColumnBatch(distinct, schema.Len())),
		"cached-batch":     cached,
		"Rebind":           rebound,
		"Rebind renamed":   rebindRenamed(t, FromColumns("X", schema, NewColumnBatch(distinct, schema.Len()))),
		"WithDelta":        landed,
	}
}

// rebindRenamed is r under the name R and its own schema.
func rebindRenamed(t *testing.T, r *Relation) *Relation {
	t.Helper()
	out, err := r.Rebind("R", r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProjectMatchesOracle projects random relations over mixed, NULL-,
// NaN- and ±0-bearing columns onto every column list of one and two
// columns (in both orders) and onto all columns reordered, in every
// physical form, and requires Project to equal the oracle row for row.
func TestProjectMatchesOracle(t *testing.T) {
	universe := chainUniverse(40)
	rng := rand.New(rand.NewSource(7))
	schema := MustSchema(TypeInt, "K", "L", "P")
	names := schema.Names()
	var lists [][]string
	for _, a := range names {
		lists = append(lists, []string{a})
		for _, b := range names {
			if a != b {
				lists = append(lists, []string{a, b})
			}
		}
	}
	lists = append(lists, []string{"P", "K", "L"})
	dups := 0
	for trial := 0; trial < 20; trial++ {
		var rows []Tuple
		for range rng.Intn(60) {
			rows = append(rows, universe[rng.Intn(len(universe))])
		}
		for form, r := range projectForms(t, schema, rows) {
			for _, cols := range lists {
				want, err := projectOracle(r, cols...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Project(cols...)
				if err != nil {
					t.Fatal(err)
				}
				if got.Card() != want.Card() || !slices.Equal(got.Schema().Names(), want.Schema().Names()) || got.Name != want.Name {
					t.Fatalf("trial %d %s π%v: %s%v card %d, oracle %s%v card %d", trial, form, cols,
						got.Name, got.Schema().Names(), got.Card(), want.Name, want.Schema().Names(), want.Card())
				}
				for i, row := range want.Tuples() {
					if g := got.Tuples()[i]; !sameRow(g, row) || !got.Contains(row) {
						t.Fatalf("trial %d %s π%v: row %d = %v, oracle %v", trial, form, cols, i, g, row)
					}
				}
				if want.Card() < r.Card() {
					dups++
				}
			}
		}
	}
	if dups == 0 {
		t.Fatal("no projection removed a duplicate")
	}
	if _, err := rel(t, "R", []int64{1, 2}).Project("Z"); err == nil {
		t.Error("projecting an unknown attribute succeeded")
	}
}

// TestProjectSharesVectorsWithoutDuplicates pins the no-gather path: a
// projection that keeps every row reads the source's column vectors.
func TestProjectSharesVectorsWithoutDuplicates(t *testing.T) {
	r := rel(t, "R", []int64{1, 10}, []int64{2, 20}, []int64{3, 20})
	p, err := r.Project("A")
	if err != nil {
		t.Fatal(err)
	}
	if &p.CachedColumns().Col(0).Ints[0] != &r.Columns().Col(0).Ints[0] {
		t.Error("a duplicate-free projection copied its column")
	}
	if q, _ := r.Project("B"); q.Card() != 2 {
		t.Errorf("π_B card = %d, want 2", q.Card())
	}
}

// TestDistinctCancels pins the kernel's poll: a cancelled context stops it
// with ctx.Err() and no positions.
func TestDistinctCancels(t *testing.T) {
	b := rel(t, "R", []int64{1, 10}, []int64{2, 20}).Columns()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	keep, err := Distinct([]*Column{b.Col(0)}, nil, b.Rows(), 1, ctx.Err)
	if !errors.Is(err, context.Canceled) || keep != nil {
		t.Fatalf("Distinct = (%v, %v), want (nil, context.Canceled)", keep, err)
	}
}

// TestRelabelKeepsRowsAndIndexes pins what a Rebind to a renamed column
// (the rename-attribute landing) shares: the same rows in the same order
// and the receiver's memoized key index; both sides are sealed, and a
// WithDelta on the result leaves the receiver alone.
func TestRelabelKeepsRowsAndIndexes(t *testing.T) {
	r := New("R", abSchema())
	for _, row := range IntRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}) {
		if err := r.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	ix := r.KeyIndex([]int{0})
	out, err := r.Rebind("R", MustSchema(TypeInt, "A", "C"))
	if err != nil {
		t.Fatal(err)
	}
	if out.KeyIndex([]int{0}) != ix || out.index() != r.index() {
		t.Fatal("rebind did not share the dedup index and the key index")
	}
	if _, err := r.Rebind("R", MustSchema(TypeInt, "A")); err == nil {
		t.Error("rebind to another arity succeeded")
	}
	for _, side := range []*Relation{r, out} {
		if err := side.Insert(Tuple{Int(5), Int(50)}); !errors.Is(err, ErrSealed) {
			t.Errorf("Insert after Rebind = %v, want ErrSealed", err)
		}
	}
	next, err := out.WithDelta([]Tuple{{Int(4), Int(40)}}, []Tuple{{Int(1), Int(10)}})
	if err != nil {
		t.Fatal(err)
	}
	text := func(r *Relation) string {
		var s string
		for _, row := range r.Tuples() {
			s += fmt.Sprintf("(%s %s)", row[0].Text(), row[1].Text())
		}
		return s
	}
	if got := text(r); got != "(1 10)(2 20)(3 30)" {
		t.Errorf("receiver holds %s", got)
	}
	if got := text(out); got != "(1 10)(2 20)(3 30)" || out.Schema().Names()[1] != "C" {
		t.Errorf("rebind holds %s over %v", got, out.Schema().Names())
	}
	if got := text(next); got != "(3 30)(2 20)(4 40)" {
		t.Errorf("its successor holds %s", got)
	}
	if r.Contains(Tuple{Int(4), Int(40)}) || !r.Contains(Tuple{Int(1), Int(10)}) {
		t.Error("a WithDelta on the rebind crossed to the receiver")
	}
}
