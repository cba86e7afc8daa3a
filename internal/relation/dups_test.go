package relation

import (
	"math/rand"
	"testing"
)

// recountDups counts from scratch what KeyIndex.Dups keeps up: the rows of
// r filed under the tag of an earlier row, by their cells at cols.
func recountDups(r *Relation, cols []int) int {
	seen := map[uint32]bool{}
	n := 0
	for i := range r.Card() {
		t := tagOf(hashCells(r.Row(i), cols))
		if seen[t] {
			n++
		}
		seen[t] = true
	}
	return n
}

// TestKeyIndexDupsMatchRecount holds each memoized index's duplicate count
// to a recount from scratch at every step: Inserts into an open relation
// (the index written in place), then a WithDelta chain whose batches make
// key groups form and dissolve (young generations), across the folds that
// give a fork a flat part of its own again, after which WithDelta unlinks
// and files in place.
func TestKeyIndexDupsMatchRecount(t *testing.T) {
	colsets := [][]int{{0}, {1}, {0, 1}}
	r := New("R", abSchema())
	for i := range 200 {
		r.Insert(Tuple{Int(int64(i)), Int(int64(i % 50))}) //nolint:errcheck // arity matches
	}
	unique, repeated := 0, 0
	check := func(step int) {
		t.Helper()
		for _, cols := range colsets {
			got, want := r.KeyIndex(cols).Dups(), recountDups(r, cols)
			if got != want {
				t.Fatalf("step %d: the index on %v counts %d duplicates, a recount %d", step, cols, got, want)
			}
			if len(cols) == 1 && cols[0] == 0 {
				if got == 0 {
					unique++
				} else {
					repeated++
				}
			}
		}
	}
	check(-1)
	for i := range 60 {
		r.Insert(Tuple{Int(int64(200 + i)), Int(int64(i % 70))}) //nolint:errcheck // arity matches
		check(-1)
	}
	rng := rand.New(rand.NewSource(1))
	folds := 0
	for step := range 160 {
		var ins, del []Tuple
		for range rng.Intn(10) {
			ins = append(ins, Tuple{Int(rng.Int63n(280)), Int(rng.Int63n(80))})
		}
		rows := r.Tuples()
		for range rng.Intn(10) {
			del = append(del, rows[rng.Intn(len(rows))])
		}
		if step%40 == 39 { // take every repeated key out again
			seen := map[int64]bool{}
			for _, u := range rows {
				if k := u[0].AsInt(); seen[k] {
					del = append(del, u)
				} else {
					seen[k] = true
				}
			}
			ins = nil
		}
		var err error
		if r, err = r.WithDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		if !r.kidx.all[0].frozen {
			folds++
		}
		check(step)
	}
	if folds == 0 || unique == 0 || repeated == 0 {
		t.Fatalf("%d folds, K unique at %d steps and repeated at %d; want each above zero", folds, unique, repeated)
	}
}
