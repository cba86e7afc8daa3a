package plan

import (
	"context"
	"testing"

	"repro/internal/relation"
)

// TestIndexLookupBuildsNoFlatImage pins that a probe hop reads the rows it
// matched one at a time: 16 keys looked up in a freshly landed 64k-row
// relation must leave the relation's flat image (Tuples) unbuilt, or every
// hop of a maintenance batch would copy the relation.
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
	scan, err := NewScan(landed, "R", landed.Card())
	if err != nil {
		t.Fatal(err)
	}
	left, err := NewBatchScan(relation.MustSchema(relation.TypeInt, "D.K", "D.A"), relation.NewColumnBatch(delta, 2))
	if err != nil {
		t.Fatal(err)
	}
	lookup, err := NewIndexLookup(left, scan, []relation.Clause{relation.AttrAttr("D.K", relation.OpEQ, "R.K")}, nil, len(delta))
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
	calls := 0
	if allocs := testing.AllocsPerRun(1, func() {
		if calls++; calls == 2 {
			landed.Tuples()
		}
	}); allocs == 0 {
		t.Error("the probe hop built the landed relation's flat image")
	}
}
