package maintain

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/space"
)

// defaultBfr is the cost model's default blocking factor, the one every
// maintainer in these tests prices scans with.
var defaultBfr = core.DefaultCostModel().Bfr()

// joinSpace builds IS1: R(A,B), IS2: S(A,C) and the join view
// V = SELECT R.B, S.C FROM R, S WHERE R.A = S.A.
func joinSpace(t *testing.T) (*space.Space, *Maintainer) {
	t.Helper()
	sp := space.New()
	for _, s := range []string{"IS1", "IS2"} {
		if _, err := sp.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10}, []int64{2, 20})...)
	s := relation.MustFromRows("S", relation.MustSchema(relation.TypeInt, "A", "C"),
		relation.IntRows([]int64{1, 100}, []int64{3, 300})...)
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS2", s); err != nil {
		t.Fatal(err)
	}
	v := esql.MustParse("CREATE VIEW V AS SELECT R.B, S.C FROM R, S WHERE R.A = S.A")
	q, err := exec.Qualify(v, sp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := exec.Evaluate(context.Background(), q, sp)
	if err != nil {
		t.Fatal(err)
	}
	return sp, New(sp, q, ext, defaultBfr)
}

// recompute reruns the executor and compares with the incrementally
// maintained extent.
func recompute(t *testing.T, sp *space.Space, m *Maintainer) {
	t.Helper()
	fresh, err := exec.Evaluate(context.Background(), m.View, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Equal(m.Extent) {
		t.Fatalf("incremental extent diverged:\nmaintained:\n%s\nrecomputed:\n%s", m.Extent, fresh)
	}
}

func TestInsertPropagates(t *testing.T) {
	sp, m := joinSpace(t)
	if m.Extent.Card() != 1 {
		t.Fatalf("initial extent = %d", m.Extent.Card())
	}
	// Insert R(3, 30): joins S(3, 300) → view gains (30, 300).
	metrics, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(3), relation.Int(30)}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Extent.Card() != 2 {
		t.Errorf("extent after insert = %d, want 2", m.Extent.Card())
	}
	recompute(t, sp, m)
	// Messages: notification + (query to IS2 + result). IS1 holds no other
	// view relation, so no round trip there.
	if metrics.Messages != 3 {
		t.Errorf("messages = %d, want 3", metrics.Messages)
	}
	if metrics.Bytes == 0 || metrics.IO == 0 {
		t.Errorf("metrics not collected: %+v", metrics)
	}
}

func TestInsertNonJoiningTuple(t *testing.T) {
	sp, m := joinSpace(t)
	_, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(99), relation.Int(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Extent.Card() != 1 {
		t.Errorf("non-joining insert changed the view: %d", m.Extent.Card())
	}
	recompute(t, sp, m)
}

func TestDeletePropagates(t *testing.T) {
	sp, m := joinSpace(t)
	_, err := m.Apply(context.Background(), Update{Kind: Delete, Rel: "S", Tuple: relation.Tuple{relation.Int(1), relation.Int(100)}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Extent.Card() != 0 {
		t.Errorf("extent after delete = %d, want 0", m.Extent.Card())
	}
	recompute(t, sp, m)
}

func TestNoopUpdates(t *testing.T) {
	sp, m := joinSpace(t)
	// Inserting an existing tuple and deleting a missing tuple are no-ops
	// beyond the notification.
	metrics, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(1), relation.Int(10)}})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Messages != 1 {
		t.Errorf("no-op insert messages = %d, want 1", metrics.Messages)
	}
	metrics, err = m.Apply(context.Background(), Update{Kind: Delete, Rel: "S", Tuple: relation.Tuple{relation.Int(9), relation.Int(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Messages != 1 {
		t.Errorf("no-op delete messages = %d, want 1", metrics.Messages)
	}
	recompute(t, sp, m)
}

func TestUpdateToUnreferencedRelation(t *testing.T) {
	sp, m := joinSpace(t)
	extra := relation.New("X", relation.MustSchema(relation.TypeInt, "K"))
	if err := sp.AddRelation("IS1", extra); err != nil {
		t.Fatal(err)
	}
	_, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "X", Tuple: relation.Tuple{relation.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Relation("X").Card() != 1 {
		t.Error("base update not applied")
	}
	recompute(t, sp, m)
}

func TestUnknownRelationErrors(t *testing.T) {
	_, m := joinSpace(t)
	if _, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "Nope", Tuple: relation.Tuple{relation.Int(1)}}); err == nil {
		t.Error("unknown relation should error")
	}
}

// TestUpdateStreamConvergence drives a deterministic stream of inserts and
// deletes and checks the incrementally maintained extent equals a fresh
// recomputation after every step.
func TestUpdateStreamConvergence(t *testing.T) {
	sp, m := joinSpace(t)
	stream := []Update{
		{Insert, "R", relation.Tuple{relation.Int(3), relation.Int(30)}},
		{Insert, "S", relation.Tuple{relation.Int(2), relation.Int(200)}},
		{Insert, "S", relation.Tuple{relation.Int(2), relation.Int(201)}},
		{Delete, "R", relation.Tuple{relation.Int(1), relation.Int(10)}},
		{Insert, "R", relation.Tuple{relation.Int(1), relation.Int(11)}},
		{Delete, "S", relation.Tuple{relation.Int(3), relation.Int(300)}},
		{Delete, "R", relation.Tuple{relation.Int(3), relation.Int(30)}},
	}
	for i, u := range stream {
		if _, err := m.Apply(context.Background(), u); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		fresh, err := exec.Evaluate(context.Background(), m.View, sp)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !fresh.Equal(m.Extent) {
			t.Fatalf("step %d: diverged\nmaintained:\n%s\nrecomputed:\n%s", i, m.Extent, fresh)
		}
	}
}

// TestLocalConditionFiltersDelta checks that a constant condition on the
// updated relation prunes non-qualifying updates before any site visit.
func TestLocalConditionFiltersDelta(t *testing.T) {
	sp := space.New()
	sp.AddSource("IS1") //nolint:errcheck
	r := relation.MustFromRows("R", relation.MustSchema(relation.TypeInt, "A", "B"),
		relation.IntRows([]int64{1, 10})...)
	sp.AddRelation("IS1", r) //nolint:errcheck
	v := esql.MustParse("CREATE VIEW V AS SELECT R.A FROM R WHERE R.B > 100")
	q, err := exec.Qualify(v, sp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := exec.Evaluate(context.Background(), q, sp)
	if err != nil {
		t.Fatal(err)
	}
	m := New(sp, q, ext, defaultBfr)
	if _, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(2), relation.Int(50)}}); err != nil {
		t.Fatal(err)
	}
	if m.Extent.Card() != 0 {
		t.Errorf("filtered tuple leaked into the view: %d", m.Extent.Card())
	}
	if _, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(3), relation.Int(500)}}); err != nil {
		t.Fatal(err)
	}
	if m.Extent.Card() != 1 {
		t.Errorf("qualifying tuple missing: %d", m.Extent.Card())
	}
	recompute(t, sp, m)
}

// TestMeasuredMessagesMatchAnalyticModel compares the simulator's message
// count for a two-site join view against the analytic CF_M (with the
// notification counted): m = 2, n1 = 0 → 2(m−1) + 1 = 3.
func TestMeasuredMessagesMatchAnalyticModel(t *testing.T) {
	_, m := joinSpace(t)
	metrics, err := m.Apply(context.Background(), Update{Kind: Insert, Rel: "R", Tuple: relation.Tuple{relation.Int(3), relation.Int(30)}})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Messages != 3 {
		t.Errorf("measured messages = %d, analytic CF_M = 3", metrics.Messages)
	}
}

// TestMultiSupportDelete checks the counting-style correctness case: a view
// row derivable from two base combinations must survive the deletion of one
// of them.
func TestMultiSupportDelete(t *testing.T) {
	sp, m := joinSpace(t)
	// R(1,10) ⋈ S(1,100) yields (10,100). Add R(5,10) and S(5,100): the
	// same view row (10,100) gains a second derivation.
	for _, u := range []Update{
		{Insert, "R", relation.Tuple{relation.Int(5), relation.Int(10)}},
		{Insert, "S", relation.Tuple{relation.Int(5), relation.Int(100)}},
	} {
		if _, err := m.Apply(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Extent.Contains(relation.Tuple{relation.Int(10), relation.Int(100)}) {
		t.Fatal("setup failed: view row missing")
	}
	// Delete one derivation; the row must survive.
	if _, err := m.Apply(context.Background(), Update{Kind: Delete, Rel: "R", Tuple: relation.Tuple{relation.Int(1), relation.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	if !m.Extent.Contains(relation.Tuple{relation.Int(10), relation.Int(100)}) {
		t.Error("multi-supported row wrongly removed")
	}
	recompute(t, sp, m)
	// Delete the second derivation; now the row must go.
	if _, err := m.Apply(context.Background(), Update{Kind: Delete, Rel: "R", Tuple: relation.Tuple{relation.Int(5), relation.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	if m.Extent.Contains(relation.Tuple{relation.Int(10), relation.Int(100)}) {
		t.Error("unsupported row survived")
	}
	recompute(t, sp, m)
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Messages: 1, Bytes: 2, IO: 3}
	a.Add(Metrics{Messages: 10, Bytes: 20, IO: 30})
	if a.Messages != 11 || a.Bytes != 22 || a.IO != 33 {
		t.Errorf("Add = %+v", a)
	}
}
