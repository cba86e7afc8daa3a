package shard_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	eve "repro"
	"repro/internal/scenario"
)

// populatedSystem builds the churn harness's space with rows rows per
// relation and registers its views on a fresh system.
func populatedSystem(t *testing.T, h *scenario.ChurnHistory, rows int) *eve.System {
	t.Helper()
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, rows); err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, sp)
	for _, def := range h.Views() {
		if _, err := sys.RegisterView(context.Background(), def); err != nil {
			t.Fatalf("register %s: %v", def.Name, err)
		}
	}
	return sys
}

// churnSystem is populatedSystem over a small mixed churn history.
func churnSystem(t *testing.T) (*eve.System, *scenario.ChurnHistory) {
	t.Helper()
	h, err := scenario.Churn(scenario.ChurnParams{
		Families: 3, TwinsPerFamily: 2, Width: 4, Donors: 2,
		Spares: 2, SpareAttrs: 2, Changes: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return populatedSystem(t, h, 40), h
}

// A snapshot lists views in registration order and serves their extents.
func TestSnapshotGlobalOrderAndExtent(t *testing.T) {
	sys, h := churnSystem(t)
	snap := sys.Snapshot()
	want := make([]string, 0, len(h.Views()))
	for _, def := range h.Views() {
		want = append(want, def.Name)
	}
	got := snap.ViewNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ViewNames = %v, want registration order %v", got, want)
	}
	if len(snap.Views()) != len(want) {
		t.Fatalf("Views() returned %d captures, want %d", len(snap.Views()), len(want))
	}
	for _, name := range want {
		ext, err := snap.Extent(name)
		if err != nil {
			t.Fatalf("Extent(%s): %v", name, err)
		}
		if ext.Card() == 0 {
			t.Fatalf("Extent(%s) empty over populated space", name)
		}
		ev, err := eve.Evaluate(context.Background(), snap.View(name).Def, sys.Space)
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", name, err)
		}
		if !ev.Equal(ext) {
			t.Fatalf("Evaluate(%s) over the space differs from the extent:\n%s\n%s", name, ev, ext)
		}
	}
	if _, err := snap.Extent("NOPE"); !errors.Is(err, eve.ErrViewNotFound) {
		t.Fatalf("Extent(unknown): err = %v, want ErrViewNotFound", err)
	}
	if snap.View("NOPE") != nil {
		t.Fatal("View(unknown) != nil")
	}
	if len(snap.RelationNames()) == 0 {
		t.Fatal("RelationNames empty")
	}
}

// Every write reports its per-view results in view registration order,
// however the worker pool interleaved the views' synchronization.
func TestWriteMergeOrdering(t *testing.T) {
	sys, h := churnSystem(t)
	order := make(map[string]int)
	for i, def := range h.Views() {
		order[def.Name] = i
	}
	assertOrdered := func(res []eve.SyncResult, what string) {
		t.Helper()
		for i := 1; i < len(res); i++ {
			if order[res[i-1].ViewName] > order[res[i].ViewName] {
				t.Fatalf("%s results out of registration order: %s before %s", what, res[i-1].ViewName, res[i].ViewName)
			}
		}
	}
	res, err := sys.ApplyChange(context.Background(), h.Changes[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("ApplyChange touched no views")
	}
	assertOrdered(res, "ApplyChange")

	steps, err := sys.EvolveBatch(context.Background(), h.Changes[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(h.Changes)-1 {
		t.Fatalf("EvolveBatch landed %d steps, want %d", len(steps), len(h.Changes)-1)
	}
	for k, st := range steps {
		assertOrdered(st.Results, fmt.Sprintf("EvolveBatch step %d", k))
	}
}

// Cancelled contexts fail upfront and leave nothing half-written: the seq
// stays put and a subsequent write still works.
func TestWriteCancellationUpfront(t *testing.T) {
	sys, h := churnSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := sys.Snapshot().Seq()
	if _, err := sys.ApplyChange(ctx, h.Changes[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyChange on cancelled ctx: %v", err)
	}
	if _, err := sys.EvolveBatch(ctx, h.Changes); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvolveBatch on cancelled ctx: %v", err)
	}
	tup := make(eve.Tuple, 5)
	for i := range tup {
		tup[i] = eve.Int(int64(9000 + i))
	}
	if _, err := sys.ApplyUpdates(ctx, []eve.Update{eve.InsertTuple("W1", tup)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyUpdates on cancelled ctx: %v", err)
	}
	if after := sys.Snapshot().Seq(); after != before {
		t.Fatalf("cancelled writes moved seq: %d -> %d", before, after)
	}
	if _, err := sys.ApplyChange(context.Background(), h.Changes[0]); err != nil {
		t.Fatalf("write after cancelled write: %v", err)
	}
}

// An invalid change is rejected and the system keeps serving afterwards.
func TestDeterministicWriteFailure(t *testing.T) {
	sys, _ := churnSystem(t)
	if _, err := sys.ApplyChange(context.Background(), eve.DeleteRelation("NO_SUCH_REL")); err == nil {
		t.Fatal("invalid change accepted")
	}
	if _, err := sys.Query(context.Background(), "SELECT W1.A1 FROM W1"); err != nil {
		t.Fatalf("query after failed write: %v", err)
	}
}

// A query over an unknown base relation is an error, not an empty answer.
func TestQueryUnknownRelation(t *testing.T) {
	sys, _ := churnSystem(t)
	if _, err := sys.Query(context.Background(), "SELECT NOPE.X FROM NOPE"); err == nil {
		t.Fatal("query over unknown relation succeeded")
	}
}

// The view registry pins with the snapshot: a view registered after
// Snapshot() is invisible to that snapshot but visible to the next.
func TestSnapshotPinsRegistry(t *testing.T) {
	sys, _ := churnSystem(t)
	old := sys.Snapshot()
	if _, err := sys.DefineView(context.Background(), `CREATE VIEW VLATE (VE = ~) AS SELECT W1.A1, W1.A2 FROM W1`); err != nil {
		t.Fatal(err)
	}
	if old.View("VLATE") != nil {
		t.Fatal("pre-registration snapshot sees VLATE")
	}
	if sys.Snapshot().View("VLATE") == nil {
		t.Fatal("post-registration snapshot misses VLATE")
	}
}
