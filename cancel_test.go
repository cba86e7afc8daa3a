package eve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// syncCanceller cancels a context from the first OnSync hook — after a
// view's rewritings ranked, before the change lands — the deterministic
// "mid-EvolveBatch" point.
type syncCanceller struct {
	NopObserver
	once   sync.Once
	cancel context.CancelFunc
}

func (c *syncCanceller) OnSync(string, *core.Ranking) { c.once.Do(c.cancel) }

// TestEvolveBatchCancelWideScenario cancels mid-EvolveBatch on a wide view
// (12 dispensable attributes, full drop-variant spectrum) and checks the
// public contract: prompt return with context.Canceled, no change landed
// (the space and the view are untouched), and no goroutine leaked from the
// worker pools.
func TestEvolveBatchCancelWideScenario(t *testing.T) {
	before := runtime.NumGoroutine()

	const width = 12
	sp, err := scenario.WideSpace(width, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys, err := New(
		WithSpace(sp),
		WithDropVariants(true),
		WithMaxDropVariants(1<<width),
		WithObserver(&syncCanceller{cancel: cancel}),
	)
	if err != nil {
		t.Fatal(err)
	}
	view, err := sys.RegisterView(context.Background(), scenario.WideView(width))
	if err != nil {
		t.Fatal(err)
	}
	sigBefore := view.Def.Signature()

	steps, err := sys.EvolveBatch(ctx, []Change{DeleteRelation("W0")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(steps) != 0 {
		t.Fatalf("%d steps landed after a phase-1 cancellation, want 0", len(steps))
	}
	if sys.Space.Relation("W0") == nil {
		t.Fatal("cancelled change still landed: W0 is gone")
	}
	view = sys.Snapshot().View(view.Name)
	if got := view.Def.Signature(); got != sigBefore {
		t.Fatalf("cancelled change still adopted:\nbefore: %s\nafter:  %s", sigBefore, got)
	}
	if view.Deceased {
		t.Fatal("cancelled change deceased the view")
	}

	// Worker pools must have drained: allow the scheduler a moment, then
	// require the goroutine count back at its baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after — pipeline leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvaluateCancelWideScenario cancels an Evaluate mid-execution on a
// deliberately expensive cross join and checks prompt abort with
// context.Canceled. The pre-cancelled case is exact; the mid-flight case
// allows the evaluation a short head start and requires it to stop at the
// next in-operator cancellation check.
func TestEvaluateCancelWideScenario(t *testing.T) {
	sp := NewSpace()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	mk := func(name, attr string, n int64) {
		r := NewRelation(name, NewSchema(Attribute{Name: attr, Type: TypeInt}))
		for i := int64(0); i < n; i++ {
			if err := r.Insert(Tuple{Int(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.AddRelation("IS1", r); err != nil {
			t.Fatal(err)
		}
	}
	// No join constraint and no equi-clause: the planner falls back to a
	// nested-loop cross join of 1200×1200 = 1.44M combinations.
	mk("L", "A", 1200)
	mk("R", "B", 1200)
	view := MustParseView(`CREATE VIEW Big AS SELECT L.A, R.B FROM L, R`)

	// Exact case: a context cancelled before the call returns immediately.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := Evaluate(pre, view, sp); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Evaluate err = %v, want context.Canceled", err)
	}

	// Mid-flight case: cancel shortly after the evaluation starts. The
	// join polls the context every few thousand rows, so the call must
	// return cancelled long before materializing all 1.44M combinations.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	ext, err := Evaluate(ctx, view, sp)
	if err == nil {
		// A machine fast enough to finish 1.44M-row materialization before
		// the 2ms cancellation does not exercise the mid-flight path; the
		// pre-cancelled and plan-level tests still cover the contract.
		t.Logf("evaluation finished in %v before the cancellation fired (%d tuples)", time.Since(start), ext.Card())
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight Evaluate err = %v, want context.Canceled", err)
	}
	if ext != nil {
		t.Fatal("cancelled Evaluate must not return a partial extent")
	}
}

// TestApplyChangeCancelDuringPhase1 pins the warehouse-level commit-point
// rule at the public surface: cancelling while phase 1 ranks leaves the
// space and every view untouched — ApplyChange either did nothing or did
// everything.
func TestApplyChangeCancelDuringPhase1(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys := buildPartsSystem(t, WithObserver(&syncCanceller{cancel: cancel}))
	view, err := sys.DefineView(context.Background(), `
		CREATE VIEW Catalog (VE = ~) AS
		SELECT P.PartID (AR = true), P.Name (AR = true)
		FROM Parts P (RR = true)`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.ApplyChange(ctx, DeleteRelation("Parts"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("cancelled ApplyChange must not report results")
	}
	if sys.Space.Relation("Parts") == nil {
		t.Fatal("cancelled change still landed")
	}
	if view = sys.Snapshot().View("Catalog"); view.Def.From[0].Rel != "Parts" {
		t.Fatalf("cancelled change still adopted: FROM %s", view.Def.From[0].Rel)
	}
	// Retrying with a live context succeeds — cancellation left no debris.
	if _, err := sys.ApplyChange(context.Background(), DeleteRelation("Parts")); err != nil {
		t.Fatal(err)
	}
	if view = sys.Snapshot().View("Catalog"); view.Def.From[0].Rel != "PartsMirror" {
		t.Fatalf("retry adopted %q", view.Def.From[0].Rel)
	}
}

// errPollCtx reports Canceled after a fixed number of Err polls — the
// deterministic public-surface probe for the columnar executor's mid-batch
// cancellation points (scan ticks, filter kernels, join build and probe
// loops, dedup).
type errPollCtx struct {
	context.Context
	budget int
}

func (c *errPollCtx) Err() error {
	c.budget--
	if c.budget < 0 {
		return context.Canceled
	}
	return nil
}

// TestEvaluateColumnarMidBatchCancel drives the vectorized hash-join path
// through the public Evaluate surface and cancels at deterministic poll
// counts: every mid-batch cancellation must return (nil, context.Canceled)
// — the landed-prefix rule admits no partially materialized extent — and
// the columnar executor must not leak goroutines (it runs entirely on the
// caller's).
func TestEvaluateColumnarMidBatchCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	sp := NewSpace()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, a1, a2 string, n int64) {
		r := NewRelation(name, NewSchema(
			Attribute{Name: a1, Type: TypeInt},
			Attribute{Name: a2, Type: TypeInt},
		))
		for i := int64(0); i < n; i++ {
			if err := r.Insert(Tuple{Int(i % 257), Int(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.AddRelation("IS1", r); err != nil {
			t.Fatal(err)
		}
	}
	mk("L", "A", "B", 9000)
	mk("R", "C", "D", 9000)
	view := MustParseView(`CREATE VIEW Big AS SELECT L.B, R.D FROM L, R WHERE L.A = R.C`)

	// The equi-join vectorizes into multiple chunk-sized batches at every
	// operator, so small poll budgets land inside scans, the join build,
	// probe emit loops, and the dedup.
	for budget := 0; budget <= 8; budget++ {
		ext, err := Evaluate(&errPollCtx{Context: context.Background(), budget: budget}, view, sp)
		if err == nil {
			t.Logf("budget %d: evaluation completed (%d tuples); later budgets will too", budget, ext.Card())
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		if ext != nil {
			t.Fatalf("budget %d: cancelled Evaluate returned a partial extent", budget)
		}
	}

	// An unrestricted run still completes after all those aborts.
	ext, err := Evaluate(context.Background(), view, sp)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Card() == 0 {
		t.Fatal("join produced no rows; fixture broken")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after — columnar evaluation leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
