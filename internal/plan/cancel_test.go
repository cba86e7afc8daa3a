package plan

import (
	"context"
	"errors"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
)

// cancelNode passes its child through and fires a cancellation the first
// time it executes — a deterministic way to cancel "mid-plan", after the
// operators below it ran and before the operators above it consume their
// input.
type cancelNode struct {
	child  Node
	cancel context.CancelFunc
}

func (c *cancelNode) Schema() *relation.Schema { return c.child.Schema() }
func (c *cancelNode) exec(ctx context.Context) (*vframe, error) {
	fr, err := c.child.exec(ctx)
	c.cancel()
	return fr, err
}
func (c *cancelNode) EstRows() int     { return c.child.EstRows() }
func (c *cancelNode) Children() []Node { return []Node{c.child} }
func (c *cancelNode) Label() string    { return "CancelTrigger" }

// TestExecuteCancelledMidPlan cancels between two operators of a running
// plan and checks that execution aborts with ctx.Err() instead of
// completing: the filter above the trigger polls the context on its first
// input batch and must refuse to produce rows.
func TestExecuteCancelledMidPlan(t *testing.T) {
	base := relation.New("R", relation.NewSchema(
		relation.Attribute{Name: "A", Type: relation.TypeInt},
	))
	for i := int64(0); i < 100; i++ {
		if err := base.Insert(relation.Tuple{relation.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	scan := scanOf(base, "R", base.Card())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	filter, err := NewFilter(
		&cancelNode{child: scan, cancel: cancel},
		relation.AttrConst("R.A", relation.OpGE, relation.Int(0)),
		base.Card(),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{View: "V", Root: NewDedup(filter, "V", base.Card())}

	out, err := p.Execute(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute = (%v, %v), want context.Canceled", out, err)
	}
	if out != nil {
		t.Fatal("a cancelled execution must not return a partial extent")
	}
}

// pollBudgetCtx is a context that reports Canceled after a fixed number of
// Err polls — the deterministic way to cancel "mid-batch": the N-th poll of
// the columnar executor (between chunks, inside kernels, at join probes)
// observes the cancellation, wherever in the operator tree it happens to
// land.
type pollBudgetCtx struct {
	context.Context
	budget int64
}

func (c *pollBudgetCtx) Err() error {
	c.budget--
	if c.budget < 0 {
		return context.Canceled
	}
	return nil
}

// columnarCancelPlan compiles a two-relation hash-join view
// with filters over enough rows to span several chunks at the test's
// shrunken vecChunk, covering every poll site: scan ticks, filter kernels,
// join build/probe ticks, and dedup. R has rRows rows and S 400, row i
// keyed i mod keys. With filterS the join's right input is a filtered
// scan, which the join indexes itself (relation.IndexRows); without, it is
// the bare scan of S, whose memoized key index the join borrows and probes.
func columnarCancelPlan(t *testing.T, filterS bool, keys, rRows int64) *Plan {
	t.Helper()
	mk := func(name string, attrs [2]string, n int64) *relation.Relation {
		r := relation.New(name, relation.NewSchema(
			relation.Attribute{Name: attrs[0], Type: relation.TypeInt},
			relation.Attribute{Name: attrs[1], Type: relation.TypeInt},
		))
		for i := int64(0); i < n; i++ {
			if err := r.Insert(relation.Tuple{relation.Int(i % keys), relation.Int(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	r := mk("R", [2]string{"A", "B"}, rRows)
	s := mk("S", [2]string{"C", "D"}, 400)
	src := `CREATE VIEW V AS SELECT R.B, S.D FROM R, S WHERE R.A = S.C AND R.B >= 0`
	if filterS {
		src += ` AND S.D < 1000000`
	}
	p, err := CompileCatalog(esql.MustParse(src), staticCatalog{
		rels:  map[string]*relation.Relation{"R": r, "S": s},
		cards: map[string]int{"R": r.Card(), "S": s.Card()},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := p.Root.child.(*Project).child.(*HashJoin)
	if !ok {
		t.Fatalf("the plan joins through %T, want a HashJoin:\n%s", p.Root.child.(*Project).child, p.Explain())
	}
	if _, bare := j.right.(*Scan); bare == filterS {
		t.Fatalf("the join's right input is a %T; want a bare scan: %v\n%s", j.right, !filterS, p.Explain())
	}
	return p
}

// TestColumnarCancelEveryPollSite sweeps the poll budget from zero to
// beyond completion: every budget that cancels mid-execution must return
// (nil, context.Canceled) — never a partial extent — and the first budget
// that completes must return exactly the uncancelled result. Shrinking
// vecChunk forces many batch boundaries, so cancellations land inside
// scans, filter kernels, the join's index build and its probe and emit
// loops — over a transient index and over a borrowed one — and the dedup.
// In the fan-out case the whole probe side is one block of the borrowed
// index's probe, whose duplicate keys fan out to many times vecChunk
// candidates, so a candidate poll lands in that block.
func TestColumnarCancelEveryPollSite(t *testing.T) {
	old := vecChunk
	vecChunk = 64
	t.Cleanup(func() { vecChunk = old })

	for _, c := range []struct {
		name        string
		filterS     bool
		keys, rRows int64
	}{{"transient", true, 101, 600}, {"borrowed", false, 101, 600}, {"fan-out", false, 2, 40}} {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "fan-out" && (c.rRows > relation.BlockRows || c.rRows*(400/c.keys) <= int64(vecChunk)) {
				t.Fatalf("%d probe rows, %d matches each: not one block fanning out past vecChunk (%d)", c.rRows, 400/c.keys, vecChunk)
			}
			p := columnarCancelPlan(t, c.filterS, c.keys, c.rRows)
			want, err := p.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			// Count the polls one full run consumes.
			probe := &pollBudgetCtx{Context: context.Background(), budget: 1 << 30}
			if _, err := p.Execute(probe); err != nil {
				t.Fatal(err)
			}
			total := int64(1<<30) - probe.budget
			if total < 10 {
				t.Fatalf("only %d polls for a multi-chunk plan; chunk wiring broken?", total)
			}

			for budget := int64(0); budget < total; budget++ {
				ctx := &pollBudgetCtx{Context: context.Background(), budget: budget}
				out, err := p.Execute(ctx)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("budget %d/%d: err = %v, want context.Canceled", budget, total, err)
				}
				if out != nil {
					t.Fatalf("budget %d/%d: cancelled execution returned a partial extent", budget, total)
				}
			}
			out, err := p.Execute(&pollBudgetCtx{Context: context.Background(), budget: total})
			if err != nil {
				t.Fatalf("budget %d (full): %v", total, err)
			}
			if !out.Equal(want) {
				t.Fatal("full-budget run diverges from uncancelled result")
			}
		})
	}
}

// TestColumnarCancelChunkAligned pins that the default chunk size also
// polls: with the production vecChunk a mid-batch poll budget still cancels
// rather than running to completion.
func TestColumnarCancelChunkAligned(t *testing.T) {
	p := columnarCancelPlan(t, true, 101, 600)
	out, err := p.Execute(&pollBudgetCtx{Context: context.Background(), budget: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled execution returned a partial extent")
	}
}

// TestExecutePreCancelled pins the fast path: an already-cancelled context
// aborts before the scan produces anything.
func TestExecutePreCancelled(t *testing.T) {
	base := relation.New("R", relation.NewSchema(
		relation.Attribute{Name: "A", Type: relation.TypeInt},
	))
	if err := base.Insert(relation.Tuple{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	scan := scanOf(base, "R", 1)
	p := &Plan{View: "V", Root: NewDedup(scan, "V", 1)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
