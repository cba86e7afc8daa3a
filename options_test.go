package eve

import (
	"context"
	"errors"
	"testing"
)

// TestNewDefaultsMatchNewSystem: New() with no options is a new system on
// the paper's defaults.
func TestNewDefaultsMatchNewSystem(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tradeoff() != DefaultTradeoff() {
		t.Errorf("Tradeoff = %+v, want the paper default %+v", sys.Tradeoff(), DefaultTradeoff())
	}
	if sys.CostModel() != DefaultCostModel() {
		t.Errorf("Cost = %+v, want the paper default %+v", sys.CostModel(), DefaultCostModel())
	}
	if sys.TopK() != 0 || sys.Workers() != 0 {
		t.Errorf("TopK/Workers = %d/%d, want 0/0", sys.TopK(), sys.Workers())
	}
	if sys.Config().DropVariants {
		t.Error("drop variants should default off")
	}
}

func TestNewAppliesOptions(t *testing.T) {
	sp := NewSpace()
	tr := DefaultTradeoff()
	tr.W1, tr.W2 = 0.6, 0.4
	m := &MetricsObserver{}
	sys, err := New(
		WithSpace(sp),
		WithTopK(5),
		WithWorkers(3),
		WithTradeoff(tr),
		WithCostModel(DefaultCostModel()),
		WithDropVariants(true),
		WithMaxDropVariants(7),
		WithObserver(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Space != sp {
		t.Error("WithSpace not applied")
	}
	if sys.TopK() != 5 || sys.Workers() != 3 {
		t.Errorf("TopK/Workers = %d/%d", sys.TopK(), sys.Workers())
	}
	if sys.Tradeoff().W1 != 0.6 {
		t.Errorf("Tradeoff.W1 = %g", sys.Tradeoff().W1)
	}
	if c := sys.Config(); !c.DropVariants || c.MaxDropVariants != 7 {
		t.Errorf("drop variants = %v cap %d, want true cap 7", c.DropVariants, c.MaxDropVariants)
	}
}

func TestNewValidatesOptions(t *testing.T) {
	badTradeoff := DefaultTradeoff()
	badTradeoff.W1 = 2.5 // weights must stay in range; Validate rejects this

	cases := []struct {
		name string
		opts []Option
	}{
		{"negative topk", []Option{WithTopK(-1)}},
		{"negative workers", []Option{WithWorkers(-4)}},
		{"nil space", []Option{WithSpace(nil)}},
		{"nil observer", []Option{WithObserver(nil)}},
		{"nil option", []Option{nil}},
		{"invalid tradeoff", []Option{WithTradeoff(badTradeoff)}},
		{"zero max variants", []Option{WithDropVariants(true), WithMaxDropVariants(0)}},
		{"cap without spectrum", []Option{WithMaxDropVariants(5)}},
	}
	for _, tc := range cases {
		sys, err := New(tc.opts...)
		if !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", tc.name, err)
		}
		if sys != nil {
			t.Errorf("%s: got a system despite the invalid option", tc.name)
		}
	}
}

func TestNewSystemWorksEndToEnd(t *testing.T) {
	// The options path must produce a fully working system: the quickstart
	// flow through New.
	base := buildPartsSystem(t)
	m := &MetricsObserver{}
	sys, err := New(WithSpace(base.Space), WithObserver(m), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	view, err := sys.DefineView(context.Background(), `
		CREATE VIEW Catalog (VE = ~) AS
		SELECT P.PartID (AR = true), P.Name (AR = true), P.Price (AD = true)
		FROM Parts P (RR = true)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyChange(context.Background(), DeleteRelation("Parts")); err != nil {
		t.Fatal(err)
	}
	if view.Def.From[0].Rel != "PartsMirror" {
		t.Errorf("adopted %q", view.Def.From[0].Rel)
	}
	if m.Changes() != 1 || m.Adopts() != 1 {
		t.Errorf("observer: changes=%d adopts=%d, want 1/1", m.Changes(), m.Adopts())
	}
}

func TestGetViewTypedErrors(t *testing.T) {
	sys := buildPartsSystem(t)
	if _, err := sys.DefineView(context.Background(), `CREATE VIEW V AS SELECT P.Name FROM Parts P`); err != nil {
		t.Fatal(err)
	}
	if v, err := sys.GetView("V"); err != nil || v == nil {
		t.Fatalf("GetView(V) = %v, %v", v, err)
	}
	if _, err := sys.GetView("Nope"); !errors.Is(err, ErrViewNotFound) {
		t.Errorf("GetView(Nope) err = %v, want ErrViewNotFound", err)
	}
	// The view has no evolution parameters, so deleting Parts deceases it.
	results, err := sys.ApplyChange(context.Background(), DeleteRelation("Parts"))
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Deceased {
		t.Fatal("view should have deceased")
	}
	if err := results[0].Err(); !errors.Is(err, ErrNoRewriting) {
		t.Errorf("SyncResult.Err = %v, want ErrNoRewriting", err)
	}
	if _, err := sys.GetView("V"); !errors.Is(err, ErrViewDeceased) {
		t.Errorf("GetView(V) err = %v, want ErrViewDeceased", err)
	}
	// Duplicate registration.
	if _, err := sys.DefineView(context.Background(), `CREATE VIEW V AS SELECT M.ID FROM PartsMirror M`); !errors.Is(err, ErrDuplicateView) {
		t.Errorf("duplicate DefineView err = %v, want ErrDuplicateView", err)
	}
}

func TestParseErrorCarriesOffset(t *testing.T) {
	_, err := ParseView(`CREATE VIEW V AS SELECT FROM R`)
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v (%T), want *ParseError", err, err)
	}
	if perr.Offset <= 0 {
		t.Errorf("ParseError.Offset = %d, want a position inside the source", perr.Offset)
	}
}

func TestChangeErrorCarriesChange(t *testing.T) {
	sys := buildPartsSystem(t)
	bogus := DeleteRelation("NoSuchRelation")
	_, err := sys.ApplyChange(context.Background(), bogus)
	var cerr *ChangeError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v (%T), want *ChangeError", err, err)
	}
	if cerr.Change != bogus {
		t.Errorf("ChangeError.Change = %v, want %v", cerr.Change, bogus)
	}
}
