package eve_test

import (
	"context"
	"errors"
	"fmt"
	"slices"

	eve "repro"
)

// buildSpace assembles a two-source space with a replica and the PC
// constraint describing it.
func buildSpace() *eve.Space {
	sp := eve.NewSpace()
	sp.AddSource("IS1") //nolint:errcheck
	sp.AddSource("IS2") //nolint:errcheck
	orders := eve.NewRelation("Orders", eve.NewSchema(
		eve.Attribute{Name: "ID", Type: eve.TypeInt},
		eve.Attribute{Name: "Item", Type: eve.TypeString},
	))
	archive := eve.NewRelation("Archive", eve.NewSchema(
		eve.Attribute{Name: "OID", Type: eve.TypeInt},
		eve.Attribute{Name: "What", Type: eve.TypeString},
	))
	for i, item := range []string{"anvil", "rocket", "magnet"} {
		id := eve.Int(int64(i + 1))
		orders.Insert(eve.Tuple{id, eve.Str(item)})  //nolint:errcheck
		archive.Insert(eve.Tuple{id, eve.Str(item)}) //nolint:errcheck
	}
	sp.AddRelation("IS1", orders)              //nolint:errcheck
	sp.AddRelation("IS2", archive)             //nolint:errcheck
	sp.MKB().AddPCConstraint(eve.PCConstraint{ //nolint:errcheck
		Left:  eve.Fragment{Rel: eve.RelRef{Rel: "Orders"}, Attrs: []string{"ID", "Item"}},
		Right: eve.Fragment{Rel: eve.RelRef{Rel: "Archive"}, Attrs: []string{"OID", "What"}},
		Rel:   eve.Equal,
	})
	return sp
}

// Example demonstrates the full lifecycle: define an evolvable view, lose
// its base relation, and let the QC-Model pick the replacement.
func Example() {
	sys, err := eve.New(eve.WithSpace(buildSpace()))
	if err != nil {
		fmt.Println(err)
		return
	}
	view, err := sys.DefineView(context.Background(), `
		CREATE VIEW Open (VE = ~) AS
		SELECT O.ID (AR = true), O.Item (AR = true)
		FROM Orders O (RR = true)`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("tuples before:", view.Extent.Card())

	results, err := sys.ApplyChange(context.Background(), eve.DeleteRelation("Orders"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("rewritings:", len(results[0].Ranking.Candidates))
	fmt.Println("adopted:", view.Def.From[0].Rel)
	fmt.Println("tuples after:", view.Extent.Card())
	// Output:
	// tuples before: 3
	// rewritings: 1
	// adopted: Archive
	// tuples after: 3
}

// ExampleParseView shows E-SQL parsing and canonical printing.
func ExampleParseView() {
	v, err := eve.ParseView(`CREATE VIEW V (VE = <=) AS
		SELECT R.A (AD = true, AR = true) FROM R (RR = true) WHERE R.A > 10 (CD = true)`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(eve.PrintView(v))
	// Output:
	// CREATE VIEW V (VE = <=) AS
	// SELECT R.A (AD = true, AR = true)
	// FROM R (RR = true)
	// WHERE (R.A > 10) (CD = true)
}

// ExampleDefaultTradeoff shows the paper's default QC-Model parameters.
func ExampleDefaultTradeoff() {
	t := eve.DefaultTradeoff()
	fmt.Printf("w1=%.1f w2=%.1f rho_quality=%.1f rho_cost=%.1f\n",
		t.W1, t.W2, t.RhoQuality, t.RhoCost)
	// Output:
	// w1=0.7 w2=0.3 rho_quality=0.9 rho_cost=0.1
}

// ExampleNew shows the option-based v2 construction: configuration is
// validated and frozen at New, so an invalid combination fails fast
// instead of silently misbehaving.
func ExampleNew() {
	metrics := &eve.MetricsObserver{}
	sys, err := eve.New(
		eve.WithSpace(buildSpace()),
		eve.WithTopK(3),
		eve.WithDropVariants(true),
		eve.WithObserver(metrics),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := sys.DefineView(context.Background(), `
		CREATE VIEW Open (VE = ~) AS
		SELECT O.ID (AR = true), O.Item (AR = true)
		FROM Orders O (RR = true)`); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := sys.ApplyChange(context.Background(), eve.DeleteRelation("Orders")); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("changes=%d searches=%d adoptions=%d\n",
		metrics.Changes(), metrics.Syncs(), metrics.Adopts())

	// Invalid combinations fail at construction.
	_, err = eve.New(eve.WithTopK(-1))
	fmt.Println("invalid option rejected:", errors.Is(err, eve.ErrInvalidOption))
	// Output:
	// changes=1 searches=1 adoptions=1
	// invalid option rejected: true
}

// ExampleSystem_Stream drives a system from a change feed: consecutive
// compatible changes coalesce into single passes, and one StepResult per
// landed change is yielded in feed order.
func ExampleSystem_Stream() {
	sys, err := eve.New(eve.WithSpace(buildSpace()))
	if err != nil {
		fmt.Println(err)
		return
	}
	view, err := sys.DefineView(context.Background(), `
		CREATE VIEW Open (VE = ~) AS
		SELECT O.ID (AR = true), O.Item (AR = true)
		FROM Orders O (RR = true)`)
	if err != nil {
		fmt.Println(err)
		return
	}
	feed := slices.Values([]eve.Change{
		eve.AddAttribute("Archive", "Note", eve.TypeString),
		eve.DeleteRelation("Orders"),
	})
	for step, err := range sys.Stream(context.Background(), feed) {
		if err != nil {
			fmt.Println("stream error:", err)
			return
		}
		fmt.Printf("%s: %d affected view(s)\n", step.Change, len(step.Results))
	}
	fmt.Println("now reading from:", view.Def.From[0].Rel)
	// Output:
	// add-attribute Archive.Note string: 0 affected view(s)
	// delete-relation Orders: 1 affected view(s)
	// now reading from: Archive
}

// ExampleMetricsObserver shows the ready-made Observer implementation: the
// pipeline reports every change, search, adoption, and decease to it, from
// either driver (ApplyChange or the evolution session).
func ExampleMetricsObserver() {
	metrics := &eve.MetricsObserver{}
	sys, err := eve.New(eve.WithSpace(buildSpace()), eve.WithObserver(metrics))
	if err != nil {
		fmt.Println(err)
		return
	}
	// This view has no evolution preferences at all, so losing its base
	// relation leaves no legal rewriting: it deceases.
	if _, err := sys.DefineView(context.Background(), `CREATE VIEW Doomed AS SELECT O.ID FROM Orders O`); err != nil {
		fmt.Println(err)
		return
	}
	results, err := sys.ApplyChange(context.Background(), eve.DeleteRelation("Orders"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("deceased:", errors.Is(results[0].Err(), eve.ErrNoRewriting))
	fmt.Printf("observed %d decease(s)\n", metrics.Deceases())
	// Output:
	// deceased: true
	// observed 1 decease(s)
}
