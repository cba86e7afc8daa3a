// Travel: the paper's motivating scenario — a warehouse integrating flight
// and hotel information from several web travel agencies. One agency
// withdraws its customer table; a second change later removes a flight
// reservation column. The example shows the view surviving both changes
// and the maintenance metrics of routing data updates afterwards.
package main

import (
	"context"
	"fmt"
	"log"

	eve "repro"

	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)

	sp, err := scenario.TravelSpace(42)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := eve.New(eve.WithSpace(sp))
	if err != nil {
		log.Fatal(err)
	}

	view, err := sys.DefineView(context.Background(), scenario.AsiaCustomerESQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Registered view ==")
	fmt.Println(eve.PrintView(view.Def))
	fmt.Printf("\nExtent: %d tuples\n", view.Extent.Card())

	// Change 1: Agency1 withdraws the Customer relation. The MKB knows
	// Agency2's Client replicates Customer's (Name, Address), so the view
	// survives by switching agencies — losing only the dispensable Phone.
	fmt.Println("\n== Change 1: delete-relation Customer ==")
	report(sys, eve.DeleteRelation("Customer"))
	fmt.Println("\nCurrent definition:")
	fmt.Println(eve.PrintView(view.Def))
	fmt.Printf("Extent: %d tuples, deceased=%v\n", view.Extent.Card(), view.Deceased)

	// Data keeps flowing: route an insert through incremental maintenance.
	metrics, err := sys.ApplyUpdates(context.Background(), []eve.Update{eve.InsertTuple("FlightRes", eve.Tuple{
		eve.Str("Ahn"), eve.Str("Tokyo"), eve.Str("JL"), eve.Int(20260501),
	})})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRouted FlightRes insert through maintenance: %d messages, %d bytes, %d I/Os\n",
		metrics.Messages, metrics.Bytes, metrics.IO)
	fmt.Printf("Extent after update: %d tuples\n", view.Extent.Card())

	// Change 2: the booking destination column disappears from FlightRes.
	// The Dest condition is dispensable, so the view survives again —
	// albeit with a broader extent (all customers with any reservation).
	fmt.Println("\n== Change 2: delete-attribute FlightRes.Dest ==")
	report(sys, eve.DeleteAttribute("FlightRes", "Dest"))
	fmt.Println("\nFinal definition:")
	fmt.Println(eve.PrintView(view.Def))
	fmt.Printf("Extent: %d tuples, deceased=%v\n", view.Extent.Card(), view.Deceased)
	fmt.Println("\nSynchronization history:")
	for _, h := range view.History {
		fmt.Println("  " + h)
	}
}

func report(sys *eve.System, c eve.Change) {
	results, err := sys.ApplyChange(context.Background(), c)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		switch {
		case res.Deceased:
			fmt.Printf("view %s: deceased\n", res.ViewName)
		case res.Ranking == nil:
			fmt.Printf("view %s: unaffected\n", res.ViewName)
		default:
			fmt.Printf("view %s: %d legal rewriting(s)\n", res.ViewName, len(res.Ranking.Candidates))
			fmt.Print(res.Ranking.Table(nil))
		}
	}
}
