// Command eve is an interactive demonstration of the EVE system: it builds
// the travel-agency scenario from the paper's introduction, defines the
// Asia-Customer view, applies capability changes, and shows the QC-ranked
// legal rewritings the system chooses among.
//
// Usage:
//
//	eve                  # run the scripted travel demo
//	eve -change X        # which change to demo: customer | flightres | attr
//	eve -verbose         # print every rewriting, not just the winner
//	eve -load space.json # run against a saved information space
//	eve -dump space.json # save the (pre-change) space and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/esql"
	"repro/internal/persist"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/warehouse"
)

func main() {
	log.SetFlags(0)
	// The v2 pipeline is cancellable end to end: ^C aborts the pass with
	// ctx.Err(), leaving the warehouse at the last landed change.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	changeFlag := flag.String("change", "customer", "capability change to demo: customer | flightres | attr")
	verbose := flag.Bool("verbose", false, "print all ranked rewritings")
	loadPath := flag.String("load", "", "load the information space from a JSON file instead of the built-in travel scenario")
	dumpPath := flag.String("dump", "", "write the information space to a JSON file and exit")
	flag.Parse()

	var sp *space.Space
	var err error
	if *loadPath != "" {
		sp, err = persist.LoadFile(*loadPath)
	} else {
		sp, err = scenario.TravelSpace(7)
	}
	fail(err)
	if *dumpPath != "" {
		fail(persist.SaveFile(*dumpPath, sp))
		fmt.Printf("information space written to %s\n", *dumpPath)
		return
	}
	wh := warehouse.New(sp, warehouse.DefaultConfig())

	view, err := wh.DefineView(context.Background(), scenario.AsiaCustomerESQL)
	fail(err)
	fmt.Println("Registered view:")
	fmt.Println(esql.Print(view.Def))
	fmt.Printf("\nInitial extent: %d tuples\n\n", view.Extent.Card())

	var change space.Change
	switch *changeFlag {
	case "customer":
		change = space.Change{Kind: space.DeleteRelation, Rel: "Customer"}
	case "flightres":
		change = space.Change{Kind: space.DeleteRelation, Rel: "FlightRes"}
	case "attr":
		change = space.Change{Kind: space.DeleteAttribute, Rel: "Customer", Attr: "Phone"}
	default:
		log.Printf("unknown -change %q (want customer | flightres | attr)", *changeFlag)
		os.Exit(2)
	}

	fmt.Printf("Applying capability change: %s\n\n", change)
	results, err := wh.ApplyChange(ctx, change)
	fail(err)

	for _, res := range results {
		if res.Deceased {
			fmt.Printf("view %s: no legal rewriting — view deceased\n", res.ViewName)
			continue
		}
		if res.Ranking == nil {
			fmt.Printf("view %s: unaffected\n", res.ViewName)
			continue
		}
		fmt.Printf("view %s: %d legal rewriting(s); QC ranking:\n\n", res.ViewName, len(res.Ranking.Candidates))
		fmt.Println(res.Ranking.Table(nil))
		if *verbose {
			for i, c := range res.Ranking.Candidates {
				fmt.Printf("--- rank %d (QC=%.4f, %s) ---\n%s\n\n",
					i+1, c.QC, c.Rewriting.Note, esql.Print(c.Rewriting.View))
			}
		}
		fmt.Println("Adopted definition:")
		fmt.Println(esql.Print(view.Def))
		fmt.Printf("\nNew extent: %d tuples\n", view.Extent.Card())
	}
}

func fail(err error) {
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
}
