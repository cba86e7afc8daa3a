// Quickstart: build a tiny two-source information space, define an E-SQL
// view with evolution preferences, delete a base relation, and let the EVE
// system rank the legal rewritings and adopt the best one.
package main

import (
	"context"
	"fmt"
	"log"

	eve "repro"
)

func main() {
	log.SetFlags(0)

	// 1. Build the information space: two sources, two relations that are
	//    replicas of each other on their key column.
	sp := eve.NewSpace()
	mustAdd := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	_, err := sp.AddSource("IS1")
	mustAdd(err)
	_, err = sp.AddSource("IS2")
	mustAdd(err)

	parts := eve.NewRelation("Parts", eve.NewSchema(
		eve.Attribute{Name: "PartID", Type: eve.TypeInt},
		eve.Attribute{Name: "Name", Type: eve.TypeString},
		eve.Attribute{Name: "Price", Type: eve.TypeInt},
	))
	mirror := eve.NewRelation("PartsMirror", eve.NewSchema(
		eve.Attribute{Name: "ID", Type: eve.TypeInt},
		eve.Attribute{Name: "PName", Type: eve.TypeString},
	))
	for i, name := range []string{"bolt", "nut", "washer", "gear", "axle"} {
		id := eve.Int(int64(i + 1))
		mustAdd(parts.Insert(eve.Tuple{id, eve.Str(name), eve.Int(int64(10 * (i + 1)))}))
		mustAdd(mirror.Insert(eve.Tuple{id, eve.Str(name)}))
	}
	mustAdd(sp.AddRelation("IS1", parts))
	mustAdd(sp.AddRelation("IS2", mirror))

	// 2. Record meta knowledge: PartsMirror replicates Parts' (PartID,
	//    Name) projection exactly.
	mustAdd(sp.MKB().AddPCConstraint(eve.PCConstraint{
		Left:  eve.Fragment{Rel: eve.RelRef{Rel: "Parts"}, Attrs: []string{"PartID", "Name"}},
		Right: eve.Fragment{Rel: eve.RelRef{Rel: "PartsMirror"}, Attrs: []string{"ID", "PName"}},
		Rel:   eve.Equal,
	}))

	// 3. Assemble the system over the space with the v2 options API — a
	//    metrics observer counts pipeline events as they happen.
	metrics := &eve.MetricsObserver{}
	sys, err := eve.New(eve.WithSpace(sp), eve.WithObserver(metrics))
	if err != nil {
		log.Fatal(err)
	}

	// 4. Define an evolvable view: Price is dispensable, the rest
	//    replaceable, and the relation itself may be replaced.
	view, err := sys.DefineView(context.Background(), `
		CREATE VIEW Catalog (VE = ~) AS
		SELECT P.PartID (AR = true), P.Name (AR = true), P.Price (AD = true)
		FROM Parts P (RR = true)
		WHERE (P.Price > 15) (CD = true)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Initial view:")
	fmt.Println(eve.PrintView(view.Def))
	fmt.Printf("\nExtent: %d tuples\n\n", view.Extent.Card())

	// 5. The source withdraws the Parts relation. EVE synchronizes.
	results, err := sys.ApplyChange(context.Background(), eve.DeleteRelation("Parts"))
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		if res.Deceased {
			fmt.Println("view deceased — no legal rewriting")
			continue
		}
		if res.Ranking == nil {
			continue
		}
		fmt.Printf("QC ranking over %d legal rewriting(s):\n%s\n",
			len(res.Ranking.Candidates), res.Ranking.Table(nil))
	}
	// The registration's view is immutable; read the adopted one from the
	// version the pass published.
	view = sys.Snapshot().View("Catalog")
	fmt.Println("Adopted definition:")
	fmt.Println(eve.PrintView(view.Def))
	fmt.Printf("\nNew extent: %d tuples (was built from the replica)\n", view.Extent.Card())
	fmt.Printf("\nObserved: %d change(s), %d search(es), %d adoption(s), %d decease(s)\n",
		metrics.Changes(), metrics.Syncs(), metrics.Adopts(), metrics.Deceases())
}
