// Survival: a walkthrough of Experiment 1's life-span study. A view over
// R(A, B) faces a stream of capability changes; the w1/w2 weighting of the
// QC-Model's interface quality decides whether EVE keeps the replaceable
// attribute A (surviving further changes through the replicas S and T) or
// the non-replaceable attribute B (dying at the next change).
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
	for _, weights := range [][2]float64{{0.7, 0.3}, {0.3, 0.7}} {
		run(weights[0], weights[1])
		fmt.Println()
	}
}

func run(w1, w2 float64) {
	fmt.Printf("== Weights w1=%.1f (replaceable), w2=%.1f (non-replaceable) ==\n", w1, w2)
	sp, err := scenario.Exp1Space(1)
	if err != nil {
		log.Fatal(err)
	}
	// Experiment 1 studies the interface dimension in isolation.
	t := eve.DefaultTradeoff()
	t.W1, t.W2 = w1, w2
	t.RhoAttr, t.RhoExt = 1, 0
	t.RhoQuality, t.RhoCost = 1, 0
	sys, err := eve.New(eve.WithSpace(sp), eve.WithTradeoff(t))
	if err != nil {
		log.Fatal(err)
	}

	view, err := sys.RegisterView(context.Background(), scenario.Exp1View())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(eve.PrintView(view.Def))

	changes := []eve.Change{
		eve.DeleteAttribute("R", "A"),
	}
	survived := 0
	for step := 0; ; step++ {
		var c eve.Change
		if step < len(changes) {
			c = changes[step]
		} else {
			// Keep deleting whatever relation the view currently uses.
			if view.Deceased || len(view.Def.From) == 0 {
				break
			}
			c = eve.DeleteRelation(view.Def.From[0].Rel)
		}
		fmt.Printf("\n-- change %d: %s --\n", step+1, c)
		results, err := sys.ApplyChange(context.Background(), c)
		if err != nil {
			log.Fatal(err)
		}
		// The view as this change's pass published it.
		view = sys.Snapshot().View(view.Name)
		for _, res := range results {
			if res.Ranking != nil {
				fmt.Printf("%d legal rewriting(s); chosen QC=%.3f\n",
					len(res.Ranking.Candidates), res.Chosen.QC)
			}
		}
		if view.Deceased {
			fmt.Println("view DECEASED")
			break
		}
		survived++
		fmt.Println("view survived as:")
		fmt.Println(eve.PrintView(view.Def))
	}
	fmt.Printf("\nLifespan: %d change(s) survived\n", survived)
}
