package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/synchronize"
	"repro/internal/warehouse"
)

// Exp1Step records one capability change in the survival walk.
type Exp1Step struct {
	Change    string
	Survived  bool
	ChosenDef string
	NumLegal  int
}

// Exp1Outcome is one survival run under a (w1, w2) weight setting.
type Exp1Outcome struct {
	W1, W2 float64
	// FirstChoice is the rewriting chosen after the initial delete of R.A
	// ("V1"/"V2" pick the replaceable replica, "V3" drops R.A).
	FirstChoice string
	Steps       []Exp1Step
	// Lifespan counts capability changes survived before the view
	// deceased (or total applied changes when it never deceased).
	Lifespan int
	Deceased bool
}

// Exp1Result pairs the two weight settings the paper contrasts (Figure 12).
type Exp1Result struct {
	Outcomes []Exp1Outcome
}

// RunExp1 reproduces Experiment 1 (Section 7.1, Figure 12): view V0 over
// R(A,B) with replicas S and T of R.A. The change sequence is
// delete-attribute R.A, then delete-relation of whatever replica was chosen.
// With w1 > w2 EVE prefers the replaceable attribute A (rewriting into S or
// T, surviving a further deletion); with w2 > w1 it keeps the
// non-replaceable B (and the next relevant change kills the view).
func RunExp1(ctx context.Context) (Exp1Result, error) {
	var res Exp1Result
	for _, ws := range [][2]float64{{0.7, 0.3}, {0.3, 0.7}} {
		o, err := runExp1Case(ctx, ws[0], ws[1])
		if err != nil {
			return res, err
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	return res, nil
}

func runExp1Case(ctx context.Context, w1, w2 float64) (Exp1Outcome, error) {
	out := Exp1Outcome{W1: w1, W2: w2}
	sp, err := scenario.Exp1Space(1)
	if err != nil {
		return out, err
	}
	cfg := warehouse.DefaultConfig()
	t := core.DefaultTradeoff()
	t.W1, t.W2 = w1, w2
	// Focus the experiment on interface quality, as the paper does
	// ("ignoring the view extent quality factor for the time being").
	t.RhoAttr, t.RhoExt = 1, 0
	t.RhoQuality, t.RhoCost = 1, 0
	cfg.Tradeoff = t
	wh := warehouse.New(sp, cfg)

	v, err := wh.RegisterView(ctx, scenario.Exp1View())
	if err != nil {
		return out, err
	}

	// The survival walk is adaptive — each change targets whatever relation
	// the view rewrote onto — so it streams single changes through an
	// evolution session (evolve.Session) rather than batching upfront. The
	// session is the amortized driver the Exp1-at-scale benchmark uses; on
	// this three-step walk it simply reproduces the reference loop's
	// outcomes (a guarantee the differential tests in internal/evolve pin).
	sess := evolve.NewSession(wh)
	apply := func(c space.Change) error {
		res, err := sess.Evolve(ctx, c)
		if err != nil {
			return err
		}
		v = wh.Acquire().View(v.Name)
		step := Exp1Step{Change: c.String(), Survived: !v.Deceased}
		for _, r := range res.Results {
			if r.Ranking != nil {
				step.NumLegal = len(r.Ranking.Candidates)
			}
		}
		if !v.Deceased {
			step.ChosenDef = v.Def.String()
			out.Lifespan++
		}
		out.Steps = append(out.Steps, step)
		return nil
	}

	if err := apply(space.Change{Kind: space.DeleteAttribute, Rel: "R", Attr: "A"}); err != nil {
		return out, err
	}
	out.FirstChoice = classifyExp1Choice(v)
	if v.Deceased {
		out.Deceased = true
		return out, nil
	}
	// Second change: delete whatever single relation the view now uses.
	if len(v.Def.From) > 0 {
		rel := v.Def.From[0].Rel
		if err := apply(space.Change{Kind: space.DeleteRelation, Rel: rel}); err != nil {
			return out, err
		}
	}
	// Third change, if still alive and rewritten onto the other replica.
	if !v.Deceased && len(v.Def.From) > 0 {
		rel := v.Def.From[0].Rel
		if err := apply(space.Change{Kind: space.DeleteRelation, Rel: rel}); err != nil {
			return out, err
		}
	}
	out.Deceased = v.Deceased
	return out, nil
}

// classifyExp1Choice labels the post-first-change definition in the paper's
// V1/V2/V3 terms: V1 uses S, V2 uses T, V3 kept R with only B.
func classifyExp1Choice(v *warehouse.VersionView) string {
	if v.Deceased {
		return "deceased"
	}
	if len(v.Def.From) == 0 {
		return "?"
	}
	switch v.Def.From[0].Rel {
	case "S":
		return "V1 (replica S)"
	case "T":
		return "V2 (replica T)"
	case "R":
		return "V3 (kept R.B)"
	}
	return v.Def.From[0].Rel
}

// String renders the Figure 12 life-span comparison.
func (r Exp1Result) String() string {
	var b strings.Builder
	b.WriteString("Experiment 1 — view survival under capability changes (Figure 12)\n")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "\nw1=%.1f w2=%.1f: first choice %s, lifespan %d change(s), deceased=%v\n",
			o.W1, o.W2, o.FirstChoice, o.Lifespan, o.Deceased)
		for i, s := range o.Steps {
			status := "survived"
			if !s.Survived {
				status = "DECEASED"
			}
			fmt.Fprintf(&b, "  step %d: %-28s -> %s (%d legal rewritings)\n", i+1, s.Change, status, s.NumLegal)
		}
	}
	return b.String()
}

// Exp1Ranking exposes the first-change ranking directly (all legal
// rewritings of V0 after delete-attribute R.A with their QC scores), used
// by tests and the CLI.
func Exp1Ranking(ctx context.Context, w1, w2 float64) (*core.Ranking, []*synchronize.Rewriting, error) {
	sp, err := scenario.Exp1Space(1)
	if err != nil {
		return nil, nil, err
	}
	t := core.DefaultTradeoff()
	t.W1, t.W2 = w1, w2
	t.RhoAttr, t.RhoExt = 1, 0
	t.RhoQuality, t.RhoCost = 1, 0

	orig := scenario.Exp1View()
	sy := synchronize.New(sp.MKB())
	rws, err := sy.Synchronize(ctx, orig, space.Change{Kind: space.DeleteAttribute, Rel: "R", Attr: "A"})
	if err != nil {
		return nil, nil, err
	}
	est := core.NewEstimator(sp.MKB())
	preCards := map[string]int{"R": 100, "S": 100, "T": 100}
	var cands []*core.Candidate
	for _, rw := range rws {
		cands = append(cands, &core.Candidate{
			Rewriting: rw,
			Sizes:     est.Sizes(orig, rw, preCards),
			Scenario: core.UpdateScenario{
				UpdatedTupleSize: 100,
				Sites:            []core.SiteLoad{{}},
			},
		})
	}
	ranking, err := core.Rank(orig, cands, t, core.DefaultCostModel())
	return ranking, rws, err
}
