package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/scenario"
)

// CrossValRow compares the analytic cost model against the maintenance
// simulator's measured counters for one configuration.
type CrossValRow struct {
	Label            string
	Updates          int
	AnalyticMessages float64
	MeasuredMessages float64
	AnalyticBytes    float64
	MeasuredBytes    float64
}

// CrossValResult is the analytic-vs-measured study — the validation the
// paper lists as future work ("compare the cost portion of our QC-Model
// with the actual costs encountered by our system for incremental view
// maintenance").
type CrossValResult struct {
	Rows []CrossValRow
}

// RunCrossValidation drives real insert streams through Algorithm 1 over
// small uniform spaces for several site distributions and compares the
// measured message and byte counts with the analytic CF_M and CF_T.
//
// The spaces are scaled down from Table 1 (card 40 instead of 400) so the
// joins stay quick; the analytic model is evaluated with the same
// statistics, so the comparison is apples-to-apples. Messages should match
// exactly; bytes agree in trend but not exactly, since the analytic model
// charges expected delta sizes (js-uniform) while the simulator ships the
// actual tuples.
func RunCrossValidation(ctx context.Context, seed int64, updatesPerConfig int) (CrossValResult, error) {
	var res CrossValResult
	p := scenario.DefaultParams()
	p.Card = 40
	p.NumRelations = 3
	p.Seed = seed
	rng := rand.New(rand.NewSource(seed + 1))

	for _, dist := range [][]int{{3}, {1, 2}, {1, 1, 1}} {
		sp, err := scenario.UniformSpace(p, dist)
		if err != nil {
			return res, err
		}
		// A two-way chain join view over R1, R2, R3 with no local
		// conditions, so the analytic σ is 1.
		view := &esql.ViewDef{Name: "V", Extent: esql.ExtentAny}
		for i := 1; i <= 3; i++ {
			rel := fmt.Sprintf("R%d", i)
			view.From = append(view.From, esql.FromItem{Rel: rel})
			view.Select = append(view.Select, esql.SelectItem{
				Attr:  esql.AttrRef{Rel: rel, Attr: "B"},
				Alias: fmt.Sprintf("B%d", i),
			})
		}
		for i := 1; i < 3; i++ {
			view.Where = append(view.Where, esql.CondItem{Clause: esql.Clause{
				Left:  esql.AttrRef{Rel: fmt.Sprintf("R%d", i), Attr: "A"},
				Op:    relation.OpEQ,
				Right: esql.AttrRef{Rel: fmt.Sprintf("R%d", i+1), Attr: "A"},
			}})
		}
		q, err := exec.Qualify(view, sp)
		if err != nil {
			return res, err
		}
		ext, err := exec.Evaluate(ctx, q, sp)
		if err != nil {
			return res, err
		}
		// Analytic prediction for an update at R1 (first relation of the
		// first site).
		cm := core.DefaultCostModel()
		cm.JoinSelectivity = p.JoinSelectivity
		m := maintain.New(sp, q, ext, cm.Bfr())
		scenarioDist := append([]int(nil), dist...)
		u := core.UpdateAtFirstScenario(scenarioDist, p.Card, p.TupleSize, 1)
		// Tuple widths in the simulator are the actual value widths (5
		// int64 attributes = 40 bytes), not the schema's declared 100;
		// align the analytic model to the shipped width.
		actualWidth := 5 * 8
		u.UpdatedTupleSize = actualWidth
		for si := range u.Sites {
			for ri := range u.Sites[si].Relations {
				u.Sites[si].Relations[ri].TupleSize = actualWidth
			}
		}
		analytic := cm.Factors(u)

		var measured maintain.Metrics
		domain := int64(1 / p.JoinSelectivity)
		for k := 0; k < updatesPerConfig; k++ {
			tuple := make(relation.Tuple, 5)
			for j := range tuple {
				tuple[j] = relation.Int(rng.Int63n(domain))
			}
			met, err := m.Apply(ctx, maintain.Update{Kind: maintain.Insert, Rel: "R1", Tuple: tuple})
			if err != nil {
				return res, err
			}
			measured.Add(met)
			// Remove again so the space statistics stay stationary; the
			// delete is a data update in its own right and is measured too.
			met, err = m.Apply(ctx, maintain.Update{Kind: maintain.Delete, Rel: "R1", Tuple: tuple})
			if err != nil {
				return res, err
			}
			measured.Add(met)
		}
		n := float64(2 * updatesPerConfig) // insert + delete per round
		res.Rows = append(res.Rows, CrossValRow{
			Label:            scenario.DistributionLabel(dist),
			Updates:          2 * updatesPerConfig,
			AnalyticMessages: analytic.Messages,
			MeasuredMessages: float64(measured.Messages) / n,
			AnalyticBytes:    analytic.Bytes,
			MeasuredBytes:    float64(measured.Bytes) / n,
		})
	}
	return res, nil
}

// String renders the comparison.
func (r CrossValResult) String() string {
	var b strings.Builder
	b.WriteString("Cross-validation — analytic QC-Model cost vs measured maintenance cost\n")
	fmt.Fprintf(&b, "%-8s %9s %18s %18s %16s %16s\n",
		"dist", "#updates", "CF_M analytic", "CF_M measured", "CF_T analytic", "CF_T measured")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %9d %18.2f %18.2f %16.1f %16.1f\n",
			row.Label, row.Updates, row.AnalyticMessages, row.MeasuredMessages,
			row.AnalyticBytes, row.MeasuredBytes)
	}
	return b.String()
}
