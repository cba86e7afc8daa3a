package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/warehouse"
)

// signatureOracle and clauseOracle are the fmt-built Signature and
// Clause.String, the same pair internal/esql's signature_test.go keeps as
// the definition (test code cannot be shared across packages).
func signatureOracle(v *esql.ViewDef) string {
	var b strings.Builder
	b.WriteString("VE=" + v.Extent.String() + ";S:")
	for _, s := range v.Select {
		fmt.Fprintf(&b, "%s/%s/%v/%v,", s.Attr, s.OutputName(), s.Dispensable, s.Replaceable)
	}
	b.WriteString("F:")
	for _, f := range v.From {
		fmt.Fprintf(&b, "%s.%s/%s/%v/%v,", f.Source, f.Rel, f.Binding(), f.Dispensable, f.Replaceable)
	}
	b.WriteString("W:")
	for _, c := range v.Where {
		fmt.Fprintf(&b, "%s/%v/%v,", clauseOracle(c.Clause), c.Dispensable, c.Replaceable)
	}
	return b.String()
}

func clauseOracle(c esql.Clause) string {
	if c.Right.Attr != "" {
		return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
	}
	if c.Const.Type() == relation.TypeString {
		escaped := strings.ReplaceAll(c.Const.Text(), "'", "''")
		return fmt.Sprintf("%s %s '%s'", c.Left, c.Op, escaped)
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Const.Text())
}

// TestSignatureMatchesOracleOnCorpora checks Signature against the oracle
// where signatures are keys: every query of the route differential, raw
// and qualified (the route cache's key); the churn and wide scenario views;
// and every rewriting the searches of one churn history rank, with drop
// variants, plus every definition the history adopts.
func TestSignatureMatchesOracleOnCorpora(t *testing.T) {
	n := 0
	check := func(label string, v *esql.ViewDef) {
		t.Helper()
		n++
		if got, want := v.Signature(), signatureOracle(v); got != want {
			t.Fatalf("%s: Signature = %q\noracle %q", label, got, want)
		}
	}
	var cases []diffCase
	cases = append(cases, adversarialCases(t)...)
	cases = append(cases, churnCases(t)...)
	cases = append(cases, wideCases(t)...)
	for _, c := range cases {
		check(c.name, c.q)
		q, err := exec.Qualify(c.q, c.sp)
		if err != nil {
			t.Fatal(err)
		}
		check(c.name+" qualified", q)
	}
	routes := n

	check("wide view", scenario.WideView(6))
	h, err := scenario.Churn(scenario.ChurnParams{
		Families: 2, TwinsPerFamily: 3, Width: 4, Donors: 2, Spares: 2, SpareAttrs: 3,
		Changes: 40, Seed: 3, FamilyDeleteRatio: 0.15, FamilyRenameRatio: 0.15, DonorRatio: 0.15,
		ReplaceableViews: true, AllowDecease: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	cfg := warehouse.DefaultConfig()
	cfg.DropVariants = true
	w := warehouse.New(sp, cfg)
	for _, def := range h.Views() {
		check("churn view "+def.Name, def)
		if _, err := w.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	ranked := 0
	for i, c := range h.Changes {
		rows, err := w.ApplyChange(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Ranking == nil {
				continue
			}
			for _, cand := range r.Ranking.Candidates {
				check(fmt.Sprintf("change %d (%s) rewriting of %s", i, c, r.ViewName), cand.Rewriting.View)
				ranked++
			}
			if r.Chosen != nil {
				check(fmt.Sprintf("change %d adopted %s", i, r.ViewName), w.Acquire().View(r.ViewName).Def)
			}
		}
	}
	if routes < 400 || ranked < 100 {
		t.Fatalf("thin corpus: %d route signatures, %d ranked rewritings", routes, ranked)
	}
	t.Logf("%d signatures: %d route, %d ranked rewritings", n, routes, ranked)
}
