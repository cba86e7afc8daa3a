package warehouse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/synchronize"
)

// rankRewritings is the rank half of the paper's enumerate-then-rank
// presentation, the oracle SearchTopK is compared against: it scores a set of
// legal rewritings under the warehouse's configuration, extent sizes from the
// analytic estimator over the snapshot's pre-change cardinalities, cost
// scenarios from the relation placement in the space — each estimated per
// rewriting, nothing inherited from a base.
func rankRewritings(w *Warehouse, v *esql.ViewDef, rws []*synchronize.Rewriting, snap *Snapshot) (*core.Ranking, error) {
	est := core.NewEstimator(w.Space.MKB())
	cands := make([]*core.Candidate, 0, len(rws))
	for _, rw := range rws {
		cands = append(cands, &core.Candidate{
			Rewriting: rw,
			Sizes:     est.Sizes(v, rw, snap.cards),
			Scenario:  w.ScenarioFor(rw.View, snap),
		})
	}
	return core.Rank(v, cands, w.cfg.Tradeoff, w.cfg.Cost)
}

// exhaustiveTopK runs the enumerate-everything oracle (Synchronize +
// rankRewritings) and returns its first k candidates.
func exhaustiveTopK(t *testing.T, w *Warehouse, v *esql.ViewDef, c space.Change, snap *Snapshot, k int) []*core.Candidate {
	t.Helper()
	rws, err := w.synchronizer.Synchronize(context.Background(), v, c)
	if err != nil {
		t.Fatalf("exhaustive synchronize: %v", err)
	}
	if len(rws) == 0 {
		return nil
	}
	ranking, err := rankRewritings(w, v, rws, snap)
	if err != nil {
		t.Fatalf("exhaustive rank: %v", err)
	}
	if k > len(ranking.Candidates) {
		k = len(ranking.Candidates)
	}
	return ranking.Candidates[:k]
}

// assertParity checks the pruned ranking against the exhaustive top-k:
// same size, same winner score, and the same QC score sequence (which is
// invariant under tie reordering at the cut).
func assertParity(t *testing.T, label string, exhaustive []*core.Candidate, pruned *core.Ranking) {
	t.Helper()
	const eps = 1e-12
	if len(pruned.Candidates) != len(exhaustive) {
		t.Fatalf("%s: pruned returned %d candidates, exhaustive top-K has %d",
			label, len(pruned.Candidates), len(exhaustive))
	}
	for i := range exhaustive {
		if math.Abs(pruned.Candidates[i].QC-exhaustive[i].QC) > eps {
			t.Fatalf("%s: rank %d QC mismatch: pruned %.15f vs exhaustive %.15f\npruned note: %s\nexhaustive note: %s",
				label, i+1, pruned.Candidates[i].QC, exhaustive[i].QC,
				pruned.Candidates[i].Rewriting.Note, exhaustive[i].Rewriting.Note)
		}
	}
}

// wideParityConfigs are the wide-view scenarios the parity tests sweep, both
// with the MaxDropVariants cap binding and with the full 2^width spectrum.
var wideParityConfigs = []struct {
	width, donors, maxVariants int
}{
	{4, 1, 32},
	{6, 3, 32},      // cap binds: 63 variants per base, 32 kept
	{6, 2, 1 << 20}, // full spectrum
	{8, 3, 1 << 20}, // full spectrum, 255 variants per base
}

// wideSetup builds a drop-variant-enumerating warehouse over the wide-view
// scenario, its (unregistered) wide view, and the change deleting the view's
// relation.
func wideSetup(t *testing.T, width, donors, maxVariants int) (*Warehouse, *esql.ViewDef, space.Change) {
	t.Helper()
	sp, err := scenario.WideSpace(width, donors)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DropVariants = true
	cfg.MaxDropVariants = maxVariants
	return New(sp, cfg), scenario.WideView(width), space.Change{Kind: space.DeleteRelation, Rel: "W0"}
}

// TestSearchTopKWideParity proves top-1/top-K parity between the pruned
// search and exhaustive enumerate-then-rank on the wide-view scenario, both
// with the MaxDropVariants cap binding and with the full 2^width spectrum.
func TestSearchTopKWideParity(t *testing.T) {
	for _, cfg := range wideParityConfigs {
		w, v, c := wideSetup(t, cfg.width, cfg.donors, cfg.maxVariants)
		snap := w.TakeSnapshot()
		for _, k := range []int{1, 2, 5, 16} {
			label := fmt.Sprintf("width=%d donors=%d max=%d k=%d",
				cfg.width, cfg.donors, cfg.maxVariants, k)
			pruned, err := w.SearchTopK(context.Background(), v, c, snap, k)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertParity(t, label, exhaustiveTopK(t, w, v, c, snap, k), pruned)
		}
	}
}

// randomWarehouseSetup builds a random information space (relations with
// random cardinalities, PC and join constraints), a random view over its
// first relation, and a random applicable capability change — the
// warehouse-level analogue of the synchronizer's fuzz generator.
func randomWarehouseSetup(t *testing.T, rng *rand.Rand) (*Warehouse, *esql.ViewDef, space.Change) {
	t.Helper()
	sp := space.New()
	mkb := sp.MKB()
	nRels := 2 + rng.Intn(4)
	names := make([]string, nRels)
	attrsOf := map[string][]string{}
	for i := 0; i < nRels; i++ {
		name := fmt.Sprintf("G%d", i)
		names[i] = name
		src := fmt.Sprintf("IS%d", i%3)
		if sp.Source(src) == nil {
			if _, err := sp.AddSource(src); err != nil {
				t.Fatal(err)
			}
		}
		nAttrs := 1 + rng.Intn(4)
		attrs := make([]relation.Attribute, nAttrs)
		attrNames := make([]string, nAttrs)
		for j := range attrs {
			attrNames[j] = fmt.Sprintf("A%d", j)
			attrs[j] = relation.Attribute{Name: attrNames[j], Type: relation.TypeInt, Size: 25}
		}
		attrsOf[name] = attrNames
		if err := sp.AddRelation(src, relation.New(name, relation.NewSchema(attrs...))); err != nil {
			t.Fatal(err)
		}
		mkb.SetCard(name, 10+rng.Intn(1000))
	}
	for i := 0; i < nRels; i++ {
		for j := 0; j < nRels; j++ {
			if i == j || rng.Intn(3) != 0 {
				continue
			}
			a, b := names[i], names[j]
			k := len(attrsOf[a])
			if len(attrsOf[b]) < k {
				k = len(attrsOf[b])
			}
			if k == 0 {
				continue
			}
			take := 1 + rng.Intn(k)
			mkb.AddPCConstraint(misd.PCConstraint{ //nolint:errcheck
				Left:  misd.Fragment{Rel: misd.RelRef{Rel: a}, Attrs: attrsOf[a][:take]},
				Right: misd.Fragment{Rel: misd.RelRef{Rel: b}, Attrs: attrsOf[b][:take]},
				Rel:   misd.Rel(rng.Intn(3)),
			})
		}
	}
	for i := 0; i+1 < nRels; i++ {
		if rng.Intn(2) == 0 {
			mkb.AddJoinConstraint(misd.JoinConstraint{ //nolint:errcheck
				R1:      misd.RelRef{Rel: names[i]},
				R2:      misd.RelRef{Rel: names[i+1]},
				Clauses: []misd.JoinClause{{Attr1: "A0", Op: relation.OpEQ, Attr2: "A0"}},
			})
		}
	}

	target := names[0]
	v := &esql.ViewDef{Name: "V", Extent: esql.ExtentParam(rng.Intn(4))}
	v.From = append(v.From, esql.FromItem{
		Rel:         target,
		Dispensable: rng.Intn(2) == 0,
		Replaceable: rng.Intn(2) == 0,
	})
	if nRels > 1 && rng.Intn(2) == 0 {
		other := names[1]
		v.From = append(v.From, esql.FromItem{Rel: other, Dispensable: true, Replaceable: true})
		v.Select = append(v.Select, esql.SelectItem{
			Attr:        esql.AttrRef{Rel: other, Attr: "A0"},
			Alias:       "OtherA0",
			Dispensable: true,
			Replaceable: true,
		})
		v.Where = append(v.Where, esql.CondItem{
			Clause: esql.Clause{
				Left:  esql.AttrRef{Rel: target, Attr: "A0"},
				Op:    relation.OpEQ,
				Right: esql.AttrRef{Rel: other, Attr: "A0"},
			},
			Dispensable: rng.Intn(2) == 0,
			Replaceable: rng.Intn(2) == 0,
		})
	}
	for _, a := range attrsOf[target] {
		if rng.Intn(2) == 0 {
			continue
		}
		v.Select = append(v.Select, esql.SelectItem{
			Attr:        esql.AttrRef{Rel: target, Attr: a},
			Dispensable: rng.Intn(2) == 0,
			Replaceable: rng.Intn(2) == 0,
		})
	}
	if len(v.Select) == 0 {
		v.Select = append(v.Select, esql.SelectItem{
			Attr:        esql.AttrRef{Rel: target, Attr: "A0"},
			Dispensable: true,
			Replaceable: true,
		})
	}
	seen := map[string]int{}
	for i := range v.Select {
		n := v.Select[i].OutputName()
		if seen[n] > 0 {
			v.Select[i].Alias = fmt.Sprintf("%s_%d", n, seen[n])
		}
		seen[n]++
	}

	var c space.Change
	if rng.Intn(2) == 0 {
		c = space.Change{Kind: space.DeleteRelation, Rel: target}
	} else {
		attrs := attrsOf[target]
		c = space.Change{Kind: space.DeleteAttribute, Rel: target, Attr: attrs[rng.Intn(len(attrs))]}
	}

	cfg := DefaultConfig()
	cfg.DropVariants = true
	return New(sp, cfg), v, c
}

// TestSearchTopKRandomParity is the differential property test of the
// cost-bounded search: across randomized information spaces, views, and
// capability changes, the pruned top-K search returns the same winner and
// the same top-K QC score sequence (i.e. the same set modulo score ties) as
// exhaustive enumeration followed by a full ranking.
func TestSearchTopKRandomParity(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 300; trial++ {
		w, v, c := randomWarehouseSetup(t, rng)
		if err := v.Validate(); err != nil {
			t.Fatalf("trial %d: invalid generated view: %v", trial, err)
		}
		snap := w.TakeSnapshot()
		k := 1 + rng.Intn(5)
		pruned, err := w.SearchTopK(context.Background(), v, c, snap, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertParity(t, fmt.Sprintf("trial %d (k=%d, change %s)", trial, k, c),
			exhaustiveTopK(t, w, v, c, snap, k), pruned)
	}
}

// TestApplyChangeTopKAgreesWithExhaustive drives two identical warehouses
// through the same capability change — one bounded at TopK 3, one with the
// default unbounded search — and checks that both adopt rewritings with the
// same QC score, and that deceased verdicts agree.
func TestApplyChangeTopKAgreesWithExhaustive(t *testing.T) {
	build := func(topK int) (*Warehouse, error) {
		sp, err := scenario.WideSpace(6, 2)
		if err != nil {
			return nil, err
		}
		cfg := DefaultConfig()
		cfg.TopK = topK
		cfg.DropVariants = true
		w := New(sp, cfg)
		if _, err := w.RegisterView(context.Background(), scenario.WideView(6)); err != nil {
			return nil, err
		}
		return w, nil
	}
	exh, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := build(3)
	if err != nil {
		t.Fatal(err)
	}
	c := space.Change{Kind: space.DeleteRelation, Rel: "W0"}
	exhRes, err := exh.ApplyChange(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	topkRes, err := topk.ApplyChange(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(exhRes) != 1 || len(topkRes) != 1 {
		t.Fatalf("expected one result each, got %d and %d", len(exhRes), len(topkRes))
	}
	if exhRes[0].Deceased != topkRes[0].Deceased {
		t.Fatalf("deceased verdicts disagree: %v vs %v", exhRes[0].Deceased, topkRes[0].Deceased)
	}
	if exhRes[0].Chosen == nil || topkRes[0].Chosen == nil {
		t.Fatal("both paths should adopt a rewriting")
	}
	if math.Abs(exhRes[0].Chosen.QC-topkRes[0].Chosen.QC) > 1e-12 {
		t.Fatalf("adopted QC disagree: unbounded %.15f vs topK %.15f",
			exhRes[0].Chosen.QC, topkRes[0].Chosen.QC)
	}
	if got := len(topkRes[0].Ranking.Candidates); got > 3 {
		t.Fatalf("TopK=3 ranking holds %d candidates", got)
	}
}

// TestSearchTopKNilVariantWeightStaysCorrect keeps its name from when the
// warehouse's synchronizer could be replaced after New, losing the quality
// weight the pruning bound needs. The synchronizer is built once in New now;
// what survives is the guarantee that replacement broke: its variant weight
// is never nil and is the quality weight of the constructed trade-off — not
// of the defaults — so the bounded search stays exact under a trade-off
// whose w2 outweighs w1 (regression: pruning against a weight that
// overestimates a dropped item's quality silently drops top-K members).
func TestSearchTopKNilVariantWeightStaysCorrect(t *testing.T) {
	sp, err := scenario.WideSpace(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tradeoff.W1, cfg.Tradeoff.W2 = 0.2, 0.8
	cfg.DropVariants = true
	cfg.MaxDropVariants = 1 << 20
	w := New(sp, cfg)
	v := scenario.WideView(6)
	wf := w.synchronizer.VariantWeight
	if wf == nil {
		t.Fatal("New left the synchronizer without a variant weight")
	}
	for _, s := range v.Select {
		want := map[int]float64{1: cfg.Tradeoff.W1, 2: cfg.Tradeoff.W2}[s.Category()]
		if got := wf(s); got != want {
			t.Fatalf("variant weight of %s (category %d) = %g, want %g", s.Attr, s.Category(), got, want)
		}
	}
	c := space.Change{Kind: space.DeleteRelation, Rel: "W0"}
	snap := w.TakeSnapshot()
	for _, k := range []int{1, 3, 8} {
		pruned, err := w.SearchTopK(context.Background(), v, c, snap, k)
		if err != nil {
			t.Fatal(err)
		}
		assertParity(t, fmt.Sprintf("w1<w2 k=%d", k), exhaustiveTopK(t, w, v, c, snap, k), pruned)
	}
}

// TestSearchTopKUnaffectedView: an unaffected view yields exactly its
// identity rewriting, with no drop-variant expansion.
func TestSearchTopKUnaffectedView(t *testing.T) {
	w, v, _ := wideSetup(t, 4, 1, synchronize.DefaultMaxDropVariants)
	for _, k := range []int{10, 0} {
		ranking, err := w.SearchTopK(context.Background(), v,
			space.Change{Kind: space.DeleteRelation, Rel: "D1"}, w.TakeSnapshot(), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranking.Candidates) != 1 || ranking.Candidates[0].Rewriting.Note != "unaffected" {
			t.Fatalf("k=%d: expected exactly the identity rewriting, got %d candidates", k, len(ranking.Candidates))
		}
	}
}

// TestSearchTopKDeceased: a view whose only relation disappears without any
// PC replacement has no legal rewriting; the search — bounded or not — must
// return an empty ranking rather than inventing candidates, and the pass must
// turn that into a nil ranking and a deceased view.
func TestSearchTopKDeceased(t *testing.T) {
	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	r := relation.New("R", relation.NewSchema(
		relation.Attribute{Name: "A", Type: relation.TypeInt, Size: 50},
	))
	if err := sp.AddRelation("IS1", r); err != nil {
		t.Fatal(err)
	}
	w := New(sp, DefaultConfig())
	def := &esql.ViewDef{
		Name:   "V",
		Extent: esql.ExtentAny,
		Select: []esql.SelectItem{{Attr: esql.AttrRef{Rel: "R", Attr: "A"}}},
		From:   []esql.FromItem{{Rel: "R"}},
	}
	c := space.Change{Kind: space.DeleteRelation, Rel: "R"}
	for _, k := range []int{5, 0} {
		ranking, err := w.SearchTopK(context.Background(), def, c, w.TakeSnapshot(), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranking.Candidates) != 0 {
			t.Fatalf("k=%d: expected empty ranking, got %d candidates", k, len(ranking.Candidates))
		}
	}
	if _, err := w.RegisterView(context.Background(), def); err != nil {
		t.Fatal(err)
	}
	res, err := w.ApplyChange(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Ranking != nil || !res[0].Deceased {
		t.Fatalf("unbounded pass over a view without rewritings: %+v, want nil ranking and deceased", res)
	}
}

// TestUnboundedSearchMatchesEnumeration pins the one search against the
// paper's enumerate-then-rank presentation: with K = 0 (unbounded) SearchTopK
// must return Synchronize + core.Rank's ranking order for order and bit for
// bit — same length, same signature sequence, identical QC, RawCost,
// NormCost, DDAttr and DDExt — over the wide-parity configurations and the
// randomized setups. Stronger than assertParity's QC-sequence-within-1e-12,
// which stays for K > 0 where ties at the cut may reorder.
func TestUnboundedSearchMatchesEnumeration(t *testing.T) {
	check := func(label string, w *Warehouse, v *esql.ViewDef, c space.Change) {
		t.Helper()
		snap := w.TakeSnapshot()
		got, err := w.SearchTopK(context.Background(), v, c, snap, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := exhaustiveTopK(t, w, v, c, snap, math.MaxInt)
		if len(got.Candidates) != len(want) {
			t.Fatalf("%s: unbounded search returned %d candidates, enumeration %d",
				label, len(got.Candidates), len(want))
		}
		for i, e := range want {
			g := got.Candidates[i]
			if gs, es := g.Rewriting.View.Signature(), e.Rewriting.View.Signature(); gs != es {
				t.Fatalf("%s: rank %d signature %q, enumeration has %q", label, i+1, gs, es)
			}
			if g.QC != e.QC || g.RawCost != e.RawCost || g.NormCost != e.NormCost ||
				g.DDAttr != e.DDAttr || g.DDExt != e.DDExt {
				t.Fatalf("%s: rank %d scores differ:\nsearch      %+v\nenumeration %+v", label, i+1, *g, *e)
			}
		}
	}
	for _, cfg := range wideParityConfigs {
		w, v, c := wideSetup(t, cfg.width, cfg.donors, cfg.maxVariants)
		check(fmt.Sprintf("width=%d donors=%d max=%d", cfg.width, cfg.donors, cfg.maxVariants), w, v, c)
	}
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 300; trial++ {
		w, v, c := randomWarehouseSetup(t, rng)
		check(fmt.Sprintf("trial %d (change %s)", trial, c), w, v, c)
	}
}
