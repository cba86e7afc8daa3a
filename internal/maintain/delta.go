package maintain

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/esql"
	"repro/internal/plan"
	"repro/internal/relation"
)

// This file is the batched delta-propagation engine: Algorithm 1 run over
// columnar delta batches instead of tuple-at-a-time joins. One collapsed
// batch yields one propagation step per (delta, FROM binding) pair; the
// steps telescope — for step k, bindings whose step already ran join
// against post-update state, later steps' bindings against pre-update
// state, untouched bindings against current state — which makes the summed
// signed deltas exactly the view difference, self-joins included. A step's
// inserts and deletes travel as one signed bag: a ±1 column rides through
// every hop, one plan runs per hop, and at the fold each output row's
// derivation count moves by its witness's sign (the counting algorithm), so
// multi-supported rows survive partial deletions without any recomputation.
// Mixing signs inside a step is sound: before step k a row has at least as
// many derivations as step k brings delete witnesses for it. Clause
// placement — what the seed filters, what each hop pushes down, keys on or
// applies as a residual, and which relation of a site is join-connected —
// is internal/plan's (Pending, TakeBound, Connected, PlaceHop), the same
// functions CompileCatalog places a full plan's clauses with; this file
// keeps what is Algorithm 1's own: the site order, the metrics, Appendix
// A's lookup-or-scan choice, and the fold.

// supportCounts is the counting algorithm's bookkeeping, kept beside the
// extent rather than as a second copy of it: a row in the extent has one
// derivation unless multi says otherwise, and a row outside it has none,
// so on a 1:1 key join multi is empty. During a batch, moved holds every
// row whose count moves, once, in first-touch order.
type supportCounts struct {
	multi relation.TupleSet[int] // rows with two or more derivations
	moved relation.TupleSet[move]
}

// move is one row's count before the batch and now.
type move struct{ before, now int }

// add moves a row's derivation count by d; a negative move on an
// unsupported row is ignored.
func (sc *supportCounts) add(ext *relation.Relation, t relation.Tuple, d int) {
	mv, ok := sc.moved.Get(t)
	if !ok {
		c, many := sc.multi.Get(t)
		if !many && ext.Contains(t) {
			c = 1
		}
		mv = move{before: c, now: c}
	}
	mv.now = max(0, mv.now+d)
	sc.moved.Put(t, mv)
}

// land ends the batch: the rows that appeared and the rows that vanished go
// to ext.WithDelta, and multi takes the new counts. An empty net delta
// keeps ext.
func (sc *supportCounts) land(ext *relation.Relation) (*relation.Relation, error) {
	var ins, del []relation.Tuple
	for t, mv := range sc.moved.All() {
		switch {
		case mv.before == 0 && mv.now > 0:
			ins = append(ins, t)
		case mv.before > 0 && mv.now == 0:
			del = append(del, t)
		}
		if mv.now > 1 {
			sc.multi.Put(t, mv.now)
		} else {
			sc.multi.Delete(t)
		}
	}
	sc.moved.Clear()
	if len(ins)+len(del) == 0 {
		return ext, nil
	}
	return ext.WithDelta(ins, del)
}

// ApplyDeltas runs Algorithm 1 for one collapsed batch: each delta is
// propagated through the view's sites as one signed columnar bag, joined
// with the local relations under the WHERE clauses the planner places at
// each hop (every hop runs one plan of the planner's operators: a key-index
// probe, a hash join or a nested loop), and folded into derivation counts. pre maps every
// delta relation to its pre-batch state (from ApplyBase); the per-step
// pre/post choice telescopes the deltas into the exact view difference. The
// fold lands through Extent.WithDelta: the rows whose count rose from zero
// are inserted, those whose count fell to zero deleted, so a batch costs
// what it changes in the view, not the view's size. The previous Extent
// object is never mutated — a batch with a net effect replaces it, one
// without keeps it — so snapshots stay stable. Metrics cover the site round
// trips and source I/O of this view's propagation only; the one-time update
// notification is charged by Collapse.
func (m *Maintainer) ApplyDeltas(ctx context.Context, deltas []Delta, pre map[string]*relation.Relation) (Metrics, error) {
	var metrics Metrics

	// One step per (delta, FROM binding referencing it), in collapse ×
	// FROM order. A view not referencing any updated relation has nothing
	// to do.
	type step struct {
		d Delta
		f esql.FromItem
	}
	var steps []step
	stepIdx := map[string]int{}
	for _, d := range deltas {
		for _, f := range m.View.From {
			if f.Rel == d.Rel {
				stepIdx[f.Binding()] = len(steps)
				steps = append(steps, step{d: d, f: f})
			}
		}
	}
	if len(steps) == 0 {
		return metrics, nil
	}

	// state resolves the relation a binding joins against during step k:
	// post-update for bindings whose step already ran, pre-update for
	// bindings still pending, current for untouched relations.
	state := func(f esql.FromItem, k int) *relation.Relation {
		if j, isStep := stepIdx[f.Binding()]; isStep && j > k {
			if p := pre[f.Rel]; p != nil {
				return p
			}
		}
		return m.Space.Relation(f.Rel)
	}

	// The counting fold needs the rows with several derivations; find them
	// once from the pre-batch state (the view's compiled plan, run under bag
	// semantics) and maintain them incrementally afterwards.
	if m.counts == nil {
		sc, err := m.evalCounts(ctx, func(f esql.FromItem) *relation.Relation {
			if p := pre[f.Rel]; p != nil {
				return p
			}
			return m.Space.Relation(f.Rel)
		})
		if err != nil {
			return metrics, err
		}
		m.counts = sc
	}

	for k, st := range steps {
		if err := m.propagateStep(ctx, st.d, st.f, k, state, &metrics); err != nil {
			return metrics, err
		}
	}
	ext, err := m.counts.land(m.Extent)
	if err != nil {
		return metrics, err
	}
	m.Extent = ext
	return metrics, nil
}

// signAttr is the seed's sign column: +1 on an inserted row, −1 on a
// deleted one, carried through every join to the fold. Clauses name
// binding-qualified attributes ("R.A"), so none can reference it; it is
// the warehouse's own bookkeeping and never shipped to a site.
var signAttr = relation.Attribute{Name: "±", Type: relation.TypeInt}

// hop is the delta flowing between sites: one signed bag over the
// accumulated schema. Multiplicity in the bag is derivation multiplicity.
type hop struct {
	schema *relation.Schema
	bag    *relation.ColumnBatch
}

func (h *hop) card() int { return h.bag.Rows() }

// bytes is the shipped size of the hop without its sign column: actual
// tuple bytes, or one schema tuple width when the bag is empty (a message
// envelope is never free).
func (h *hop) bytes() int {
	sign := signAttr.DefaultSize()
	if n := h.bag.ByteSize() - sign*h.bag.Rows(); n > 0 {
		return n
	}
	return h.schema.TupleSize() - sign
}

// seed is step k's delta at its binding: the inserts and then the deletes
// of d as one bag, narrowed by the clauses the delta binds on its own.
// Those are applied exactly once, here; pending keeps the rest.
func seed(ctx context.Context, d Delta, base *relation.Relation, binding string, pending *[]relation.Clause) (*hop, error) {
	attrs := append(base.Schema().Qualify(d.Rel, binding).Attrs(), signAttr)
	schema := relation.NewSchema(attrs...)
	rows := relation.NewColumnBatch(slices.Concat(d.Inserts, d.Deletes), base.Schema().Len())
	cols := make([]relation.Column, len(attrs))
	for j := range rows.Width() {
		cols[j] = *rows.Col(j)
	}
	sign := make([]int64, d.Card())
	for i := range sign {
		sign[i] = 1
		if i >= len(d.Inserts) {
			sign[i] = -1
		}
	}
	cols[len(cols)-1] = relation.Column{Kind: relation.TypeInt, Ints: sign}
	h := &hop{schema: schema, bag: relation.BatchFromColumns(d.Card(), cols)}
	cond := plan.TakeBound(pending, schema)
	if len(cond) == 0 {
		return h, nil
	}
	leaf, err := plan.NewBatchScan(schema, h.bag)
	if err != nil {
		return nil, err
	}
	f, err := plan.NewFilter(leaf, cond, h.card())
	if err != nil {
		return nil, err
	}
	h.bag, err = plan.ExecuteBag(ctx, f)
	return h, err
}

// propagateStep runs one step of the batch: seed the delta at its binding,
// visit the sites (the updated relation's own IS first — its co-located
// relations join without any message — then the remaining ISs in FROM
// order), and fold the surviving witnesses into the derivation counts.
// Clause placement is the planner's (plan.TakeBound, plan.Connected,
// plan.PlaceHop) over one pending list per step.
func (m *Maintainer) propagateStep(ctx context.Context, d Delta, seedFrom esql.FromItem, k int, state func(esql.FromItem, int) *relation.Relation, metrics *Metrics) error {
	binding := seedFrom.Binding()
	base := m.Space.Relation(d.Rel)
	if base == nil {
		return fmt.Errorf("%w %q", ErrUnknownRelation, d.Rel)
	}
	pending := plan.Pending(m.View)
	h, err := seed(ctx, d, base, binding, &pending)
	if err != nil {
		return err
	}
	if h.card() == 0 {
		// Nothing survives the local conditions; the update cannot affect
		// the view and no site needs to hear about it.
		return nil
	}

	// Site visit order: the updating IS first (its other relations), then
	// the remaining ISs in FROM order.
	type siteRels struct {
		source string
		rels   []esql.FromItem
	}
	bySource := map[string]*siteRels{}
	var order []*siteRels
	addRel := func(f esql.FromItem) {
		src := m.Space.Home(f.Rel)
		sr, ok := bySource[src]
		if !ok {
			sr = &siteRels{source: src}
			bySource[src] = sr
			order = append(order, sr)
		}
		sr.rels = append(sr.rels, f)
	}
	updatedHome := m.Space.Home(d.Rel)
	for _, f := range m.View.From {
		if f.Binding() != binding && m.Space.Home(f.Rel) == updatedHome {
			addRel(f)
		}
	}
	for _, f := range m.View.From {
		if f.Binding() != binding && m.Space.Home(f.Rel) != updatedHome {
			addRel(f)
		}
	}

	for _, site := range order {
		// One scan per relation of the site, over the state step k joins.
		scans := make([]*plan.Scan, len(site.rels))
		for i, f := range site.rels {
			local := state(f, k)
			if local == nil {
				return fmt.Errorf("maintain: view references missing relation %q", f.Rel)
			}
			if scans[i], err = plan.NewScan(local, f.Binding(), local.Card()); err != nil {
				return err
			}
		}
		if m.onSite != nil {
			m.onSite(site.source)
		}
		// Send query + delta to the site.
		metrics.Messages++
		metrics.Bytes += h.bytes()
		for rest := site.rels; len(rest) > 0; {
			// Never form a cross product while a join predicate is available:
			// the next hop is the first relation (FROM order) a pending
			// equi-clause connects to what is bound so far, and plain FROM
			// order only when the view gives this site no such clause.
			next := max(0, slices.IndexFunc(scans, func(s *plan.Scan) bool {
				return plan.Connected(pending, h.schema, s.Schema())
			}))
			f, scan := rest[next], scans[next]
			rest, scans = slices.Delete(rest, next, next+1), slices.Delete(scans, next, next+1)
			if m.onHop != nil {
				m.onHop(f.Binding(), h.card())
			}
			// I/O at the source: min(scan, index retrieval per delta tuple);
			// a scan's estimate is its relation's cardinality.
			metrics.IO += m.joinIO(h.card(), scan.EstRows())
			if err := m.joinHop(ctx, h, scan, plan.PlaceHop(&pending, h.schema, scan.Schema())); err != nil {
				return err
			}
		}
		// Result returns to the warehouse.
		metrics.Messages++
		metrics.Bytes += h.bytes()
	}

	return m.fold(h)
}

// joinHop joins the bag with one scanned relation under the clauses the
// planner placed at this hop. The physical choice mirrors joinIO's
// optimizer assumption (Appendix A): when per-delta-tuple index retrievals
// are cheaper than a full scan, the join probes the relation's memoized key
// index and never streams the local side; otherwise it hash-joins against
// the scan. The index is built once and follows the relation through every
// later batch (WithDelta patches it), so no batch pays a rebuild.
func (m *Maintainer) joinHop(ctx context.Context, h *hop, scan *plan.Scan, p plan.Hop) error {
	leaf, err := plan.NewBatchScan(h.schema, h.bag)
	if err != nil {
		return err
	}
	var right plan.Node = scan
	if len(p.ScanCond) > 0 {
		if right, err = plan.NewFilter(scan, p.ScanCond, scan.EstRows()); err != nil {
			return err
		}
	}
	var node plan.Node
	switch {
	case len(p.Keys) > 0 && h.card() < m.scanIO(scan.EstRows()):
		node, err = plan.NewIndexLookup(leaf, scan, p.Keys, slices.Concat(p.ScanCond, p.Residual), h.card())
	case len(p.Keys) > 0:
		node, err = plan.NewHashJoin(leaf, right, p.Keys, p.Residual, h.card())
	default:
		node, err = plan.NewNestedLoop(leaf, right, p.Residual, h.card())
	}
	if err != nil {
		return err
	}
	h.schema = node.Schema()
	if h.card() == 0 {
		h.bag = relation.NewColumnBatch(nil, h.schema.Len())
		return nil
	}
	h.bag, err = plan.ExecuteBag(ctx, node)
	return err
}

// scanIO is the cost of streaming a relation of card rows: one I/O per block.
func (m *Maintainer) scanIO(card int) int { return max(1, (card+m.bfr-1)/m.bfr) }

// joinIO charges the cheaper of a full scan and per-delta-tuple index
// retrievals, mirroring Appendix A's optimizer assumption.
func (m *Maintainer) joinIO(deltaCard, localCard int) int {
	return min(m.scanIO(localCard), max(1, deltaCard))
}

// fold projects the bag onto the view's output columns and moves each
// row's derivation count by its sign.
func (m *Maintainer) fold(h *hop) error {
	idx := make([]int, len(m.View.Select))
	for i, s := range m.View.Select {
		idx[i] = h.schema.IndexOf(s.Attr.Qualified())
		if idx[i] < 0 {
			return fmt.Errorf("maintain: output column %s not bound by propagation", s.Attr.Qualified())
		}
	}
	sign := h.bag.Col(h.schema.IndexOf(signAttr.Name))
	for i := range h.bag.Rows() {
		t := make(relation.Tuple, len(idx))
		for c, j := range idx {
			t[c] = h.bag.Col(j).Value(i)
		}
		m.counts.add(m.Extent, t, int(sign.Ints[i]))
	}
	return nil
}

// evalCounts finds the view rows with more than one derivation by a full
// bag-semantics evaluation over the given base state: the view's own plan
// (plan.CompileCatalog, so joins run in the planner's join-connected,
// cardinality-ordered hop order) run without its Dedup root, then counted
// (relation.CountDistinct).
// Counts do not depend on the join order.
func (m *Maintainer) evalCounts(ctx context.Context, state func(esql.FromItem) *relation.Relation) (*supportCounts, error) {
	cat := plan.FixedCatalog{Rels: make(map[string]*relation.Relation, len(m.View.From))}
	for _, f := range m.View.From {
		cat.Rels[f.Rel] = state(f)
	}
	p, err := plan.CompileCatalog(m.View, cat)
	if err != nil {
		return nil, err
	}
	batch, err := plan.ExecuteBag(ctx, p.Root.Children()[0])
	if err != nil {
		return nil, err
	}
	cols := make([]*relation.Column, batch.Width())
	for c := range cols {
		cols[c] = batch.Col(c)
	}
	sc := &supportCounts{}
	keep, counts := relation.CountDistinct(cols, batch.Rows())
	for k, n := range counts {
		if n > 1 {
			t := make(relation.Tuple, len(cols))
			for c, col := range cols {
				t[c] = col.Value(int(keep[k]))
			}
			sc.multi.Put(t, int(n))
		}
	}
	return sc, nil
}
