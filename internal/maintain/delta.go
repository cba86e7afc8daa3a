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
// signed deltas exactly the view difference, self-joins included. Insert
// and delete bags ride through the same hops; at the fold each output row's
// derivation count moves by +1 per insert witness and −1 per delete
// witness (the counting algorithm), so multi-supported rows survive
// partial deletions without any recomputation.

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
// propagated through the view's sites as a columnar batch, joined with the
// local relations under the WHERE clauses that become bound along the way
// (every hop runs the planner's operators: a key-index probe, a hash join
// or a nested loop), and folded into derivation counts. pre maps every
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

// hop is the delta flowing between sites: the insert and delete bags over
// one accumulated schema. Multiplicity in a bag is derivation multiplicity.
type hop struct {
	schema *relation.Schema
	ins    *relation.ColumnBatch
	del    *relation.ColumnBatch
}

func (h *hop) card() int { return h.ins.Rows() + h.del.Rows() }

// bytes is the shipped size of the hop: actual tuple bytes, or one schema
// tuple width when both bags are empty (a message envelope is never free).
func (h *hop) bytes() int {
	if n := h.ins.ByteSize() + h.del.ByteSize(); n > 0 {
		return n
	}
	return h.schema.TupleSize()
}

// propagateStep runs one step of the batch: seed the delta at its binding,
// visit the sites (the updated relation's own IS first — its co-located
// relations join without any message — then the remaining ISs in FROM
// order), and fold the surviving witnesses into the derivation counts.
func (m *Maintainer) propagateStep(ctx context.Context, d Delta, seedFrom esql.FromItem, k int, state func(esql.FromItem, int) *relation.Relation, metrics *Metrics) error {
	binding := seedFrom.Binding()
	base := m.Space.Relation(d.Rel)
	if base == nil {
		return fmt.Errorf("%w %q", ErrUnknownRelation, d.Rel)
	}
	seedSchema := base.Schema().Qualify(d.Rel, binding)
	h := &hop{
		schema: seedSchema,
		ins:    relation.NewColumnBatch(d.Inserts, seedSchema.Len()),
		del:    relation.NewColumnBatch(d.Deletes, seedSchema.Len()),
	}

	// Clauses fully bound inside the seed delta are applied exactly once,
	// here; later hops skip them (they can never re-filter the delta).
	applied := make([]bool, len(m.View.Where))
	var seedCond relation.And
	for i, w := range m.View.Where {
		cl := clauseOf(w.Clause)
		if allIn(seedSchema, cl.Attrs()) {
			seedCond = append(seedCond, cl)
			applied[i] = true
		}
	}
	if err := h.filter(ctx, seedCond); err != nil {
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
		if len(site.rels) == 0 {
			continue
		}
		if m.onSite != nil {
			m.onSite(site.source)
		}
		// Send query + delta to the site.
		metrics.Messages++
		metrics.Bytes += h.bytes()
		for rest := site.rels; len(rest) > 0; {
			// Never form a cross product while a join predicate is available:
			// the next hop is the first relation (FROM order) an unapplied
			// equi-clause connects to what is bound so far, and plain FROM
			// order only when the view gives this site no such clause.
			next := max(0, slices.IndexFunc(rest, func(f esql.FromItem) bool {
				return m.connected(h.schema, f.Binding(), applied)
			}))
			f := rest[next]
			rest = slices.Delete(rest, next, next+1)
			local := state(f, k)
			if local == nil {
				return fmt.Errorf("maintain: view references missing relation %q", f.Rel)
			}
			if m.onHop != nil {
				m.onHop(f.Binding(), h.card())
			}
			// I/O at the source: min(scan, index retrieval per delta tuple).
			metrics.IO += m.joinIO(h.card(), local.Card())
			if err := m.joinHop(ctx, h, local, f.Binding(), applied); err != nil {
				return err
			}
		}
		// Result returns to the warehouse.
		metrics.Messages++
		metrics.Bytes += h.bytes()
	}

	return m.fold(h)
}

// connected reports whether an unapplied equi-clause of the view equates an
// attribute of binding with one the hop has already bound — whether joining
// binding next is a key lookup rather than a cross product.
func (m *Maintainer) connected(bound *relation.Schema, binding string, applied []bool) bool {
	for i, w := range m.View.Where {
		c := w.Clause
		if applied[i] || c.Op != relation.OpEQ || c.Right.Attr == "" {
			continue
		}
		if c.Left.Rel == binding && bound.Has(c.Right.Qualified()) ||
			c.Right.Rel == binding && bound.Has(c.Left.Qualified()) {
			return true
		}
	}
	return false
}

// filter narrows both bags by a conjunction, through the columnar filter
// kernels.
func (h *hop) filter(ctx context.Context, cond relation.And) error {
	if len(cond) == 0 {
		return nil
	}
	apply := func(b *relation.ColumnBatch) (*relation.ColumnBatch, error) {
		if b.Rows() == 0 {
			return b, nil
		}
		leaf, err := plan.NewBatchScan(h.schema, b)
		if err != nil {
			return nil, err
		}
		f, err := plan.NewFilter(leaf, cond, b.Rows())
		if err != nil {
			return nil, err
		}
		return plan.ExecuteBag(ctx, f)
	}
	var err error
	if h.ins, err = apply(h.ins); err != nil {
		return err
	}
	h.del, err = apply(h.del)
	return err
}

// joinHop joins both bags with one local relation under the view's WHERE
// clauses that become newly bound at this hop: equi-clauses bridging delta
// and local become hash keys, clauses local to the scanned relation are
// pushed below the join, the rest apply as a residual. Clauses already
// applied (fully bound inside the delta at an earlier point) are skipped.
func (m *Maintainer) joinHop(ctx context.Context, h *hop, local *relation.Relation, binding string, applied []bool) error {
	scan, err := plan.NewScan(local, binding, local.Card())
	if err != nil {
		return err
	}
	scanSchema := scan.Schema()
	var keys []relation.Clause
	var scanCond, residual relation.And
	for i, w := range m.View.Where {
		if applied[i] {
			continue
		}
		cl := clauseOf(w.Clause)
		switch {
		case allIn(scanSchema, cl.Attrs()):
			scanCond = append(scanCond, cl)
		case !allIn2(h.schema, scanSchema, cl.Attrs()):
			continue // still unbound; a later hop applies it
		case cl.IsEquiJoin() && h.schema.Has(cl.Left) && scanSchema.Has(cl.Right):
			keys = append(keys, cl)
		case cl.IsEquiJoin() && scanSchema.Has(cl.Left) && h.schema.Has(cl.Right):
			keys = append(keys, relation.AttrAttr(cl.Right, cl.Op, cl.Left))
		default:
			residual = append(residual, cl)
		}
		applied[i] = true
	}
	var right plan.Node = scan
	if len(scanCond) > 0 {
		if right, err = plan.NewFilter(scan, scanCond, local.Card()); err != nil {
			return err
		}
	}

	// Physical choice per bag, mirroring joinIO's optimizer assumption
	// (Appendix A): when per-delta-tuple index retrievals are cheaper than
	// a full scan, the join probes the relation's memoized key index and
	// never streams the local side; otherwise it hash-joins against the
	// scan. The index is built once and follows the relation through every
	// later batch (WithDelta patches it), so no batch pays a rebuild.
	scanIO := m.scanIO(local.Card())
	var lookupResidual relation.And
	if len(scanCond) > 0 || len(residual) > 0 {
		lookupResidual = append(append(relation.And{}, scanCond...), residual...)
	}

	combined := relation.NewSchema(append(h.schema.Attrs(), scanSchema.Attrs()...)...)
	join := func(b *relation.ColumnBatch) (*relation.ColumnBatch, error) {
		if b.Rows() == 0 {
			return relation.NewColumnBatch(nil, combined.Len()), nil
		}
		leaf, err := plan.NewBatchScan(h.schema, b)
		if err != nil {
			return nil, err
		}
		var node plan.Node
		switch {
		case len(keys) > 0 && b.Rows() < scanIO:
			node, err = plan.NewIndexLookup(leaf, scan, keys, lookupResidual, b.Rows())
		case len(keys) > 0:
			node, err = plan.NewHashJoin(leaf, right, keys, residual, b.Rows())
		default:
			node, err = plan.NewNestedLoop(leaf, right, residual, b.Rows())
		}
		if err != nil {
			return nil, err
		}
		return plan.ExecuteBag(ctx, node)
	}
	ins, err := join(h.ins)
	if err != nil {
		return err
	}
	del, err := join(h.del)
	if err != nil {
		return err
	}
	h.schema, h.ins, h.del = combined, ins, del
	return nil
}

// scanIO is the cost of streaming a relation of card rows: one I/O per block.
func (m *Maintainer) scanIO(card int) int { return max(1, (card+m.bfr()-1)/m.bfr()) }

// joinIO charges the cheaper of a full scan and per-delta-tuple index
// retrievals, mirroring Appendix A's optimizer assumption.
func (m *Maintainer) joinIO(deltaCard, localCard int) int {
	return min(m.scanIO(localCard), max(1, deltaCard))
}

// fold projects both bags onto the view's output columns and moves the
// derivation counts: +1 per insert witness, −1 per delete witness.
func (m *Maintainer) fold(h *hop) error {
	idx := make([]int, len(m.View.Select))
	for i, s := range m.View.Select {
		idx[i] = h.schema.IndexOf(s.Attr.Qualified())
		if idx[i] < 0 {
			return fmt.Errorf("maintain: output column %s not bound by propagation", s.Attr.Qualified())
		}
	}
	fold := func(b *relation.ColumnBatch, d int) {
		for i := range b.Rows() {
			t := make(relation.Tuple, len(idx))
			for c, j := range idx {
				t[c] = b.Col(j).Value(i)
			}
			m.counts.add(m.Extent, t, d)
		}
	}
	fold(h.ins, 1)
	fold(h.del, -1)
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

// allIn reports whether every attribute is bound by the schema.
func allIn(s *relation.Schema, attrs []string) bool {
	for _, a := range attrs {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// allIn2 reports whether every attribute is bound by one of two schemas.
func allIn2(a, b *relation.Schema, attrs []string) bool {
	for _, at := range attrs {
		if !a.Has(at) && !b.Has(at) {
			return false
		}
	}
	return true
}

// clauseOf lowers an E-SQL clause over qualified attribute references to a
// relation-layer clause.
func clauseOf(c esql.Clause) relation.Clause {
	if c.Right.Attr != "" {
		return relation.AttrAttr(c.Left.Qualified(), c.Op, c.Right.Qualified())
	}
	return relation.AttrConst(c.Left.Qualified(), c.Op, c.Const)
}
