package maintain

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/esql"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/space"
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
// A's lookup-or-scan choice, and the fold. A seed binding's step is a
// program compiled once, on the binding's first step, and bound per batch:
// a batch rebinds each scan to the relation state the step reads and
// copies each operator over its new inputs (plan.Copy), so no batch
// re-places a clause or builds a schema.

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
// each hop (every hop runs one plan of the planner's operators: a hash join
// probing the local relation's key index or indexing the smaller side, or
// a nested loop), and folded into derivation counts. Each step runs its
// seed binding's program, compiled on the binding's first step and bound
// here, over its delta's signed bag: deltas are Collapse's. pre maps every
// delta relation to its pre-batch state (from ApplyBase); the per-step
// pre/post choice telescopes the deltas into the exact view difference.
// The fold lands through Extent.WithDelta: the rows whose count rose from
// zero are inserted, those whose count fell to zero deleted, so a batch
// costs what it changes in the view, not the view's size. The previous
// Extent object is never mutated — a batch with a net effect replaces it,
// one without keeps it — so snapshots stay stable. Metrics cover the site
// round trips and source I/O of this view's propagation only; the one-time
// update notification is charged by Collapse.
func (m *Maintainer) ApplyDeltas(ctx context.Context, deltas []Delta, pre map[string]*relation.Relation) (Metrics, error) {
	var metrics Metrics

	// One step per (delta, FROM binding referencing it), in collapse ×
	// FROM order; stepAt holds each binding's step plus one, 0 when its
	// relation is untouched. A view not referencing any updated relation
	// has nothing to do.
	type step struct {
		d  *Delta
		at int
	}
	var steps []step
	from := m.View.From
	stepAt := make([]int, len(from))
	for i := range deltas {
		for at, f := range from {
			if f.Rel == deltas[i].Rel {
				steps = append(steps, step{d: &deltas[i], at: at})
				stepAt[at] = len(steps)
			}
		}
	}
	if len(steps) == 0 {
		return metrics, nil
	}

	// state resolves the relation FROM item at joins against during step
	// k: post-update for bindings whose step already ran, pre-update for
	// bindings still pending, current for untouched relations.
	state := func(at, k int) *relation.Relation {
		if stepAt[at]-1 > k {
			if p := pre[from[at].Rel]; p != nil {
				return p
			}
		}
		return m.Space.Relation(from[at].Rel)
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

	if m.programs == nil {
		m.programs = make([]*program, len(from))
	}
	for k, st := range steps {
		p := m.programs[st.at]
		if p == nil || !p.fits(m.Space, from) {
			var err error
			if p, err = m.compileStep(st.at); err != nil {
				return metrics, err
			}
			m.programs[st.at] = p
		}
		if err := m.runStep(ctx, p, st.d.signed, k, state, &metrics); err != nil {
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

// signedBag is d as one bag of width columns and the sign column: its
// inserts and then its deletes. Collapse builds it once per delta, and
// every view's steps share it read-only: the operators never write a
// leaf's columns.
func signedBag(d Delta, width int) *relation.ColumnBatch {
	rows := relation.NewColumnBatch(slices.Concat(d.Inserts, d.Deletes), width)
	cols := make([]relation.Column, width+1)
	for j := range width {
		cols[j] = *rows.Col(j)
	}
	sign := make([]int64, d.Card())
	for i := range sign {
		sign[i] = 1
		if i >= len(d.Inserts) {
			sign[i] = -1
		}
	}
	cols[width] = relation.Column{Kind: relation.TypeInt, Ints: sign}
	return relation.BatchFromColumns(d.Card(), cols)
}

var compiles atomic.Int64

// Compiles returns the number of step programs compiled since the process
// started: one per seed binding's first step, and one more each time a
// program stops fitting its view's relations.
func Compiles() int64 { return compiles.Load() }

// program is one seed binding's propagation step, compiled from the view
// and the space (compileStep) and bound per batch (runStep): the site and
// hop order, every hop's clause placement and operators, and the fold's
// column positions. It holds schemas and no relation, so it pins no data.
// It fits while every FROM relation keeps the schema object and the home
// it was compiled over: AddAttribute, or a delete or rename of a column the
// view does not read, changes a relation's schema without an adoption.
type program struct {
	schemas []*relation.Schema // FROM order
	homes   []string
	seed    *relation.Schema // the delta's, qualified, and the sign column
	filter  plan.Node        // the clauses the delta binds on its own; nil: none
	sites   []site
	out     []int // the view's columns in the last hop's schema
	sign    int
}

// site is one source's visit: its local joins, in hop order.
type site struct {
	source string
	hops   []hopProgram
}

// hopProgram is one local join, over the relation at FROM position at: join
// takes the scan under its local clauses (filter; nil: none) and applies
// the rest as its residual, a HashJoin when the hop has an equi-key and a
// NestedLoop otherwise. A HashJoin over a filter has a second arm, probe,
// which borrows the bare scan's key index under every clause placed here.
type hopProgram struct {
	at                  int
	scan                *plan.Scan
	probe, filter, join plan.Node
}

// fits reports whether p is the program compileStep would compile now.
func (p *program) fits(sp *space.Space, from []esql.FromItem) bool {
	for i, f := range from {
		if r := sp.Relation(f.Rel); r == nil || r.Schema() != p.schemas[i] || sp.Home(f.Rel) != p.homes[i] {
			return false
		}
	}
	return true
}

// deltaLeaf stands for the delta flowing into an operator of a program;
// runStep swaps in each batch's.
func deltaLeaf(schema *relation.Schema) plan.Node {
	leaf, _ := plan.NewBatchScan(schema, relation.NewColumnBatch(nil, schema.Len())) // widths match
	return leaf
}

// compileStep compiles the step seeded at FROM position seedAt. The
// updated relation's own IS is visited first (its co-located relations
// join without any message), then the remaining ISs in FROM order. Clause
// placement is the planner's (plan.TakeBound, plan.Connected,
// plan.PlaceHop) over one pending list: the seed takes the clauses the
// delta binds on its own, and inside a site the next hop is the first
// relation (FROM order) a pending equi-clause connects to what is bound so
// far — plain FROM order only when the view gives the site no such clause,
// so no cross product forms while a join predicate is available.
func (m *Maintainer) compileStep(seedAt int) (*program, error) {
	compiles.Add(1)
	from := m.View.From
	p := &program{schemas: make([]*relation.Schema, len(from)), homes: make([]string, len(from))}
	for i, f := range from {
		r := m.Space.Relation(f.Rel)
		if r == nil {
			return nil, fmt.Errorf("maintain: view references missing relation %q", f.Rel)
		}
		p.schemas[i], p.homes[i] = r.Schema(), m.Space.Home(f.Rel)
	}
	pending := plan.Pending(m.View)
	p.seed = relation.NewSchema(append(p.schemas[seedAt].Qualify(from[seedAt].Rel, from[seedAt].Binding()).Attrs(), signAttr)...)
	var err error
	if cond := plan.TakeBound(&pending, p.seed); len(cond) > 0 {
		if p.filter, err = plan.NewFilter(deltaLeaf(p.seed), cond, 0); err != nil {
			return nil, err
		}
	}
	for _, local := range []bool{true, false} {
		for i, f := range from {
			if i == seedAt || (p.homes[i] == p.homes[seedAt]) != local {
				continue
			}
			s := slices.IndexFunc(p.sites, func(s site) bool { return s.source == p.homes[i] })
			if s < 0 {
				s = len(p.sites)
				p.sites = append(p.sites, site{source: p.homes[i]})
			}
			p.sites[s].hops = append(p.sites[s].hops, hopProgram{at: i, scan: plan.UnboundScan(p.schemas[i], f.Rel, f.Binding())})
		}
	}
	bound := p.seed
	for _, s := range p.sites {
		for n := range s.hops {
			next := n + max(0, slices.IndexFunc(s.hops[n:], func(h hopProgram) bool {
				return plan.Connected(pending, bound, h.scan.Schema())
			}))
			h := s.hops[next]
			copy(s.hops[n+1:next+1], s.hops[n:next])
			place := plan.PlaceHop(&pending, bound, h.scan.Schema())
			var right plan.Node = h.scan
			if len(place.ScanCond) > 0 {
				if h.filter, err = plan.NewFilter(h.scan, place.ScanCond, 0); err != nil {
					return nil, err
				}
				right = h.filter
			}
			leaf := deltaLeaf(bound)
			if len(place.Keys) > 0 && h.filter != nil {
				if h.probe, err = plan.NewHashJoin(leaf, h.scan, place.Keys, slices.Concat(place.ScanCond, place.Residual), 0); err != nil {
					return nil, err
				}
			}
			if len(place.Keys) > 0 {
				h.join, err = plan.NewHashJoin(leaf, right, place.Keys, place.Residual, 0)
			} else {
				h.join, err = plan.NewNestedLoop(leaf, right, place.Residual, 0)
			}
			if err != nil {
				return nil, err
			}
			s.hops[n], bound = h, h.join.Schema()
		}
	}
	p.out = make([]int, len(m.View.Select))
	for i, s := range m.View.Select {
		if p.out[i] = bound.IndexOf(s.Attr.Qualified()); p.out[i] < 0 {
			return nil, fmt.Errorf("maintain: output column %s not bound by propagation", s.Attr.Qualified())
		}
	}
	p.sign = bound.IndexOf(signAttr.Name)
	return p, nil
}

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

// runStep binds p to step k and runs it: seed the delta, visit the sites,
// and fold the surviving witnesses into the derivation counts. state
// resolves the relation each FROM position joins against in step k.
// Each hop binds its scan to that relation and copies its operators over
// the delta (plan.Copy); the physical choice mirrors joinIO's optimizer
// assumption (Appendix A): when per-delta-tuple index retrievals are
// cheaper than a full scan, the join probes the relation's memoized key
// index from the bare scan, its local clauses applied to the matches, and
// never streams the local side; otherwise it hash-joins against the scan
// under its local clauses (a scan with none still lends its index). The
// index is built once and follows the relation through every later batch
// (WithDelta patches it), so no batch pays a rebuild.
func (m *Maintainer) runStep(ctx context.Context, p *program, bag *relation.ColumnBatch, k int, state func(at, k int) *relation.Relation, metrics *Metrics) error {
	h := &hop{schema: p.seed, bag: bag}
	if p.filter != nil {
		if err := h.run(ctx, p.filter, nil); err != nil {
			return err
		}
	}
	if h.card() == 0 {
		// Nothing survives the local conditions; the update cannot affect
		// the view and no site needs to hear about it.
		return nil
	}
	for _, s := range p.sites {
		if m.onSite != nil {
			m.onSite(s.source)
		}
		// Send query + delta to the site.
		metrics.Messages++
		metrics.Bytes += h.bytes()
		for _, hp := range s.hops {
			local := state(hp.at, k)
			if m.onHop != nil {
				m.onHop(m.View.From[hp.at].Binding(), h.card())
			}
			// I/O at the source: min(scan, index retrieval per delta tuple);
			// a scan's estimate is its relation's cardinality.
			metrics.IO += m.joinIO(h.card(), local.Card())
			if h.card() == 0 {
				h.schema, h.bag = hp.join.Schema(), relation.NewColumnBatch(nil, hp.join.Schema().Len())
				continue
			}
			var err error
			scan := hp.scan.Bind(local, local.Card())
			switch {
			case hp.probe != nil && h.card() < m.scanIO(local.Card()):
				err = h.run(ctx, hp.probe, scan)
			case hp.filter != nil:
				err = h.run(ctx, hp.join, plan.Copy(hp.filter, local.Card(), scan))
			default:
				err = h.run(ctx, hp.join, scan)
			}
			if err != nil {
				return err
			}
		}
		// Result returns to the warehouse.
		metrics.Messages++
		metrics.Bytes += h.bytes()
	}
	m.fold(p, h)
	return nil
}

// run replaces the bag with the output of op copied over it and, for a
// join, over right, the local input.
func (h *hop) run(ctx context.Context, op, right plan.Node) error {
	leaf, err := plan.NewBatchScan(h.schema, h.bag)
	if err != nil {
		return err
	}
	var node plan.Node
	if right == nil {
		node = plan.Copy(op, h.card(), leaf)
	} else {
		node = plan.Copy(op, h.card(), leaf, right)
	}
	h.schema = op.Schema()
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

// fold moves each row's derivation count, projected onto the view's
// columns, by its sign.
func (m *Maintainer) fold(p *program, h *hop) {
	sign := h.bag.Col(p.sign)
	for i := range h.bag.Rows() {
		t := make(relation.Tuple, len(p.out))
		for c, j := range p.out {
			t[c] = h.bag.Col(j).Value(i)
		}
		m.counts.add(m.Extent, t, int(sign.Ints[i]))
	}
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
