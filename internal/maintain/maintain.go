// Package maintain implements the paper's Algorithm 1: incremental
// maintenance of materialized view extents under base-data updates, with
// measured message/byte/IO metrics that cross-validate against the analytic
// QC-Model cost factors.
//
// Updates flow through three phases, separable so a warehouse with many
// live views applies the base change exactly once and folds the delta into
// every view:
//
//  1. Collapse nets a batch of tuple-level updates into per-relation
//     insert/delete Deltas against the current base state (no-ops and
//     cancelling pairs disappear; the notification metrics are charged
//     here, once per source update).
//  2. ApplyBase lands the deltas on the base relations copy-on-write:
//     every touched relation is replaced by a fresh object that shares
//     its pages and indexes with the old one and owns only the delta's
//     edits, so landing costs O(|delta|) and readers holding the old
//     object (through an epoch-published warehouse Version) never
//     observe mutation.
//  3. Maintainer.ApplyDeltas propagates the deltas through one view's
//     sites (Algorithm 1), batched through the columnar plan operators,
//     and folds the result by derivation counting into the rows that
//     appeared and vanished, which land through Extent.WithDelta.
//
// Maintainer.Apply composes the three for the single-update, single-view
// case the experiments drive.
package maintain

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/esql"
	"repro/internal/relation"
	"repro/internal/space"
)

// ErrUnknownRelation reports a data update addressed to a relation the
// space does not hold.
var ErrUnknownRelation = errors.New("maintain: unknown relation")

// Metrics are the measured counterparts of the analytic cost factors.
type Metrics struct {
	Messages int // messages between warehouse and sources
	Bytes    int // bytes moved in either direction (incl. notification)
	IO       int // simulated disk I/Os at the sources
}

// Add accumulates.
func (m *Metrics) Add(o Metrics) {
	m.Messages += o.Messages
	m.Bytes += o.Bytes
	m.IO += o.IO
}

// UpdateKind distinguishes inserts from deletes.
type UpdateKind uint8

// Update kinds.
const (
	Insert UpdateKind = iota
	Delete
)

// Update is one base-data content change.
type Update struct {
	Kind  UpdateKind
	Rel   string
	Tuple relation.Tuple
}

// Delta is the net effect of a collapsed update batch on one base
// relation: the tuples to insert (absent before the batch) and the tuples
// to delete (present before the batch). The two sets are disjoint.
type Delta struct {
	Rel     string
	Inserts []relation.Tuple
	Deletes []relation.Tuple
}

// Card returns the total number of delta tuples.
func (d Delta) Card() int { return len(d.Inserts) + len(d.Deletes) }

// Collapse nets a batch of updates into per-relation deltas against the
// current base state, in first-touch relation and tuple order. Inserting a
// present tuple and deleting an absent one are no-ops; an insert cancels a
// pending delete of the same tuple and vice versa. The returned metrics are
// the update notifications — per the paper the source sends ΔR to the
// warehouse exactly once per update, no matter how many views consume it —
// so every update, including a no-op, charges one message plus its tuple
// bytes here and nowhere else.
func Collapse(sp *space.Space, updates []Update) ([]Delta, Metrics, error) {
	var metrics Metrics
	// pending holds one relation's netted updates in first-touch order: +1
	// for a pending insert, -1 for a pending delete, 0 once cancelled.
	type pending struct {
		rel string
		set relation.TupleSet[int]
	}
	byRel := make(map[string]*pending)
	var order []*pending
	for _, u := range updates {
		metrics.Messages++
		metrics.Bytes += u.Tuple.ByteSize()
		base := sp.Relation(u.Rel)
		if base == nil {
			return nil, metrics, fmt.Errorf("%w %q", ErrUnknownRelation, u.Rel)
		}
		if len(u.Tuple) != base.Schema().Len() {
			return nil, metrics, fmt.Errorf("maintain: update tuple arity %d != %s arity %d",
				len(u.Tuple), u.Rel, base.Schema().Len())
		}
		p := byRel[u.Rel]
		if p == nil {
			p = &pending{rel: u.Rel}
			byRel[u.Rel] = p
			order = append(order, p)
		}
		pend, _ := p.set.Get(u.Tuple)
		present := (pend >= 0 && base.Contains(u.Tuple)) || pend > 0
		switch {
		case u.Kind == Insert && !present:
			p.set.Put(u.Tuple, pend+1) // a pending delete cancels
		case u.Kind == Delete && present:
			p.set.Put(u.Tuple, pend-1) // a pending insert cancels
		}
	}
	var deltas []Delta
	for _, p := range order {
		d := Delta{Rel: p.rel}
		for t, pend := range p.set.All() {
			switch {
			case pend > 0:
				d.Inserts = append(d.Inserts, t)
			case pend < 0:
				d.Deletes = append(d.Deletes, t)
			}
		}
		if d.Card() > 0 {
			deltas = append(deltas, d)
		}
	}
	return deltas, metrics, nil
}

// ApplyBase lands collapsed deltas on their base relations copy-on-write:
// each touched relation is succeeded by its Relation.WithDelta, swapped into
// the space, leaving the old object untouched for concurrent readers. The
// returned map holds the pre-update relation per touched name — the
// pre-state the per-view delta propagation (ApplyDeltas) telescopes
// against.
func ApplyBase(sp *space.Space, deltas []Delta) (map[string]*relation.Relation, error) {
	pre := make(map[string]*relation.Relation, len(deltas))
	for _, d := range deltas {
		cur := sp.Relation(d.Rel)
		if cur == nil {
			return nil, fmt.Errorf("%w %q", ErrUnknownRelation, d.Rel)
		}
		next, err := cur.WithDelta(d.Inserts, d.Deletes)
		if err != nil {
			return nil, err
		}
		if err := sp.ReplaceRelation(d.Rel, next); err != nil {
			return nil, err
		}
		pre[d.Rel] = cur
	}
	return pre, nil
}

// Maintainer incrementally maintains one materialized view over a space.
type Maintainer struct {
	Space *space.Space
	View  *esql.ViewDef // fully qualified
	// Extent is the materialized view extent, with the view's output
	// column names. ApplyDeltas replaces it with a fresh object per batch
	// (copy-on-write) — it is never mutated in place, so snapshots holding
	// a previous extent stay stable.
	Extent *relation.Relation

	// bfr is the blocking factor the I/O simulation prices scans with.
	bfr int

	// counts tracks the extent rows with more than one derivation (the
	// counting algorithm's bookkeeping; one derivation is implicit), built
	// lazily from the pre-update state on the first ApplyDeltas and
	// maintained incrementally afterwards.
	counts *supportCounts
	// onSite, when set, observes every site visit of a propagation pass in
	// order — a test seam for pinning Algorithm 1's visit order.
	onSite func(source string)
	// onHop, when set, observes every local join of a propagation pass: the
	// binding joined and the number of delta rows going in — a test seam
	// for pinning the hop order inside a site.
	onHop func(binding string, in int)
}

// New creates a maintainer; the initial extent must be supplied (usually
// from exec.Evaluate), and bfr is the cost model's blocking factor
// (core.CostModel.Bfr), tuples per source block.
func New(sp *space.Space, view *esql.ViewDef, extent *relation.Relation, bfr int) *Maintainer {
	return &Maintainer{Space: sp, View: view, Extent: extent, bfr: bfr}
}

// Apply performs one base update at its source and brings the view extent
// up to date, returning the measured metrics — the single-update
// composition of Collapse, ApplyBase, and ApplyDeltas ("the view
// maintainer brings the view extents up-to-date right after the IS data is
// updated"). ctx is checked before the base update lands; past that point
// the propagation should be allowed to finish — callers owning published
// state pass a post-commit context the way warehouse.ApplyUpdates does,
// while measurement drivers over private spaces (experiments) may pass any
// ctx since a torn cancel only tears their own scratch state.
func (m *Maintainer) Apply(ctx context.Context, u Update) (Metrics, error) {
	deltas, metrics, err := Collapse(m.Space, []Update{u})
	if err != nil || len(deltas) == 0 {
		return metrics, err
	}
	if err := ctx.Err(); err != nil {
		return metrics, err
	}
	pre, err := ApplyBase(m.Space, deltas)
	if err != nil {
		return metrics, err
	}
	pm, err := m.ApplyDeltas(ctx, deltas, pre)
	metrics.Add(pm)
	return metrics, err
}
