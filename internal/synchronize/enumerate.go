package synchronize

import (
	"container/heap"
	"context"
	"iter"
	"sort"

	"repro/internal/esql"
	"repro/internal/space"
)

// DropWeight assigns a nonnegative enumeration weight to a dispensable
// SELECT item. The drop-variant enumerator streams variants in nondecreasing
// total dropped weight, so the weight function defines which variants are
// "best": with the QC quality weights (w1 for category-1 items, w2 for
// category 2, as the warehouse sets them) the stream is ordered by
// nonincreasing achievable QC score, which is what the warehouse's bounded
// search prunes against. A nil weight falls back to uniform (order by number
// of dropped items).
type DropWeight func(esql.SelectItem) float64

// uniformWeight is the default DropWeight: every dropped item costs 1, so
// variants stream in order of how many items they drop.
func uniformWeight(esql.SelectItem) float64 { return 1 }

// BaseRewritings generates the deduplicated, signature-ordered set of base
// legal rewritings of view v under change c — the SVS/CVS replacement search
// without the drop-variant spectrum. It is the eager root of both Synchronize
// and the warehouse's search: base rewritings are few (linear in the
// applicable PC constraints, quadratic for join substitutions) while
// drop-variants are exponential, so only the latter are streamed.
func (sy *Synchronizer) BaseRewritings(v *esql.ViewDef, c space.Change) ([]*Rewriting, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if !Affected(v, c) {
		return []*Rewriting{identity(v)}, nil
	}
	var rws []*Rewriting
	var err error
	switch c.Kind {
	case space.DeleteRelation:
		rws, err = sy.deleteRelation(v, c.Rel)
	case space.DeleteAttribute:
		rws, err = sy.deleteAttribute(v, c.Rel, c.Attr)
	case space.RenameRelation:
		rws, err = renameRelation(v, c.Rel, c.NewName)
	case space.RenameAttribute:
		rws, err = renameAttribute(v, c.Rel, c.Attr, c.NewName)
	default:
		return []*Rewriting{identity(v)}, nil
	}
	if err != nil {
		return nil, err
	}
	return dedupe(rws), nil
}

// Enumerate streams the full rewriting space of view v under change c
// without materializing it: the base rewritings first (signature order),
// then — when EnumerateDropVariants is set — each base's drop-variants in
// best-first (lightest dropped weight) order, deduplicated on the fly.
// A non-nil error is yielded at most once, as the final element. Stopping
// early costs nothing beyond the variants already pulled, which is the point:
// a wide view's exponential spectrum is never built unless a consumer walks
// all of it. The stream polls ctx between variants and yields ctx.Err() as
// its final element when cancelled, so a consumer draining an exponential
// spectrum stops within one variant of the cancellation.
func (sy *Synchronizer) Enumerate(ctx context.Context, v *esql.ViewDef, c space.Change) iter.Seq2[*Rewriting, error] {
	return func(yield func(*Rewriting, error) bool) {
		bases, err := sy.BaseRewritings(v, c)
		if err != nil {
			yield(nil, err)
			return
		}
		seen := make(map[string]bool, len(bases))
		for _, b := range bases {
			seen[b.View.Signature()] = true
			if !yield(b, nil) {
				return
			}
		}
		// An unaffected view's identity rewriting must stay as-is: the
		// spectrum only applies to rewritings forced by an actual change.
		if !sy.EnumerateDropVariants || !Affected(v, c) {
			return
		}
		for _, b := range bases {
			it := sy.Variants(b)
			for {
				if err := ctx.Err(); err != nil {
					yield(nil, err)
					return
				}
				rw, ok := it.Next()
				if !ok {
					break
				}
				sig := rw.View.Signature()
				if seen[sig] {
					continue
				}
				seen[sig] = true
				if !yield(rw, nil) {
					return
				}
			}
		}
	}
}

// droppable is one dispensable SELECT item of a base rewriting, addressed by
// its position in the base view's SELECT clause.
type droppable struct {
	selIdx int
	weight float64
}

// subsetState is one node of the best-first subset search: a strictly
// increasing list of indices into the sorted droppable list, with its total
// weight cached.
type subsetState struct {
	weight  float64
	members []int
}

// subsetHeap is a min-heap of subsetStates ordered by (weight, members
// lexicographically) so enumeration order is a deterministic function of the
// base rewriting alone.
type subsetHeap []subsetState

func (h subsetHeap) Len() int { return len(h) }
func (h subsetHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	a, b := h[i].members, h[j].members
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}
func (h subsetHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *subsetHeap) Push(x interface{}) { *h = append(*h, x.(subsetState)) }
func (h *subsetHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// VariantIterator lazily enumerates the drop-variants of one base rewriting
// (footnote 2's spectrum: every nonempty proper subset of the base's
// dispensable SELECT items additionally dropped) in nondecreasing total
// dropped weight. It uses the classic k-best subset-sum frontier: the heap
// holds O(pulled) candidate subsets, so pulling the first few variants of a
// 20-attribute view costs a handful of clones instead of 2^20.
type VariantIterator struct {
	base      *Rewriting
	items     []droppable // sorted by (weight asc, select index asc)
	frontier  subsetHeap
	remaining int // valid variants still allowed by MaxDropVariants
}

// Variants returns a lazy best-first iterator over the drop-variants of
// base, ordered by the synchronizer's VariantWeight (uniform when nil) and
// capped at MaxDropVariants valid variants — the universe Enumerate walks.
func (sy *Synchronizer) Variants(base *Rewriting) *VariantIterator {
	wf := sy.VariantWeight
	if wf == nil {
		wf = uniformWeight
	}
	it := &VariantIterator{base: base, remaining: sy.MaxDropVariants}
	for i, s := range base.View.Select {
		if s.Dispensable {
			it.items = append(it.items, droppable{selIdx: i, weight: wf(s)})
		}
	}
	// The exhaustive guards: nothing to drop, or a single droppable item
	// that is the entire interface (dropping it would empty the view).
	if len(it.items) == 0 ||
		(len(it.items) == len(base.View.Select) && len(it.items) == 1) {
		return it
	}
	sort.SliceStable(it.items, func(a, b int) bool {
		if it.items[a].weight != it.items[b].weight {
			return it.items[a].weight < it.items[b].weight
		}
		return it.items[a].selIdx < it.items[b].selIdx
	})
	it.frontier = subsetHeap{{weight: it.items[0].weight, members: []int{0}}}
	return it
}

// PeekWeight returns the total dropped weight of the next variant subset the
// iterator would consider, without materializing it. ok is false when the
// iterator is exhausted. Every later variant weighs at least this much, so a
// score bound computed from PeekWeight holds for the whole remaining stream —
// the branch-and-bound hook of the top-K search.
func (it *VariantIterator) PeekWeight() (weight float64, ok bool) {
	if len(it.frontier) == 0 || it.remaining <= 0 {
		return 0, false
	}
	return it.frontier[0].weight, true
}

// Next builds and returns the next drop-variant, or ok=false when the
// spectrum (or the MaxDropVariants cap) is exhausted. Subsets whose variant
// fails structural validation are skipped and do not count against the cap,
// matching the exhaustive enumeration.
func (it *VariantIterator) Next() (*Rewriting, bool) {
	for len(it.frontier) > 0 {
		if it.remaining <= 0 {
			return nil, false
		}
		st := heap.Pop(&it.frontier).(subsetState)
		it.pushSuccessors(st)
		if len(st.members) == len(it.base.View.Select) {
			continue // would empty the view interface
		}
		variant, ok := it.build(st)
		if !ok {
			continue
		}
		it.remaining--
		return variant, true
	}
	return nil, false
}

// pushSuccessors expands the frontier with the two children of the popped
// subset: grow (add the next item after the largest member) and replace
// (swap the largest member for the next item). Each nonempty subset has
// exactly one parent under this rule, so the search visits every subset once
// in nondecreasing weight.
func (it *VariantIterator) pushSuccessors(st subsetState) {
	last := st.members[len(st.members)-1]
	next := last + 1
	if next >= len(it.items) {
		return
	}
	grow := make([]int, len(st.members)+1)
	copy(grow, st.members)
	grow[len(st.members)] = next
	heap.Push(&it.frontier, subsetState{
		weight:  st.weight + it.items[next].weight,
		members: grow,
	})
	replace := make([]int, len(st.members))
	copy(replace, st.members)
	replace[len(replace)-1] = next
	heap.Push(&it.frontier, subsetState{
		weight:  st.weight - it.items[last].weight + it.items[next].weight,
		members: replace,
	})
}

// build materializes the variant for one subset: clone the base, drop the
// subset's SELECT items, and validate.
func (it *VariantIterator) build(st subsetState) (*Rewriting, bool) {
	drop := make(map[int]bool, len(st.members))
	for _, m := range st.members {
		drop[it.items[m].selIdx] = true
	}
	variant := it.base.Clone()
	var keep []esql.SelectItem
	for i, s := range variant.View.Select {
		if drop[i] {
			variant.DroppedAttrs = append(variant.DroppedAttrs, s.Attr.String())
			continue
		}
		keep = append(keep, s)
	}
	variant.View.Select = keep
	variant.Note = it.base.Note + fmtNote(" + drop %d dispensable attrs", len(drop))
	if err := variant.View.Validate(); err != nil {
		return nil, false
	}
	return variant, true
}
