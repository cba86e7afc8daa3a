package relation

import "sync/atomic"

// pageRows is the number of rows a page holds.
const pageRows = 32

// rowPage is one page of rows. Only the generation whose token is owner
// edits it in place; any other copies it first. A page built over a slice
// the relation does not own has no owner, so nobody writes it.
type rowPage struct {
	owner *pageOwner
	rows  []Tuple // the first min(pageRows, Card - page start) are live; pop leaves len alone
}

// pageOwner is one generation's write token, taken on its first write. A
// fork marks the parent's token forked (an atomic store, so forking a
// relation that readers are using is a read of it); the parent's next edit
// takes a fresh token, so every page it had is shared from then on.
type pageOwner struct {
	forked atomic.Bool
}

// pagesOf pages rows without copying them: the pages point into the slice
// and have no owner, so the first write to each copies it.
func pagesOf(rows []Tuple) []*rowPage {
	slab := make([]rowPage, (len(rows)+pageRows-1)/pageRows)
	pages := make([]*rowPage, len(slab))
	for p := range slab {
		lo := p * pageRows
		hi := min(lo+pageRows, len(rows))
		slab[p].rows = rows[lo:hi:hi]
		pages[p] = &slab[p]
	}
	return pages
}

// Row returns row i, 0 ≤ i < Card(), in storage order; callers must not
// mutate it.
func (r *Relation) Row(i int) Tuple {
	if r.born != nil {
		return r.Tuples()[i]
	}
	return r.pages[i/pageRows].rows[i%pageRows]
}

// Tuples returns the rows in storage order as one flat slice, built at most
// once per generation; callers must not mutate it. It is for oracles and
// small relations: the engine reads rows through Row, Columns and the
// indexes instead.
func (r *Relation) Tuples() []Tuple {
	c := r.cols
	if p := c.flat.Load(); p != nil {
		return *p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.flat.Load(); p != nil {
		return *p
	}
	var rows []Tuple
	if r.born != nil {
		rows = r.born.Tuples()
	} else {
		rows = make([]Tuple, 0, r.n)
		for _, ch := range r.chunks() {
			rows = append(rows, ch...)
		}
	}
	c.flat.Store(&rows)
	return rows
}

// chunks returns a paged relation's rows in storage order, one slice per
// page, without building its flat image.
func (r *Relation) chunks() [][]Tuple {
	out := make([][]Tuple, len(r.pages))
	for p, pg := range r.pages {
		out[p] = pg.rows[:min(pageRows, r.n-p*pageRows)]
	}
	return out
}

// forkPages returns a copy of the page table for a generation about to
// diverge from r. Both sides lose in-place rights to every page in it.
func (r *Relation) forkPages() []*rowPage {
	if r.born != nil {
		return pagesOf(r.Tuples())
	}
	if r.own != nil {
		r.own.forked.Store(true)
	}
	return append([]*rowPage(nil), r.pages...)
}

// owner returns this generation's write token, taking one on the first
// write and a fresh one after a fork.
func (r *Relation) owner() *pageOwner {
	if r.own == nil || r.own.forked.Load() {
		r.own = &pageOwner{}
	}
	return r.own
}

// page returns page p for writing, copying it first unless this generation
// owns it.
func (r *Relation) page(p int) *rowPage {
	pg := r.pages[p]
	if own := r.owner(); pg.owner != own {
		cp := &rowPage{owner: own, rows: make([]Tuple, min(pageRows, r.n-p*pageRows), pageRows)}
		copy(cp.rows, pg.rows)
		r.pages[p], pg = cp, cp
	}
	return pg
}

// push appends a row; only the tail page is checked or copied.
func (r *Relation) push(t Tuple) {
	at := r.n % pageRows
	if at == 0 {
		r.pages = append(r.pages, &rowPage{owner: r.owner(), rows: make([]Tuple, 0, pageRows)})
	}
	pg := r.page(len(r.pages) - 1)
	pg.rows = append(pg.rows[:at], t)
	r.n++
}

// pop drops the last row, and the tail page with it when that empties it;
// no page is written.
func (r *Relation) pop() {
	r.n--
	if r.n%pageRows == 0 {
		r.pages = r.pages[:len(r.pages)-1]
	}
}

// edited drops what an in-place edit makes stale: the columnar and flat
// images (the edit refiles the indexes). A bulk load has neither, so it
// pays a load each, not a store.
func (r *Relation) edited() {
	if r.cols.batch.Load() != nil {
		r.cols.batch.Store(nil)
	}
	if r.cols.flat.Load() != nil {
		r.cols.flat.Store(nil)
	}
}
