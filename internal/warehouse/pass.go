package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/space"
	"repro/internal/synchronize"
)

// PassChange is one capability change of a synchronization pass with the
// live views it affects (synchronize.Affected), in registration order.
type PassChange struct {
	Change   space.Change
	Affected []*View
}

// PassResult reports one synchronization pass.
type PassResult struct {
	// Steps holds one entry per landed change, in pass order: the outcomes
	// of exactly the views that change affected, in the order given.
	Steps [][]SyncResult
	// Searches counts the rewriting searches run, one per distinct (view
	// signature, change); SearchesShared the affected views that reused a
	// structurally identical view's search instead.
	Searches, SearchesShared int
}

// SyncPass is the synchronization pass — the one place a capability change
// reaches the information space. Legal rewritings of every affected view are
// generated and QC-ranked against the pre-pass state, the changes land in
// order, each affected view adopts its best rewriting or deceases, and one
// Version publishes the outcome.
//
// The changes of one pass must be independent: none may write a relation
// another's search or adoption reads, so no view is affected twice
// (evolve.Session groups changes under exactly this condition; ApplyChange
// passes one). Every search therefore ranks against one TakeSnapshot of the
// pre-pass MKB — whose PC constraints on a deleted component are what the
// quality estimator needs, and which the MKB Evolver prunes once the change
// lands — and every adoption materializes from the post-pass space.
// Searches are deduplicated per change by view signature (which excludes the
// view name, so template-stamped twins share one), and so is the
// materialization of a search's best rewriting (adopt); searches and
// adoptions fan out over the configured Workers pool, each worker writing
// only its own search or view.
//
// Commit point: ctx is observed throughout the searches and before each
// landing. A cancellation, or a change the space rejects
// (*space.ChangeError), stops the landings; if nothing landed the warehouse
// is untouched and nothing is published. The landed prefix is committed: its
// views adopt or decease regardless of ctx (postCommit), and Steps covers
// exactly that prefix. A view whose adoption fails deceases — its old
// definition may name relations the space no longer has — while the others
// still adopt; the error joins such failures with whatever stopped the
// landings.
func (w *Warehouse) SyncPass(ctx context.Context, changes []PassChange) (PassResult, error) {
	// unit is one (change, affected view) pair drawing on a search.
	type unit struct {
		change int
		v      *View
		search *search
		res    SyncResult
		err    error
	}
	var res PassResult
	var units []*unit
	var searches []*search
	for i, pc := range changes {
		// The memo is per change: a ranking is valid only against the
		// pre-pass state and the one change it was searched under.
		memo := map[string]*search{}
		for _, v := range pc.Affected {
			sig := v.Def.Signature()
			s := memo[sig]
			if s == nil {
				s = &search{v: v, name: v.Def.Name, c: pc.Change}
				memo[sig] = s
				searches = append(searches, s)
			}
			units = append(units, &unit{change: i, v: v, search: s})
		}
	}
	res.Searches, res.SearchesShared = len(searches), len(units)-len(searches)

	var snap *Snapshot
	if len(searches) > 0 {
		snap = w.TakeSnapshot()
		err := conc.ForEachCtx(ctx, len(searches), w.cfg.Workers, func(i int) error {
			s := searches[i]
			ranking, err := w.rankFor(ctx, s.v, s.c, snap)
			s.ranking = ranking
			return err
		})
		if err != nil {
			return res, err
		}
	}

	// Each change lands exactly once, in order. The ctx check before a
	// landing is the last chance to abort it cleanly: a cancel that fired
	// inside the final ranking is caught here, not swallowed.
	landed := 0
	var stopped error
	for _, pc := range changes {
		if stopped = ctx.Err(); stopped != nil {
			break
		}
		if stopped = w.Space.ApplyChange(pc.Change); stopped != nil {
			break
		}
		w.cfg.Observer.OnChange(pc.Change)
		landed++
	}
	if landed == 0 {
		return res, stopped
	}

	// Past the commit point: adopt or decease for the landed prefix. Units
	// of changes that never landed are dropped — their rankings were
	// computed but must not be adopted.
	hit := units[:sort.Search(len(units), func(i int) bool { return units[i].change >= landed })]
	if len(hit) > 0 {
		pctx := postCommit(ctx)
		// Workers report failures through their unit, never through
		// ForEach, which would stop claiming the remaining views.
		_ = conc.ForEach(len(hit), w.cfg.Workers, func(i int) error {
			u := hit[i]
			c := changes[u.change].Change
			u.res = SyncResult{ViewName: u.v.Def.Name, Ranking: u.search.ranking}
			why := "no legal rewriting"
			if u.res.Ranking != nil {
				best := u.res.Ranking.Best()
				err := w.adopt(pctx, u.v, u.search)
				if err == nil {
					// Chosen is reported only once the adoption took effect.
					u.res.Chosen = best
					w.cfg.Observer.OnAdopt(u.res.ViewName, best)
					return nil
				}
				u.err = fmt.Errorf("warehouse: view %q: adopting after %s: %w", u.res.ViewName, c, err)
				why = fmt.Sprintf("adoption failed (%v)", err)
			}
			w.decease(u.v, c, why)
			u.res.Deceased = true
			return nil
		})
		w.pruneDeceased()
	}
	// The pass becomes visible to lock-free readers only here, all at once.
	w.publish()

	res.Steps = make([][]SyncResult, landed)
	var errs []error
	for _, u := range hit {
		res.Steps[u.change] = append(res.Steps[u.change], u.res)
		errs = append(errs, u.err)
	}
	return res, errors.Join(append(errs, stopped)...)
}

// decease marks v deceased by change c. It writes only v's own fields, so
// concurrent workers may decease distinct views; pruneDeceased then drops
// them from the registration order.
func (w *Warehouse) decease(v *View, c space.Change, why string) {
	v.Deceased = true
	v.History = append(v.History, fmt.Sprintf("%s: %s — view deceased", c, why))
	w.cfg.Observer.OnDecease(v.Def.Name, c)
}

// pruneDeceased removes deceased views from the registration order so
// ViewNames and LiveViews stay consistent, and moves the view epoch: the
// pass that called it changed a definition or the live set. The view
// objects stay reachable through View for post-mortem inspection.
func (w *Warehouse) pruneDeceased() {
	w.regMu.Lock()
	keep := w.order[:0]
	for _, name := range w.order {
		if v := w.views[name]; v != nil && !v.Deceased {
			keep = append(keep, name)
		}
	}
	w.order = keep
	w.regMu.Unlock()
	w.viewEpoch.Add(1)
}

// search is one deduplicated rewriting search of a pass, run on behalf of
// view v, and the adoption of its best rewriting: materialized at most once,
// under v's name, however many twins adopt it.
type search struct {
	v       *View
	name    string // v's name, read before the pass's workers start
	c       space.Change
	ranking *core.Ranking // nil: no legal rewriting

	once sync.Once
	def  *esql.ViewDef      // the qualified best rewriting, named name
	ext  *relation.Relation // its extent over the post-pass space
	note string             // the History line every adopter appends
	err  error
}

// materialize qualifies rw under name and evaluates it over the current
// (post-pass) space.
func (w *Warehouse) materialize(ctx context.Context, rw *synchronize.Rewriting, name string) (*esql.ViewDef, *relation.Relation, error) {
	def := rw.View.Clone()
	def.Name = name
	q, err := exec.Qualify(def, w.Space)
	if err != nil {
		return nil, nil, err
	}
	ext, err := exec.Evaluate(ctx, q, w.Space)
	return q, ext, err
}

// adopt installs the search's best rewriting as v's definition. The first
// adopter materializes it; a twin installs renamed copies of the definition
// and, sharing its storage (every later write is copy-on-write), the extent,
// plus its own maintainer. A failure is retried under v's name so each view
// reports its own error. It writes only v's own fields, once nothing can
// fail any more; callers pass a postCommit context.
func (w *Warehouse) adopt(ctx context.Context, v *View, s *search) error {
	start := time.Now()
	defer func() { w.cfg.Observer.OnPhase(PhaseAdopt, time.Since(start)) }()
	rw := s.ranking.Best().Rewriting
	s.once.Do(func() {
		s.def, s.ext, s.err = w.materialize(ctx, rw, s.name)
		s.note = fmt.Sprintf("%s: adopted rewriting (%s)", s.c, rw.Note)
	})
	def, ext, err := s.def, s.ext, s.err
	if err != nil && v != s.v {
		def, ext, err = w.materialize(ctx, rw, v.Def.Name)
	}
	if err != nil {
		return err
	}
	if def.Name != v.Def.Name {
		def = def.Clone()
		def.Name = v.Def.Name
		ext = ext.WithName(v.Def.Name)
	}
	v.History = append(v.History, s.note)
	v.Def = def
	v.Extent = ext
	v.maintainer = maintain.New(w.Space, def, ext)
	return nil
}
