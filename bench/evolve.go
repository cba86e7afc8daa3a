package main

import (
	"context"
	"fmt"
	"math"
	"time"

	eve "repro"
	"repro/internal/scenario"
)

// evolveParams is the Exp1-at-scale churn history of BenchmarkEvolveChurn: 20
// twin views over 12 droppable attributes with 2 donors each, and a 240-change
// stream of which about one in seven touches a view.
func evolveParams(seed int64) scenario.ChurnParams {
	return scenario.ChurnParams{
		Families: 2, TwinsPerFamily: 10, Width: 12, Donors: 2, Spares: 6, SpareAttrs: 5,
		Changes: 240, Seed: seed,
		FamilyDeleteRatio: 0.10, FamilyRenameRatio: 0.06, DonorRatio: 0.08,
	}
}

const (
	evolveRows = 100
	// evolveHistories is how many histories one seed generates. One history
	// has about 35 changes that hit a view, and what they cost depends on which
	// attributes the generator happened to delete; over a single history the
	// median hit latency moved by 13% between seeds.
	evolveHistories = 8
)

func evolveOptions() []eve.Option {
	return []eve.Option{eve.WithTopK(5), eve.WithDropVariants(true), eve.WithMaxDropVariants(256)}
}

// outcome is what a history replay adopted: the quality guard. A search that
// got faster by adopting other rewritings moves it, and that is a correctness
// regression, not a speed-up.
type outcome struct {
	qcMilli    int64 // Σ QC of adopted rewritings × 1000
	adopted    int
	deceased   int
	survivors  int // live views at history end
	candidates int // Σ len(Ranking.Candidates) over affected views
	ranked     int
}

func (o *outcome) add(step eve.StepResult) {
	for _, r := range step.Results {
		if r.Deceased {
			o.deceased++
		}
		if r.Ranking != nil {
			o.ranked++
			o.candidates += len(r.Ranking.Candidates)
		}
		if r.Chosen != nil {
			o.adopted++
			o.qcMilli += int64(math.Round(r.Chosen.QC * 1000))
		}
	}
}

func (o *outcome) sum(p outcome) {
	o.qcMilli += p.qcMilli
	o.adopted += p.adopted
	o.deceased += p.deceased
	o.survivors += p.survivors
	o.candidates += p.candidates
	o.ranked += p.ranked
}

// evolveChurn feeds the seed's histories, one after the other and round again,
// one change per EvolveBatch — eved's own feeding model — each history on a
// freshly built system.
type evolveChurn struct {
	hists   []*scenario.ChurnHistory
	withObs bool

	sys           *sut
	rebuilt       []time.Duration
	cur           outcome
	closed        int       // replays closed so far
	want          []outcome // per history, from its first replay
	syncs, adopts uint64    // observer counts over the prefix
}

func newEvolveChurn(e env) (workload, error) {
	w := &evolveChurn{}
	for k := int64(0); k < evolveHistories; k++ {
		h, err := scenario.Churn(evolveParams(e.seed*evolveHistories + k))
		if err != nil {
			return nil, err
		}
		w.hists = append(w.hists, h)
	}
	return w, nil
}

func (w *evolveChurn) build(ctx context.Context, h *scenario.ChurnHistory) (*sut, error) {
	sp, err := h.BuildSpace()
	if err != nil {
		return nil, err
	}
	if err := scenario.Populate(sp, evolveRows); err != nil {
		return nil, err
	}
	return newSUT(ctx, sp, h.Views(), w.withObs, evolveOptions()...)
}

func (w *evolveChurn) start(ctx context.Context, traced bool) (err error) {
	w.withObs = traced
	w.sys, err = w.build(ctx, w.hists[0])
	return err
}

func (w *evolveChurn) stop()                       { w.sys = nil }
func (w *evolveChurn) ready(context.Context) error { return nil }
func (w *evolveChurn) primary() opKind             { return opChange }
func (w *evolveChurn) rebuilds() []time.Duration   { return w.rebuilt }

// prefix is every history once, and so is a period: histories differ in how
// many of their changes hit a view, so only whole rounds hold the same mix.
func (w *evolveChurn) prefix() int { return evolveHistories * len(w.hists[0].Changes) }
func (w *evolveChurn) period() int { return w.prefix() }

// drift is 0 by construction: capability changes move no rows, and every
// replay starts from a fresh space.
func (w *evolveChurn) drift(context.Context) (int, error) { return 0, nil }

// next returns change i of the endless replay. At a history boundary it first
// closes the finished replay — its outcome must equal that history's first —
// and builds the next history's system, outside any operation's time.
func (w *evolveChurn) next(ctx context.Context, i int) (eve.Change, error) {
	n := len(w.hists[0].Changes)
	replay, pos := i/n, i%n
	if pos == 0 && i > 0 {
		if err := w.closeReplay(replay - 1); err != nil {
			return eve.Change{}, err
		}
		start := time.Now()
		sys, err := w.build(ctx, w.hists[replay%evolveHistories])
		if err != nil {
			return eve.Change{}, err
		}
		w.rebuilt = append(w.rebuilt, time.Since(start))
		w.sys = sys
	}
	return w.hists[replay%evolveHistories].Changes[pos], nil
}

// closeReplay ends replay number replay: a history's first replay sets the
// outcome every later one must repeat.
func (w *evolveChurn) closeReplay(replay int) error {
	if replay < w.closed {
		return nil // counters closed the prefix's last replay already
	}
	w.closed++
	w.cur.survivors = len(w.sys.sys.Snapshot().Views())
	cur := w.cur
	w.cur = outcome{}
	if replay < evolveHistories {
		w.want = append(w.want, cur)
		if obs := w.sys.obs; obs != nil {
			w.syncs += obs.Syncs()
			w.adopts += obs.Adopts()
		}
	} else if want := w.want[replay%evolveHistories]; cur != want {
		return fmt.Errorf("history %d: replay adopted %+v, its first replay %+v", replay%evolveHistories, cur, want)
	}
	return nil
}

func (w *evolveChurn) run(ctx context.Context, i int, _ bool) (opKind, time.Duration, error) {
	c, err := w.next(ctx, i)
	if err != nil {
		return opSkip, 0, err
	}
	start := time.Now()
	steps, err := w.sys.sys.EvolveBatch(ctx, []eve.Change{c})
	lat := time.Since(start)
	if err != nil {
		return opSkip, lat, err
	}
	return w.account(steps), lat, nil
}

// account folds the steps of one change into the running outcome and says
// whether the change hit a view.
func (w *evolveChurn) account(steps []eve.StepResult) opKind {
	kind := opSkip
	for _, st := range steps {
		w.cur.add(st)
		if len(st.Results) > 0 {
			kind = opChange
		}
	}
	return kind
}

func (w *evolveChurn) traced(ctx context.Context, tr *tracer, i int, _ bool) error {
	c, err := w.next(ctx, i)
	if err != nil {
		return err
	}
	obs := w.sys.obs
	var syncN, adoptN uint64
	var syncT, adoptT time.Duration
	if obs != nil {
		syncN, syncT = obs.PhaseCount(eve.PhaseSync), obs.PhaseTotal(eve.PhaseSync)
		adoptN, adoptT = obs.PhaseCount(eve.PhaseAdopt), obs.PhaseTotal(eve.PhaseAdopt)
	}
	root := tr.begin(i, 0, "op.change")
	steps, err := w.sys.sys.EvolveBatch(ctx, []eve.Change{c})
	tr.end(root)
	if err != nil {
		return err
	}
	if w.account(steps) == opChange {
		tr.rename(root, "op.change.hit")
	} else {
		tr.rename(root, "op.change.skip")
	}
	if obs != nil {
		if n := obs.PhaseCount(eve.PhaseSync) - syncN; n > 0 {
			tr.add(i, root, "warehouse.sync", obs.PhaseTotal(eve.PhaseSync)-syncT, int64(n))
		}
		if n := obs.PhaseCount(eve.PhaseAdopt) - adoptN; n > 0 {
			tr.add(i, root, "warehouse.adopt", obs.PhaseTotal(eve.PhaseAdopt)-adoptT, int64(n))
		}
	}
	return nil
}

// counters runs right after the prefix, when the last history's replay is
// complete but not yet closed.
func (w *evolveChurn) counters(m map[string]float64) {
	w.closeReplay(evolveHistories - 1) //nolint:errcheck // a first replay has nothing to differ from
	var o outcome
	for _, h := range w.want {
		o.sum(h)
	}
	m["core.qc_sum_milli"] = float64(o.qcMilli)
	m["evolve.survivors"] = float64(o.survivors)
	m["evolve.deceased_per_history"] = float64(o.deceased) / evolveHistories
	if o.ranked > 0 {
		m["core.candidates_per_search"] = float64(o.candidates) / float64(o.ranked)
	}
	m["warehouse.syncs_per_history"] = float64(w.syncs) / evolveHistories
	m["warehouse.adopts_per_history"] = float64(w.adopts) / evolveHistories
}

// probes replays each whole history as ONE EvolveBatch on a fresh system —
// coalescing and search sharing on — for the session's amortization counts,
// times snapshot and publish directly, and derives what the observer phases
// leave unexplained of a hit change.
func (w *evolveChurn) probes(ctx context.Context, tr *tracer, un *samples, m map[string]float64) error {
	var st struct{ changes, skipped, searches, shared, groups int }
	var last *sut
	for k, h := range w.hists {
		sys, err := w.build(ctx, h)
		if err != nil {
			return err
		}
		id := tr.begin(-1, 0, "evolve.batch_replay")
		steps, err := sys.sys.EvolveBatch(ctx, h.Changes)
		tr.end(id)
		if err != nil {
			return err
		}
		var batch outcome
		for _, step := range steps {
			batch.add(step)
		}
		batch.survivors = len(sys.sys.Snapshot().Views())
		if batch != w.want[k] {
			return fmt.Errorf("history %d: one-batch replay adopted %+v, per-change replay %+v", k, batch, w.want[k])
		}
		s := sys.sys.Session().Stats()
		st.changes += s.Changes
		st.skipped += s.Skipped
		st.searches += s.Searches
		st.shared += s.SearchesShared
		st.groups += s.Groups
		last = sys
	}
	m["evolve.batch_replay_ms"] = meanUs(tr.durations("evolve.batch_replay")) / 1000
	m["evolve.skipped_share"] = float64(st.skipped) / float64(st.changes)
	m["evolve.searches_per_history"] = float64(st.searches) / evolveHistories
	m["evolve.shared_per_history"] = float64(st.shared) / evolveHistories
	m["evolve.groups_per_history"] = float64(st.groups) / evolveHistories

	last.probePublish(tr, probePublishes)

	hits := float64(len(tr.durations("op.change.hit")))
	stages := micros(sum(tr.durations("warehouse.sync")))/hits + micros(sum(tr.durations("warehouse.adopt")))/hits +
		meanUs(tr.durations("warehouse.snapshot")) + meanUs(tr.durations("warehouse.publish"))
	hitMean := meanUs(un.of(opChange))
	m["evolve.other_us"] = hitMean - stages
	m["trace.stage_sum_share"] = stages / hitMean
	return nil
}
