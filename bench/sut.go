package main

import (
	"context"
	"fmt"
	"time"

	eve "repro"
	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/space"
)

// sut is an in-process system: the system under test of the in-process
// workloads, and the replica the http workloads replay their requests on to
// price the layers behind eved's handler.
type sut struct {
	sys *eve.System
	// obs is installed on traced runs only; its phase totals, read before and
	// after a public call, are that call's per-view maintenance, search and
	// adoption time.
	obs *eve.MetricsObserver
}

// newSUT assembles a system over the space and registers the views.
func newSUT(ctx context.Context, sp *eve.Space, views []*eve.ViewDef, traced bool, opts ...eve.Option) (*sut, error) {
	s := &sut{}
	opts = append([]eve.Option{eve.WithSpace(sp)}, opts...)
	if traced {
		s.obs = &eve.MetricsObserver{}
		opts = append(opts, eve.WithObserver(s.obs))
	}
	sys, err := eve.New(opts...)
	if err != nil {
		return nil, err
	}
	for _, def := range views {
		if _, err := sys.RegisterView(ctx, def); err != nil {
			return nil, fmt.Errorf("register %s: %w", def.Name, err)
		}
	}
	s.sys = sys
	return s, nil
}

// answer is what a read returned, reduced to what the harness compares.
type answer struct {
	sum  uint64
	rows int
}

// query is the public read path, timed until every row is consumed.
func (s *sut) query(ctx context.Context, sql string) (answer, time.Duration, error) {
	start := time.Now()
	res, err := s.sys.Query(ctx, sql)
	if err != nil {
		return answer{}, time.Since(start), err
	}
	sum := exec.RowChecksum(res)
	return answer{sum, res.Card()}, time.Since(start), nil
}

// readCounts accumulates the counts of the reads that went through
// tracedQuery.
type readCounts struct {
	ops, rows, views int
	kinds            [3]int // indexed by eve.RouteKind
}

func (rc readCounts) into(m map[string]float64) {
	if n := float64(rc.ops); n > 0 {
		m["warehouse.views_per_route"] = float64(rc.views) / n
		m["plan.rows_out_per_op"] = float64(rc.rows) / n
		m["route.share_base"] = float64(rc.kinds[eve.RouteBase]) / n
		m["route.share_extent"] = float64(rc.kinds[eve.RouteViewExtent]) / n
		m["route.share_residual"] = float64(rc.kinds[eve.RouteViewResidual]) / n
	}
}

// tracedQuery performs the read as its layer calls — parse, route, execute,
// checksum — under one root span, then probes the route cache with a second
// RouteDef for the same definition on the same Version.
func (s *sut) tracedQuery(ctx context.Context, tr *tracer, op int, root string, sql string, rc *readCounts) (answer, error) {
	rootID := tr.begin(op, 0, root)
	id := tr.begin(op, rootID, "esql.parse")
	q, err := esql.ParseQuery(sql)
	tr.end(id)
	if err != nil {
		return answer{}, err
	}
	v := s.sys.Snapshot()
	id = tr.begin(op, rootID, "warehouse.route_first")
	r, err := v.RouteDef(q)
	tr.end(id)
	if err != nil {
		return answer{}, err
	}
	id = tr.begin(op, rootID, "plan.execute")
	res, err := r.Execute(ctx)
	tr.end(id)
	if err != nil {
		return answer{}, err
	}
	tr.count(id, "rows_out", int64(res.Card()))
	id = tr.begin(op, rootID, "exec.checksum")
	a := answer{exec.RowChecksum(res), res.Card()}
	tr.end(id)
	tr.end(rootID)
	tr.rename(rootID, root+"."+r.Kind.String())

	id = tr.begin(op, 0, "warehouse.route_repeat")
	_, err = v.RouteDef(q)
	tr.end(id)

	rc.ops++
	rc.rows += a.rows
	rc.views += len(v.Views())
	rc.kinds[r.Kind]++
	return a, err
}

// writeCounts accumulates the measured maintenance cost of the batches that
// went through tracedUpdate.
type writeCounts struct {
	batches, views int
	metrics        eve.Metrics
}

func (wc writeCounts) into(m map[string]float64) {
	if n := float64(wc.batches); n > 0 {
		m["maintain.views_per_batch"] = float64(wc.views) / n
		m["maintain.msgs_per_batch"] = float64(wc.metrics.Messages) / n
		m["maintain.bytes_per_batch"] = float64(wc.metrics.Bytes) / n
		m["maintain.io_per_batch"] = float64(wc.metrics.IO) / n
	}
}

// tracedUpdate applies the batch through the public call under one root span
// and attaches the observer's per-view maintenance time for that interval.
func (s *sut) tracedUpdate(ctx context.Context, tr *tracer, op int, root string, batch []eve.Update, wc *writeCounts) (eve.Metrics, error) {
	var n0 uint64
	var t0 time.Duration
	if s.obs != nil {
		n0, t0 = s.obs.PhaseCount(eve.PhaseMaintain), s.obs.PhaseTotal(eve.PhaseMaintain)
	}
	rootID := tr.begin(op, 0, root)
	m, err := s.sys.ApplyUpdates(ctx, batch)
	tr.end(rootID)
	if err != nil {
		return m, err
	}
	wc.batches++
	wc.metrics.Add(m)
	if s.obs != nil {
		n := s.obs.PhaseCount(eve.PhaseMaintain) - n0
		wc.views += int(n)
		tr.add(op, rootID, "maintain.view", s.obs.PhaseTotal(eve.PhaseMaintain)-t0, int64(n))
	}
	return m, nil
}

// probeWrite times the two landing steps of ApplyUpdates directly: Collapse
// and ApplyBase of the same batches, on a clone of the live space taken
// outside the spans. Batches come in insert/delete pairs, so the clone ends
// where it started.
func (s *sut) probeWrite(tr *tracer, pairs int, batch func(i int) []eve.Update) error {
	sp := s.sys.Space.Clone()
	for i := 0; i < 2*pairs; i++ {
		b := batch(i)
		id := tr.begin(-1, 0, "maintain.collapse")
		deltas, _, err := maintain.Collapse(sp, b)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(-1, 0, "maintain.land")
		_, err = maintain.ApplyBase(sp, deltas)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// probePublish times TakeSnapshot and PublishVersion(nil) directly on the live
// system. Publishing drops the Version's caches, so it runs after the traced
// operations, not between them.
func (s *sut) probePublish(tr *tracer, n int) {
	for i := 0; i < n; i++ {
		id := tr.begin(-1, 0, "warehouse.snapshot")
		snap := s.sys.TakeSnapshot()
		tr.end(id)
		id = tr.begin(-1, 0, "warehouse.publish")
		s.sys.PublishVersion(snap)
		tr.end(id)
	}
}

// baseOnly is the expected answer of a read: the query evaluated from base
// relations alone, with no view, route or cache involved.
func baseOnly(ctx context.Context, sql string, sp *space.Space) (answer, error) {
	q, err := esql.ParseQuery(sql)
	if err != nil {
		return answer{}, err
	}
	return baseOnlyDef(ctx, q, sp)
}

func baseOnlyDef(ctx context.Context, q *eve.ViewDef, sp *space.Space) (answer, error) {
	res, err := eve.Evaluate(ctx, q, sp)
	if err != nil {
		return answer{}, err
	}
	return answer{exec.RowChecksum(res), res.Card()}, nil
}

// checkExtents compares every live view's maintained extent with base-only
// evaluation of its definition over the shadow space.
func (s *sut) checkExtents(ctx context.Context, shadow *space.Space) error {
	v := s.sys.Snapshot()
	for _, vv := range v.Views() {
		want, err := baseOnlyDef(ctx, vv.Def, shadow)
		if err != nil {
			return err
		}
		if got := exec.RowChecksum(vv.Extent); got != want.sum || vv.Extent.Card() != want.rows {
			return fmt.Errorf("view %s: extent checksum %016x (%d rows), base-only %016x (%d rows)",
				vv.Name, got, vv.Extent.Card(), want.sum, want.rows)
		}
	}
	return nil
}

// cards returns the cardinality of every relation of the space.
func cards(sp *space.Space) map[string]int {
	out := make(map[string]int)
	for _, name := range sp.RelationNames() {
		out[name] = sp.Relation(name).Card()
	}
	return out
}

// driftRows is the total difference in cardinality between two states.
func driftRows(before, after map[string]int) int {
	d := 0
	for name, n := range before {
		if diff := after[name] - n; diff < 0 {
			d -= diff
		} else {
			d += diff
		}
	}
	for name, n := range after {
		if _, ok := before[name]; !ok {
			d += n
		}
	}
	return d
}
