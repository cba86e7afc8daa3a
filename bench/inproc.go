package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	eve "repro"
	"repro/internal/scenario"
)

// inproc is a workload that drives an in-process system through the public
// API: reads when sql is set, update batches when batch is set.
type inproc struct {
	build func() (*eve.Space, []*eve.ViewDef, error) // generated space, populated, and its views
	sql   func(i int) string
	batch func(i int) []eve.Update
	nPre  int // operations in the verification prefix
	cycle int // operations after which the mix of operations, and the data, repeat
	// republish, when positive, publishes a fresh Version every that many
	// reads, outside any operation's time. route-wide needs it: each of its
	// reads is a new signature, nothing bounds the per-Version route cache, and
	// without this the heap — and with it the collector's share of every read —
	// grows for as long as the window lasts.
	republish int
	flip      uint64 // env.flip

	sys    *sut
	shadow *sut // same generated space, no views, fed the same updates
	before map[string]int
	rc     readCounts
	wc     writeCounts
}

func newInproc(ctx context.Context, e env, build func() (*eve.Space, []*eve.ViewDef, error), nPre int) (*inproc, error) {
	sp, _, err := build()
	if err != nil {
		return nil, err
	}
	shadow, err := newSUT(ctx, sp, nil, false)
	if err != nil {
		return nil, err
	}
	return &inproc{build: build, nPre: nPre, cycle: 1, flip: e.flip, shadow: shadow}, nil
}

func (w *inproc) start(ctx context.Context, traced bool) error {
	sp, views, err := w.build()
	if err != nil {
		return err
	}
	w.sys, err = newSUT(ctx, sp, views, traced)
	return err
}

func (w *inproc) stop() { w.sys = nil }

func (w *inproc) ready(context.Context) error {
	w.before = cards(w.sys.sys.Space)
	return nil
}

func (w *inproc) drift(context.Context) (int, error) {
	return driftRows(w.before, cards(w.sys.sys.Space)), nil
}

func (w *inproc) prefix() int { return w.nPre }

func (w *inproc) period() int { return w.cycle }

func (w *inproc) primary() opKind {
	if w.batch != nil {
		return opWrite
	}
	return opRead
}

func (w *inproc) run(ctx context.Context, i int, check bool) (opKind, time.Duration, error) {
	if w.batch != nil {
		b := w.batch(i)
		start := time.Now()
		m, err := w.sys.sys.ApplyUpdates(ctx, b)
		lat := time.Since(start)
		if err != nil {
			return opWrite, lat, err
		}
		return opWrite, lat, w.checkWrite(ctx, b, m, check)
	}
	sql := w.read(i)
	got, lat, err := w.sys.query(ctx, sql)
	if err != nil || !check {
		return opRead, lat, err
	}
	return opRead, lat, w.checkRead(ctx, sql, got)
}

func (w *inproc) traced(ctx context.Context, tr *tracer, i int, check bool) error {
	if w.batch != nil {
		b := w.batch(i)
		m, err := w.sys.tracedUpdate(ctx, tr, i, "op.write", b, &w.wc)
		if err != nil {
			return err
		}
		return w.checkWrite(ctx, b, m, check)
	}
	sql := w.read(i)
	got, err := w.sys.tracedQuery(ctx, tr, i, "op.read", sql, &w.rc)
	if err != nil || !check {
		return err
	}
	return w.checkRead(ctx, sql, got)
}

// read returns the SQL of read i, republishing first when it is due.
func (w *inproc) read(i int) string {
	if w.republish > 0 && i%w.republish == 0 {
		w.sys.sys.PublishVersion(nil)
	}
	return w.sql(i)
}

func (w *inproc) checkRead(ctx context.Context, sql string, got answer) error {
	want, err := baseOnly(ctx, sql, w.shadow.sys.Space)
	if err != nil {
		return err
	}
	want.sum ^= w.flip
	if got != want {
		return fmt.Errorf("%s: got checksum %016x (%d rows), base-only %016x (%d rows)", sql, got.sum, got.rows, want.sum, want.rows)
	}
	if got.rows == 0 {
		return fmt.Errorf("%s: empty result", sql)
	}
	return nil
}

// checkWrite feeds the shadow the same batch (always: it must stay in step)
// and, when asked, compares every maintained extent with base-only evaluation.
func (w *inproc) checkWrite(ctx context.Context, b []eve.Update, m eve.Metrics, extents bool) error {
	if _, err := w.shadow.sys.ApplyUpdates(ctx, b); err != nil {
		return fmt.Errorf("shadow: %w", err)
	}
	if m.Messages < len(b) { // one notification per update, plus the views' source queries
		return fmt.Errorf("batch of %d updates charged %d messages", len(b), m.Messages)
	}
	if !extents {
		return nil
	}
	return w.sys.checkExtents(ctx, w.shadow.sys.Space)
}

func (w *inproc) counters(m map[string]float64) {
	w.rc.into(m)
	w.wc.into(m)
}

// probePairs and probePublishes size the direct layer probes.
const (
	probePairs     = 24
	probePublishes = 50
)

func (w *inproc) probes(_ context.Context, tr *tracer, un *samples, m map[string]float64) error {
	if w.batch != nil {
		if err := w.sys.probeWrite(tr, probePairs, w.batch); err != nil {
			return err
		}
	}
	w.sys.probePublish(tr, probePublishes)

	// Stage sum: the directly timed stages of one operation against the
	// untraced mean latency of the same operation on the same system.
	var stages float64
	if w.batch != nil {
		views := tr.durations("maintain.view")
		stages = meanUs(tr.durations("maintain.collapse")) + meanUs(tr.durations("maintain.land")) +
			meanUs(views) + meanUs(tr.durations("warehouse.publish"))
	} else {
		for _, name := range []string{"esql.parse", "warehouse.route_first", "plan.execute", "exec.checksum"} {
			stages += meanUs(tr.durations(name))
		}
	}
	m["trace.stage_sum_share"] = stages / meanUs(un.of(w.primary()))
	return nil
}

// --- route-wide ---

// routeWideParams is a wide warehouse of tiny extents: 48 family relations
// with two twin views each, so a read is decided by view matching, not by
// execution.
func routeWideParams(seed int64) scenario.ChurnParams {
	return scenario.ChurnParams{
		Families: 48, TwinsPerFamily: 2, Width: 6, Donors: 2, Spares: 4, SpareAttrs: 4,
		Changes: 1, Seed: seed,
	}
}

const routeWideRows = 30

func churnSpace(p scenario.ChurnParams, rows int) (*eve.Space, []*eve.ViewDef, error) {
	h, err := scenario.Churn(p)
	if err != nil {
		return nil, nil, err
	}
	sp, err := h.BuildSpace()
	if err != nil {
		return nil, nil, err
	}
	if err := scenario.Populate(sp, rows); err != nil {
		return nil, nil, err
	}
	return sp, h.Views(), nil
}

func newRouteWide(ctx context.Context, e env) (workload, error) {
	p := routeWideParams(e.seed)
	w, err := newInproc(ctx, e, func() (*eve.Space, []*eve.ViewDef, error) { return churnSpace(p, routeWideRows) }, 4*p.Families)
	if err != nil {
		return nil, err
	}
	w.republish = 256
	rng := rand.New(rand.NewSource(e.seed))
	families := rng.Perm(p.Families)
	c0, d0 := rng.Intn(200), rng.Intn(1_000_000)
	// Populate fills A1 with 7*row+1, so "A1 > c" with c < 200 keeps at least
	// one of 30 rows; d grows with i, so no signature ever repeats.
	w.sql = func(i int) string {
		f := families[i%len(families)] + 1
		return fmt.Sprintf("SELECT W%d.A1, W%d.A2 FROM W%d WHERE W%d.A1 > %d AND W%d.A2 < %d",
			f, f, f, f, (c0+i)%200, f, 1_000_000+d0+i)
	}
	return w, nil
}

// --- join-scan and update-maintain ---

const joinRows = 10_000

// joinSpace builds R1..R4(K, Ai) with n rows each, joined 1:1 on K — the
// BenchmarkQueryRouted shape — and the given views over them.
func joinSpace(n int, views ...string) (*eve.Space, []*eve.ViewDef, error) {
	sp := eve.NewSpace()
	if _, err := sp.AddSource("IS1"); err != nil {
		return nil, nil, err
	}
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("R%d", i)
		r := eve.NewRelation(name, eve.NewSchema(
			eve.Attribute{Name: "K", Type: eve.TypeInt, Size: 20},
			eve.Attribute{Name: fmt.Sprintf("A%d", i), Type: eve.TypeInt, Size: 20},
		))
		for j := 0; j < n; j++ {
			if err := r.Insert(eve.Tuple{eve.Int(int64(j)), eve.Int(int64(j * i))}); err != nil {
				return nil, nil, err
			}
		}
		if err := sp.AddRelation("IS1", r); err != nil {
			return nil, nil, err
		}
		sp.MKB().SetCard(name, n)
	}
	var defs []*eve.ViewDef
	for _, src := range views {
		def, err := eve.ParseView(src)
		if err != nil {
			return nil, nil, err
		}
		defs = append(defs, def)
	}
	return sp, defs, nil
}

const (
	viewV4 = `CREATE VIEW V4 (VE = ~) AS SELECT R1.K, R1.A1, R2.A2, R3.A3, R4.A4
		FROM R1, R2, R3, R4 WHERE R1.K = R2.K AND R2.K = R3.K AND R3.K = R4.K`
	viewV12 = `CREATE VIEW V12 (VE = ~) AS SELECT R1.K, R1.A1, R2.A2 FROM R1, R2 WHERE R1.K = R2.K`
	viewV1  = `CREATE VIEW V1 (VE = ~) AS SELECT R1.K, R1.A1 FROM R1 WHERE R1.A1 > 5000`
)

func newJoinScan(ctx context.Context, e env) (workload, error) {
	w, err := newInproc(ctx, e, func() (*eve.Space, []*eve.ViewDef, error) { return joinSpace(joinRows, viewV4) }, 21)
	if err != nil {
		return nil, err
	}
	// Two base-routed reads, then one residual read: with the two kinds at
	// 50/50 the median latency would sit on the boundary between them and jump
	// whenever either kind moved.
	w.cycle = 3
	c0 := rand.New(rand.NewSource(e.seed)).Intn(1000)
	// R1.A1 = K, so "A1 > c" with c in [4500, 5500) returns about half the
	// rows whatever the seed.
	w.sql = func(i int) string {
		c := 4500 + (c0+i*37)%1000
		if i%3 != 2 { // three of four relations: no view matches, hash joins over base
			return fmt.Sprintf(`SELECT R1.K, R1.A1, R2.A2, R3.A3 FROM R1, R2, R3
				WHERE R1.K = R2.K AND R2.K = R3.K AND R1.A1 > %d`, c)
		}
		return fmt.Sprintf(`SELECT R1.K, R1.A1, R2.A2, R3.A3, R4.A4 FROM R1, R2, R3, R4
			WHERE R1.K = R2.K AND R2.K = R3.K AND R3.K = R4.K AND R1.A1 > %d`, c) // residual over V4's extent
	}
	return w, nil
}

const maintainBatch = 16

func newUpdateMaintain(ctx context.Context, e env) (workload, error) {
	w, err := newInproc(ctx, e, func() (*eve.Space, []*eve.ViewDef, error) {
		return joinSpace(joinRows, viewV4, viewV12, viewV1)
	}, 12)
	if err != nil {
		return nil, err
	}
	w.cycle = 6
	keys := rand.New(rand.NewSource(e.seed)).Perm(joinRows)
	// Operation 2b inserts batch b, operation 2b+1 deletes it. A tuple reuses
	// an existing key with a fresh attribute value, so it finds its join
	// partners and every view over its relation gains (then loses) a row.
	// Batches rotate over R1 (three views to maintain), R2 (two) and R3 (one):
	// three equal classes, so the median latency lies inside the middle one.
	w.batch = func(i int) []eve.Update {
		b := i / 2
		rel := fmt.Sprintf("R%d", b%3+1)
		out := make([]eve.Update, maintainBatch)
		for k := range out {
			n := b*maintainBatch + k
			t := eve.Tuple{eve.Int(int64(keys[n%joinRows])), eve.Int(int64(1_000_000 + n))}
			if i%2 == 0 {
				out[k] = eve.InsertTuple(rel, t)
			} else {
				out[k] = eve.DeleteTuple(rel, t)
			}
		}
		return out
	}
	return w, nil
}
