package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// opKind classifies one operation of a workload.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opChange // a capability change whose footprint hit at least one live view
	opSkip   // a capability change that missed every view
)

// workload is one named closed loop with one client. The harness state a
// workload owns (shadow system, input generators) is built by its constructor;
// start builds only the system under test, so that setup_s prices that alone.
type workload interface {
	// start builds the system under test from nothing and returns once it can
	// serve. It may be called again after stop.
	start(ctx context.Context, traced bool) error
	// ready runs the post-start assertions and records the state drift is
	// measured from.
	ready(ctx context.Context) error
	// run performs operation i through the public path and returns its kind
	// and latency. With check it also verifies the answer against the shadow,
	// outside the timed region.
	run(ctx context.Context, i int, check bool) (opKind, time.Duration, error)
	// traced performs operation i as its decomposed layer calls, recording a
	// span per call; check is as for run.
	traced(ctx context.Context, tr *tracer, i int, check bool) error
	// prefix is the number of operations of the verification pass; counters
	// reports the counts that pass produced.
	prefix() int
	counters(m map[string]float64)
	// probes times single layers directly at the end of the traced pass and
	// derives the workload's own attribution metrics.
	probes(ctx context.Context, tr *tracer, untraced *samples, m map[string]float64) error
	// primary is the kind op_p50_us is taken over.
	primary() opKind
	// period is the number of operations after which the data is back where
	// it started; every phase ends on a multiple of it.
	period() int
	// drift is the number of rows by which relation cardinalities differ from
	// the state ready recorded.
	drift(ctx context.Context) (int, error)
	stop()
}

// rebuilder is a workload that rebuilds its system during the run and so has
// more set-up samples than the harness took.
type rebuilder interface{ rebuilds() []time.Duration }

// external is a workload whose system under test is another process.
type external interface {
	rssMB() (float64, error)
	cpuMs() (float64, error)
	// release gives back what the constructor took for the whole run.
	release()
}

// env is what every workload is built from.
type env struct {
	root string // module root: where go.mod, BENCHMARK.json and bench/ live
	seed int64
	// flip is XORed into every expected read checksum: 0, or 1 under -corrupt,
	// where every checked read must then fail.
	flip uint64
}

func (e env) outDir() string { return filepath.Join(e.root, "bench", "out") }

// workloadNames is the fixed order the suite runs in.
var workloadNames = []string{"http-read", "http-mixed", "route-wide", "join-scan", "update-maintain", "evolve-churn"}

func newWorkload(ctx context.Context, name string, e env) (workload, error) {
	switch name {
	case "http-read":
		return newHTTP(ctx, e, false)
	case "http-mixed":
		return newHTTP(ctx, e, true)
	case "route-wide":
		return newRouteWide(ctx, e)
	case "join-scan":
		return newJoinScan(ctx, e)
	case "update-maintain":
		return newUpdateMaintain(ctx, e)
	case "evolve-churn":
		return newEvolveChurn(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// samples are the operations of one window in the order they ran.
type samples struct {
	period   int // the workload's
	kinds    []opKind
	lats     []time.Duration
	failed   int
	wall     time.Duration
	firstErr error
}

func (s *samples) attempted() int { return len(s.lats) + s.failed }

// of returns the latencies of one kind.
func (s *samples) of(kind opKind) []time.Duration {
	var out []time.Duration
	for i, k := range s.kinds {
		if k == kind {
			out = append(out, s.lats[i])
		}
	}
	return out
}

// chunks is how many consecutive parts a window is cut into. On a shared
// machine, interference only ever slows an operation down, and it comes and
// goes within seconds: between identical 10 s runs the median over the parts
// moved by 10 to 20%, the best part by 4 to 6%. So ops_per_s and op_p50_us are
// taken from the quietest part — the highest rate, the lowest median latency —
// which is the closest a run gets to what the code costs on its own. Each part
// is still thousands of operations (hundreds on update-maintain), with the
// collector's work in it.
const chunks = 20

// quietest calls stat on each of the window's consecutive parts and returns the
// best result: the largest when higher is better, else the smallest.
func (s *samples) quietest(higher bool, stat func(kinds []opKind, lats []time.Duration) (float64, bool)) float64 {
	// Parts are whole periods, so that each holds the same mix of operations.
	periods := len(s.lats) / s.period
	n := min(chunks, periods)
	if n < 1 || s.failed > 0 {
		n = 1
	}
	best, have := 0.0, false
	for c := 0; c < n; c++ {
		lo, hi := c*periods/n*s.period, (c+1)*periods/n*s.period
		if n == 1 {
			hi = len(s.lats)
		}
		v, ok := stat(s.kinds[lo:hi], s.lats[lo:hi])
		if ok && (!have || (higher && v > best) || (!higher && v < best)) {
			best, have = v, true
		}
	}
	return best
}

// opsPerSecond is checked-correct operations per second spent inside
// operations: with one closed-loop client, 1/mean latency.
func (s *samples) opsPerSecond() float64 {
	return s.quietest(true, func(_ []opKind, lats []time.Duration) (float64, bool) {
		if in := sum(lats); in > 0 {
			return float64(len(lats)) / in.Seconds(), true
		}
		return 0, false
	})
}

// p50 is the median latency of one kind, in microseconds.
func (s *samples) p50(kind opKind) float64 {
	return s.quietest(false, func(kinds []opKind, lats []time.Duration) (float64, bool) {
		var ds []time.Duration
		for i, k := range kinds {
			if k == kind {
				ds = append(ds, lats[i])
			}
		}
		return p50us(ds), len(ds) > 0
	})
}

// maxFailures stops a window whose system is gone instead of spinning on it.
const maxFailures = 100

// checkEvery is the share of window operations verified against the shadow.
const checkEvery = 50

// window runs operations from index *next for d, then on to the next multiple
// of the workload's period.
func window(ctx context.Context, w workload, next *int, d time.Duration, op func(i int, check bool) (opKind, time.Duration, error)) *samples {
	s := &samples{period: w.period()}
	start := time.Now()
	deadline := start.Add(d)
	for i := *next; ; i++ {
		if (i%w.period() == 0 && !time.Now().Before(deadline)) || s.failed >= maxFailures || ctx.Err() != nil {
			*next = i
			break
		}
		var kind opKind
		var lat time.Duration
		var err error
		atDepth(i%stackDepths, func() { kind, lat, err = op(i, i%checkEvery == 0) })
		if err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		s.kinds = append(s.kinds, kind)
		s.lats = append(s.lats, lat)
	}
	s.wall = time.Since(start)
	return s
}

// stackDepths is the number of stack offsets operations rotate through. A
// frame of atDepth is 88 bytes (depth_test.go pins that it is an odd multiple
// of 8), so 64 depths visit every 8-byte alignment within a cache line and
// span more than a 4 KiB page.
const stackDepths = 64

// atDepth calls f from n frames further down the stack. The latency of a read
// that is bound by view matching depends on where its frames happen to lie —
// misd.EqualMapping copies ~200-byte constraints between stack slots, and the
// same binary measured 380 to 770 µs per read across stack offsets — so a
// change that merely moved a frame would shift the whole workload. Rotating
// operations through every offset measures the mean over alignments instead of
// one draw from them.
//
//go:noinline
func atDepth(n int, f func()) {
	if n == 0 {
		f()
		return
	}
	var frame [48]byte
	frame[n%len(frame)] = byte(n)
	atDepth(n-1, f)
	stackSink = frame[n%len(frame)]
}

var stackSink byte

// liveHeap is the heap in use after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runConfig sizes one run.
type runConfig struct {
	// seconds is the length of the measurement window. Warm-up, which lets
	// caches fill and lazy set-up finish, is a tenth of it on top.
	seconds float64
	// setupFor is how long the run keeps building the system under test, over
	// and over; setup_s is the median. Every set-up here takes milliseconds and
	// single ones scatter widely (an eved start 4.8 to 10 ms within one run):
	// over ten runs the median of 21 set-ups spread by 24% of itself, that of
	// 300 by 7%.
	setupFor time.Duration
}

const (
	// minSetups is taken however long one set-up lasts.
	minSetups = 3
	// defaultSetupFor is what the command uses.
	defaultSetupFor = 1500 * time.Millisecond
	// untracedShare of a traced run's seconds go to an untraced window on the
	// same system, the base of trace.overhead_share.
	untracedShare = 0.3
)

// record is the outcome of one run of one workload.
type record struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples is the number of observations behind each percentile or mean.
	Samples map[string]int `json:"samples"`
	Error   string         `json:"error,omitempty"`
}

// fail counts n failed operations and keeps the first error.
func (r *record) fail(n int, err error) {
	r.Failed += n
	if r.Error == "" && err != nil {
		r.Error = err.Error()
	}
}

func (r *record) add(s *samples) {
	r.Attempted += s.attempted()
	r.fail(s.failed, s.firstErr)
}

// runWorkload performs one run: set-up, verification prefix, warm-up, window.
// An untraced run yields the end-to-end metrics, a traced run the per-layer
// ones and the trace file.
func runWorkload(ctx context.Context, name string, e env, cfg runConfig, traced bool) (*record, error) {
	defer startIdlers(ctx).stop()
	w, err := newWorkload(ctx, name, e)
	if err != nil {
		return nil, err
	}
	if x, ok := w.(external); ok {
		defer x.release()
	}
	defer w.stop()

	// Set-up, several times. The heap is read before the last one and after
	// the verification prefix, so that mem_mb is what the system under test
	// holds after a fixed number of operations, not what the harness holds or
	// what a faster system would have cached by the end of a longer window. A
	// rebuilder's system does not live through the prefix, and what its
	// successors hold depends on the seed; its memory is read after set-up.
	var setupTimes []time.Duration
	var heap0 float64
	_, rebuilds := w.(rebuilder)
	for begin, last := time.Now(), false; !last; {
		last = len(setupTimes)+1 >= minSetups && time.Since(begin) >= cfg.setupFor
		if len(setupTimes) > 0 {
			w.stop()
		}
		if last {
			heap0 = liveHeap()
		}
		t0 := time.Now()
		if err := w.start(ctx, traced); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
	}
	if err := w.ready(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var heap1 float64
	if rebuilds {
		heap1 = liveHeap()
	}

	rec := &record{Workload: name, Traced: traced, Metrics: map[string]value{}, Samples: map[string]int{}}

	// Verification prefix: a fixed number of operations through the
	// decomposed path, every answer checked. Its counts repeat exactly.
	next := 0
	for ; next < w.prefix(); next++ {
		rec.Attempted++
		if err := w.traced(ctx, nil, next, true); err != nil {
			rec.fail(1, fmt.Errorf("verify op %d: %w", next, err))
		}
	}
	if !rebuilds {
		heap1 = liveHeap()
	}
	counts := map[string]float64{}
	w.counters(counts)

	untracedOp := func(i int, check bool) (opKind, time.Duration, error) { return w.run(ctx, i, check) }
	total := time.Duration(cfg.seconds * float64(time.Second))
	dur := total
	var tr *tracer
	if traced {
		dur = time.Duration(untracedShare * float64(total))
		// The span log exists before the untraced window it is compared with:
		// its megabytes move the collector's pace, and on a workload with a
		// small heap that alone changed the latency of an operation by 16%.
		tr = newTracer()
	}
	rec.add(window(ctx, w, &next, total/10, untracedOp))
	s := window(ctx, w, &next, dur, untracedOp)
	rec.add(s)

	if traced {
		err = tracedPass(ctx, w, e, rec, tr, s, counts, &next, total-dur)
	} else {
		err = endToEndMetrics(w, rec, s, setupTimes, (heap1-heap0)/(1<<20))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	// Steady state: a data set that drifted would make latencies a function of
	// how long the window ran.
	drift, err := w.drift(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: drift: %w", name, err)
	}
	if drift != 0 {
		rec.fail(1, fmt.Errorf("relation cardinalities drifted by %d rows: inserts and deletes do not alternate", drift))
	}
	if traced {
		rec.Metrics["harness.drift_rows"] = value{float64(drift), "count"}
		rec.Metrics["harness.failed_share"] = value{float64(rec.Failed) / float64(rec.Attempted), "ratio"}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// endToEndMetrics fills the record of an untraced run.
func endToEndMetrics(w workload, rec *record, s *samples, setupTimes []time.Duration, heapMB float64) error {
	if rb, ok := w.(rebuilder); ok {
		setupTimes = append(setupTimes, rb.rebuilds()...)
	}
	mem := heapMB
	if x, ok := w.(external); ok {
		var err error
		if mem, err = x.rssMB(); err != nil {
			return err
		}
	}
	primary := w.primary()
	for _, d := range endToEnd {
		var v float64
		var n int
		switch d.Name {
		case "setup_s":
			v, n = percentile(sortedCopy(setupTimes), 0.5).Seconds(), len(setupTimes)
		case "ops_per_s":
			v, n = s.opsPerSecond(), len(s.lats)
		case "op_p50_us":
			v, n = s.p50(primary), len(s.of(primary))
		case "mem_mb":
			v, n = mem, 1
		}
		rec.Metrics[d.Name] = value{v, d.Unit}
		rec.Samples[d.Name] = n
	}
	return nil
}

// tracedPass runs the traced window after the untraced one, s, and fills the
// record with every per-layer metric.
func tracedPass(ctx context.Context, w workload, e env, rec *record, tr *tracer, s *samples, m map[string]float64, next *int, d time.Duration) error {
	x, isExternal := w.(external)
	var cpu0 float64
	if isExternal {
		var err error
		if cpu0, err = x.cpuMs(); err != nil {
			return err
		}
	}
	ts := window(ctx, w, next, d, func(i int, check bool) (opKind, time.Duration, error) {
		return 0, 0, w.traced(ctx, tr, i, check)
	})
	rec.add(ts)
	if isExternal {
		cpu1, err := x.cpuMs()
		if err != nil {
			return err
		}
		if m["eved.rss_mb"], err = x.rssMB(); err != nil {
			return err
		}
		m["eved.cpu_ms_per_kop"] = (cpu1 - cpu0) / float64(ts.attempted()) * 1000
	}
	if err := w.probes(ctx, tr, s, m); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	layerTimes(tr, m, rec.Samples)

	opSpans := tr.durations("op.")
	untracedRate := float64(len(s.lats)) / sum(s.lats).Seconds()
	m["trace.overhead_share"] = 1 - float64(len(opSpans))/sum(opSpans).Seconds()/untracedRate
	m["harness.outside_share"] = 1 - sum(opSpans).Seconds()/ts.wall.Seconds()
	for _, d := range perLayer {
		rec.Metrics[d.Name] = value{m[d.Name], d.Unit}
	}
	if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(e.outDir(), "trace-"+rec.Workload+".json"), rec.Workload, e.seed)
}

// layerTimes turns the spans every workload records under the same names into
// the per-layer timing metrics.
func layerTimes(tr *tracer, m map[string]float64, n map[string]int) {
	mean := func(metric, spanName string) {
		ds := tr.durations(spanName)
		m[metric] = meanUs(ds)
		n[metric] = len(ds)
	}
	mean("esql.parse_us", "esql.parse")
	mean("warehouse.route_first_us", "warehouse.route_first")
	mean("warehouse.route_repeat_us", "warehouse.route_repeat")
	mean("plan.execute_us", "plan.execute")
	mean("exec.checksum_us", "exec.checksum")
	mean("maintain.collapse_us", "maintain.collapse")
	mean("maintain.land_us", "maintain.land")
	mean("warehouse.publish_us", "warehouse.publish")
	mean("warehouse.snapshot_us", "warehouse.snapshot")

	// Observer phases arrive as one span per operation holding the phase
	// total and its number of calls; the metric is the mean per call.
	perCall := func(metric, spanName string) {
		var total time.Duration
		var calls int64
		tr.each(spanName, func(s *span) {
			total += s.dur()
			calls += tr.get(s, "calls")
		})
		if calls > 0 {
			m[metric] = micros(total) / float64(calls)
		}
		n[metric] = int(calls)
	}
	perCall("maintain.view_us", "maintain.view")
	perCall("warehouse.sync_us", "warehouse.sync")
	perCall("warehouse.adopt_us", "warehouse.adopt")

	pct := func(prefix, spanName string) {
		sorted := sortedCopy(tr.durations(spanName))
		m[prefix+"_p50_us"] = micros(percentile(sorted, 0.50))
		m[prefix+"_p99_us"] = micros(percentile(sorted, 0.99))
		m[prefix+"_samples"] = float64(len(sorted))
	}
	pct("client.read", "op.read.")
	pct("client.write", "op.write")
	pct("client.change", "op.change.hit")
	for metric, spanName := range map[string]string{
		"route.extent_p50_us":   "op.read.view-extent",
		"route.residual_p50_us": "op.read.view-residual",
		"route.base_p50_us":     "op.read.base",
		"evolve.skip_p50_us":    "op.change.skip",
	} {
		ds := tr.durations(spanName)
		m[metric] = p50us(ds)
		n[metric] = len(ds)
	}
}
