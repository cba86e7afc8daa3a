package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	eve "repro"
	"repro/internal/scenario"
)

// evedDemoParams repeats the scenario cmd/eved builds in buildDaemon (a main
// package cannot be imported). ready() compares the daemon's relations and
// views with the shadow built from these, so a drifted copy fails the run
// instead of producing wrong expected answers.
func evedDemoParams(seed int64) scenario.ChurnParams {
	return scenario.ChurnParams{
		Families: 2, TwinsPerFamily: 4, Width: 6, Donors: 2, Spares: 4, SpareAttrs: 4,
		Changes: 200, Seed: seed,
		FamilyDeleteRatio: 0.10, FamilyRenameRatio: 0.10, DonorRatio: 0.08,
		ReplaceableViews: true,
	}
}

const (
	evedDemoRows = 100
	// httpWriteEvery makes every 10th operation of http-mixed an update batch.
	httpWriteEvery = 10
	httpBatch      = 8
	httpPool       = 200
)

// httpShapes are eveload's four default query shapes; %d takes the constant.
// The first comes round twice in a cycle of five: two shapes return two
// columns and two return one, and at 50/50 the median read would sit on the
// boundary between the heavier and the lighter pair.
var httpShapes = []string{
	"SELECT A1, A2 FROM W1 WHERE A1 > %d",
	"SELECT A3 FROM W2 WHERE A3 > %d",
	"SELECT A1 FROM W2",
	"SELECT A2, A4 FROM W1 WHERE A2 > %d",
	"SELECT A1, A2 FROM W1 WHERE A1 > %d",
}

// httpWorkload drives a real eved subprocess over one keep-alive loopback
// connection: the path a user of the daemon feels.
type httpWorkload struct {
	e     env
	mixed bool
	bin   string
	pool  []int // the constants, a seeded shuffle of 0..199

	client *http.Client
	split  cpuSplit // one CPU for this client, one for the daemon
	proc   *evedProc
	// shadow replicates the daemon's system in-process: base-only evaluation
	// over its space is the expected answer, and replaying each request on it
	// prices the layers behind eved's handler.
	shadow  *sut
	withObs bool
	before  map[string]int

	rc        readCounts
	wc        writeCounts
	respBytes int
}

func newHTTP(ctx context.Context, e env, mixed bool) (workload, error) {
	bin, err := buildEved(ctx, e)
	if err != nil {
		return nil, err
	}
	return &httpWorkload{
		e: e, mixed: mixed, bin: bin,
		split: splitCPUs(),
		pool:  rand.New(rand.NewSource(e.seed)).Perm(httpPool),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}, nil
}

func (w *httpWorkload) start(ctx context.Context, traced bool) (err error) {
	w.withObs = traced
	w.proc, err = startEved(ctx, w.bin, w.e.seed, w.client, w.split)
	return err
}

func (w *httpWorkload) stop() {
	if w.proc != nil {
		w.proc.stop()
		w.proc = nil
	}
	w.client.CloseIdleConnections()
}

func (w *httpWorkload) release() { w.split.undo() }

func (w *httpWorkload) rssMB() (float64, error) { return w.proc.rssMB() }
func (w *httpWorkload) cpuMs() (float64, error) { return w.proc.cpuMs() }

func (w *httpWorkload) prefix() int { return httpPool }

func (w *httpWorkload) period() int {
	if w.mixed {
		return 2 * httpWriteEvery // an insert batch and its delete
	}
	return 1
}

func (w *httpWorkload) primary() opKind { return opRead }

// ready builds the shadow and asserts the daemon serves the same relations
// and views.
func (w *httpWorkload) ready(ctx context.Context) error {
	sp, views, err := churnSpace(evedDemoParams(w.e.seed), evedDemoRows)
	if err != nil {
		return err
	}
	if w.shadow, err = newSUT(ctx, sp, views, w.withObs); err != nil {
		return err
	}
	var rels struct {
		Relations []string `json:"relations"`
	}
	if err := w.getJSON("/relations", &rels); err != nil {
		return err
	}
	want := w.shadow.sys.Snapshot().RelationNames()
	sort.Strings(want)
	sort.Strings(rels.Relations)
	if strings.Join(want, ",") != strings.Join(rels.Relations, ",") {
		return fmt.Errorf("cmd/eved demo scenario drifted: daemon serves relations %v, bench/http.go builds %v", rels.Relations, want)
	}
	got, err := w.viewCards()
	if err != nil {
		return err
	}
	mine := w.shadowViewCards()
	if driftRows(mine, got) != 0 || len(mine) != len(got) {
		return fmt.Errorf("cmd/eved demo scenario drifted: daemon serves views %v, bench/http.go builds %v", got, mine)
	}
	w.before = got
	return nil
}

func (w *httpWorkload) shadowViewCards() map[string]int {
	out := map[string]int{}
	for _, vv := range w.shadow.sys.Snapshot().Views() {
		out[vv.Name] = vv.Extent.Card()
	}
	return out
}

// viewCards asks the daemon for its live views and their tuple counts.
func (w *httpWorkload) viewCards() (map[string]int, error) {
	var doc struct {
		Views []struct {
			Name   string `json:"name"`
			Tuples int    `json:"tuples"`
		} `json:"views"`
	}
	if err := w.getJSON("/views", &doc); err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, v := range doc.Views {
		out[v.Name] = v.Tuples
	}
	return out, nil
}

func (w *httpWorkload) getJSON(path string, into any) error {
	resp, err := w.client.Get(w.proc.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// drift is measured on the daemon's view extents (every inserted tuple shows
// in a view over its relation) and must agree with the shadow's.
func (w *httpWorkload) drift(context.Context) (int, error) {
	now, err := w.viewCards()
	if err != nil {
		return 0, err
	}
	return driftRows(w.before, now) + driftRows(now, w.shadowViewCards()), nil
}

// isWrite says whether operation i of the loop is an update batch.
func (w *httpWorkload) isWrite(i int) bool { return w.mixed && i%httpWriteEvery == httpWriteEvery-1 }

func (w *httpWorkload) sql(i int) string {
	shape := httpShapes[i%len(httpShapes)]
	if !strings.Contains(shape, "%d") {
		return shape
	}
	return fmt.Sprintf(shape, w.pool[i%len(w.pool)])
}

// batch is the i-th operation's update batch: write number n = i/10 inserts 8
// fresh tuples into W1 or W2 when even and deletes the same tuples when odd.
func (w *httpWorkload) batch(i int) (updates []eve.Update, body []byte) {
	n := i / httpWriteEvery
	b := n / 2
	rel := fmt.Sprintf("W%d", b%2+1)
	op := "insert"
	if n%2 == 1 {
		op = "delete"
	}
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	for k := 0; k < httpBatch; k++ {
		key := int64(1_000_000 + b*httpBatch + k)
		t := make(eve.Tuple, 7) // K, A1..A6
		vals := make([]string, len(t))
		for j := range t {
			v := key + int64(j)
			t[j] = eve.Int(v)
			vals[j] = fmt.Sprint(v)
		}
		if op == "insert" {
			updates = append(updates, eve.InsertTuple(rel, t))
		} else {
			updates = append(updates, eve.DeleteTuple(rel, t))
		}
		if k > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"op":%q,"rel":%q,"tuple":[%s]}`, op, rel, strings.Join(vals, ","))
	}
	sb.WriteString("]}")
	return updates, []byte(sb.String())
}

// do sends the request and reads the whole body; the latency covers both.
func (w *httpWorkload) do(req *http.Request) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, lat, nil
}

func (w *httpWorkload) request(ctx context.Context, i int) (*http.Request, []eve.Update, error) {
	if w.isWrite(i) {
		updates, body := w.batch(i)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.proc.base+"/update", bytes.NewReader(body))
		return req, updates, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.proc.base+"/query?q="+url.QueryEscape(w.sql(i)), nil)
	return req, nil, err
}

// queryReply is the part of eved's /query answer the harness checks.
type queryReply struct {
	Route    string     `json:"route"`
	Rows     [][]string `json:"rows"`
	Checksum string     `json:"checksum"`
}

// updateReply is the part of eved's /update answer the harness checks.
type updateReply struct {
	Applied  int `json:"applied"`
	Messages int `json:"messages"`
}

func (w *httpWorkload) run(ctx context.Context, i int, check bool) (opKind, time.Duration, error) {
	req, updates, err := w.request(ctx, i)
	if err != nil {
		return opRead, 0, err
	}
	body, lat, err := w.do(req)
	if updates != nil {
		if err != nil {
			return opWrite, lat, err
		}
		if _, err := w.shadow.sys.ApplyUpdates(ctx, updates); err != nil {
			return opWrite, lat, fmt.Errorf("shadow: %w", err)
		}
		return opWrite, lat, checkUpdateReply(body, len(updates))
	}
	if err != nil || !check {
		return opRead, lat, err
	}
	_, err = w.checkQueryReply(ctx, i, body, true)
	return opRead, lat, err
}

func checkUpdateReply(body []byte, n int) error {
	var rep updateReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	if rep.Applied != n || rep.Messages != n {
		return fmt.Errorf("batch of %d updates: daemon applied %d and charged %d messages", n, rep.Applied, rep.Messages)
	}
	return nil
}

// checkQueryReply decodes the daemon's answer and, with baseline, compares its
// checksum with base-only evaluation over the shadow space.
func (w *httpWorkload) checkQueryReply(ctx context.Context, i int, body []byte, baseline bool) (queryReply, error) {
	var rep queryReply
	if err := json.Unmarshal(body, &rep); err != nil || !baseline {
		return rep, err
	}
	want, err := baseOnly(ctx, w.sql(i), w.shadow.sys.Space)
	if err != nil {
		return rep, err
	}
	if got := fmt.Sprintf("%016x", want.sum^w.e.flip); rep.Checksum != got || len(rep.Rows) != want.rows || want.rows == 0 {
		return rep, fmt.Errorf("%s: daemon answered checksum %s (%d rows), base-only %s (%d rows)",
			w.sql(i), rep.Checksum, len(rep.Rows), got, want.rows)
	}
	return rep, nil
}

// traced times the request as the client sees it, then replays it on the
// shadow as decomposed layer calls: the difference is what eved adds around
// them (transport, sort, JSON encode).
func (w *httpWorkload) traced(ctx context.Context, tr *tracer, i int, check bool) error {
	req, updates, err := w.request(ctx, i)
	if err != nil {
		return err
	}
	name := "op.read"
	if updates != nil {
		name = "op.write"
	}
	root := tr.begin(i, 0, name)
	body, _, err := w.do(req)
	tr.end(root)
	if err != nil {
		return err
	}
	tr.count(root, "resp_bytes", int64(len(body)))
	w.respBytes += len(body)
	if updates != nil {
		if _, err := w.shadow.tracedUpdate(ctx, tr, i, "shadow.write", updates, &w.wc); err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
		return checkUpdateReply(body, len(updates))
	}
	rep, err := w.checkQueryReply(ctx, i, body, check)
	if err != nil {
		return err
	}
	tr.rename(root, "op.read."+rep.Route)
	if w.mixed && i%httpWriteEvery == 0 && i > 0 {
		tr.count(root, "after_write", 1)
	}
	got, err := w.shadow.tracedQuery(ctx, tr, i, "shadow.read", w.sql(i), &w.rc)
	if err != nil {
		return fmt.Errorf("shadow: %w", err)
	}
	if fmt.Sprintf("%016x", got.sum) != rep.Checksum {
		return fmt.Errorf("%s: shadow routed to checksum %016x, daemon %s", w.sql(i), got.sum, rep.Checksum)
	}
	return nil
}

func (w *httpWorkload) counters(m map[string]float64) {
	w.rc.into(m)
	w.wc.into(m)
	m["eved.resp_bytes_per_op"] = float64(w.respBytes) / float64(w.prefix())
}

// probes derives eved.gap_us and, on http-mixed, splits reads into the first
// after a publication and the rest.
func (w *httpWorkload) probes(_ context.Context, tr *tracer, un *samples, m map[string]float64) error {
	shadowRead := map[int32]time.Duration{}
	tr.each("shadow.read.", func(s *span) { shadowRead[s.op] = s.dur() })
	var gaps, after, steady []time.Duration
	tr.each("op.read.", func(s *span) {
		gaps = append(gaps, s.dur()-shadowRead[s.op])
		if tr.get(s, "after_write") == 1 {
			after = append(after, s.dur())
		} else {
			steady = append(steady, s.dur())
		}
	})
	m["eved.gap_us"] = p50us(gaps)
	if w.mixed {
		m["client.read_after_write_p50_us"] = p50us(after)
		m["client.read_steady_p50_us"] = p50us(steady)
	}
	// The directly timed stages are the in-process ones; the rest of a read
	// is eved.gap_us, which is derived.
	m["trace.stage_sum_share"] = meanUs(tr.durations("shadow.read.")) / meanUs(un.of(opRead))
	return nil
}
