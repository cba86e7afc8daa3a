package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	eve "repro"
)

func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHandlerServesDuringChurn drives the eved handler with httptest while
// the churn stream applies, checking that every endpoint answers from a
// coherent version.
func TestHandlerServesDuringChurn(t *testing.T) {
	d, h, err := buildDaemon(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler(5 * time.Second))
	defer srv.Close()

	if code, body := get(t, srv.URL, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, srv.URL, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	// Serve before, during, and after churn.
	checkAll := func() {
		code, body := get(t, srv.URL, "/")
		if code != 200 || !strings.Contains(body, "versionSeqs") || !strings.Contains(body, `"liveViews"`) {
			t.Fatalf("/ = %d %q", code, body)
		}
		code, body = get(t, srv.URL, "/views")
		if code != 200 || !strings.Contains(body, "views") {
			t.Fatalf("/views = %d %q", code, body)
		}
		var doc struct {
			Views []struct {
				Name string `json:"name"`
			} `json:"views"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/views JSON: %v in %q", err, body)
		}
		if len(doc.Views) == 0 {
			t.Fatal("/views returned no views")
		}
		code, body = get(t, srv.URL, "/views/"+doc.Views[0].Name)
		if code != 200 || !strings.Contains(body, "version seqs=") {
			t.Fatalf("/views/%s = %d %q", doc.Views[0].Name, code, body)
		}
		code, body = get(t, srv.URL, "/relations")
		if code != 200 || !strings.Contains(body, "W1") {
			t.Fatalf("/relations = %d %q", code, body)
		}
	}
	checkAll()

	// Ad-hoc query routing: a well-formed SELECT answers with a route
	// classification and a result checksum; malformed requests are 400s.
	code, body := get(t, srv.URL, "/query?q="+url.QueryEscape("SELECT A1, A2 FROM W1 WHERE A1 > 3"))
	if code != 200 || !strings.Contains(body, `"route"`) || !strings.Contains(body, "checksum") {
		t.Fatalf("/query = %d %q", code, body)
	}
	var qdoc struct {
		Route    string     `json:"route"`
		Columns  []string   `json:"columns"`
		Rows     [][]string `json:"rows"`
		Checksum string     `json:"checksum"`
	}
	if err := json.Unmarshal([]byte(body), &qdoc); err != nil {
		t.Fatalf("/query JSON: %v in %q", err, body)
	}
	if len(qdoc.Columns) != 2 || qdoc.Columns[0] != "A1" || qdoc.Columns[1] != "A2" {
		t.Fatalf("/query columns = %v", qdoc.Columns)
	}
	if qdoc.Route == "" || len(qdoc.Checksum) != 16 {
		t.Fatalf("/query route = %q checksum = %q", qdoc.Route, qdoc.Checksum)
	}
	if code, _ := get(t, srv.URL, "/query"); code != http.StatusBadRequest {
		t.Errorf("/query without q = %d, want 400", code)
	}
	if code, _ := get(t, srv.URL, "/query?q=garbage"); code != http.StatusBadRequest {
		t.Errorf("/query?q=garbage = %d, want 400", code)
	}
	if code, _ := get(t, srv.URL, "/query?q="+url.QueryEscape("SELECT X FROM NoSuchRel")); code != http.StatusBadRequest {
		t.Errorf("/query over unknown relation = %d, want 400", code)
	}

	// Data updates: a POST /update batch maintains the views and publishes
	// one new version.
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	seqBefore := d.sys.Snapshot().Seq()
	code, body = post(`{"updates": [
		{"op": "insert", "rel": "W1", "tuple": [9001, 1, 2, 3, 4, 5, 6]},
		{"op": "delete", "rel": "W1", "tuple": [9001, 1, 2, 3, 4, 5, 6]},
		{"op": "insert", "rel": "W1", "tuple": [9002, 1, 2, 3, 4, 5, 6]}
	]}`)
	if code != 200 || !strings.Contains(body, `"messages"`) {
		t.Fatalf("/update = %d %q", code, body)
	}
	var udoc struct {
		VersionSeqs []uint64 `json:"versionSeqs"`
		Applied     int      `json:"applied"`
		Messages    int      `json:"messages"`
	}
	if err := json.Unmarshal([]byte(body), &udoc); err != nil {
		t.Fatalf("/update JSON: %v in %q", err, body)
	}
	// One source notification per update, no-op pairs included.
	if udoc.Applied != 3 || udoc.Messages != 3 {
		t.Fatalf("/update = %+v", udoc)
	}
	if len(udoc.VersionSeqs) != 1 || udoc.VersionSeqs[0] != seqBefore+1 {
		t.Fatalf("/update moved seq %d -> %v, want exactly one publication", seqBefore, udoc.VersionSeqs)
	}
	if code, _ := post(`{"updates": [{"op": "insert", "rel": "NoSuchRel", "tuple": [1]}]}`); code != http.StatusBadRequest {
		t.Errorf("/update unknown relation = %d, want 400", code)
	}
	if code, _ := post(`{"updates": [{"op": "upsert", "rel": "W1", "tuple": [1]}]}`); code != http.StatusBadRequest {
		t.Errorf("/update unknown op = %d, want 400", code)
	}
	if code, _ := post(`garbage`); code != http.StatusBadRequest {
		t.Errorf("/update bad JSON = %d, want 400", code)
	}
	if code, _ := post(`{}`); code != http.StatusBadRequest {
		t.Errorf("/update empty batch = %d, want 400", code)
	}
	// A body over the limit is refused whole: 413, nothing published.
	seqBefore = d.sys.Snapshot().Seq()
	oversized := `{"updates": [{"op": "insert", "rel": "W1", "tuple": [9003, 1, 2, 3, 4, 5, 6]}], "pad": "` +
		strings.Repeat("x", maxUpdateBody) + `"}`
	if code, _ := post(oversized); code != http.StatusRequestEntityTooLarge {
		t.Errorf("/update oversized body = %d, want 413", code)
	}
	if seq := d.sys.Snapshot().Seq(); seq != seqBefore {
		t.Errorf("refused /update bodies moved seq %d -> %d", seqBefore, seq)
	}
	if code, _ := get(t, srv.URL, "/update"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /update = %d, want 405", code)
	}

	for i, c := range h.Changes {
		d.writerMu.Lock()
		_, err := d.sys.EvolveBatch(context.Background(), []eve.Change{c})
		d.writerMu.Unlock()
		if err != nil {
			t.Fatalf("change %d: %v", i, err)
		}
		d.applied.Add(1)
		if i%10 == 0 {
			checkAll()
		}
	}
	checkAll()

	if code, _ := get(t, srv.URL, "/views/NoSuchView"); code != http.StatusNotFound {
		t.Errorf("/views/NoSuchView = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL, "/bogus"); code != http.StatusNotFound {
		t.Errorf("/bogus = %d, want 404", code)
	}
}

// TestReadyzGatesOnRegistration: /readyz is 503 until the view registration
// pass completes, then 200 — the probe a load balancer keys on.
func TestReadyzGatesOnRegistration(t *testing.T) {
	d, _, err := buildDaemon(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler(0))
	defer srv.Close()

	d.registered.Store(false)
	if code, _ := get(t, srv.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before registration = %d, want 503", code)
	}
	if code, body := get(t, srv.URL, "/"); code != 200 || !strings.Contains(body, `"ready": false`) {
		t.Fatalf("/ during startup = %d %q, want ready:false", code, body)
	}
	d.registered.Store(true)
	if code, _ := get(t, srv.URL, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after registration = %d, want 200", code)
	}
	if code, _ := get(t, srv.URL, "/healthz"); code != http.StatusOK {
		t.Fatal("liveness must not gate on readiness")
	}
}

// TestGracefulShutdownCompletesInFlightQuery: an in-flight /query started
// before Shutdown completes with a full 200 response while new connections
// are refused — the drain regression eved's SIGTERM handling relies on.
func TestGracefulShutdownCompletesInFlightQuery(t *testing.T) {
	d, _, err := buildDaemon(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	d.slowQuery = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.handler(5 * time.Second)}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		body string
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/query?q=" + url.QueryEscape("SELECT A1 FROM W1"))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resc <- result{code: resp.StatusCode, body: string(b), err: err}
	}()
	time.Sleep(100 * time.Millisecond) // request is in flight (slowQuery holds it)

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Errorf("Shutdown returned in %v — did not wait for the in-flight request", waited)
	}
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK || !strings.Contains(r.body, "checksum") {
		t.Fatalf("in-flight query = %d %q, want complete 200", r.code, r.body)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("new connection accepted after Shutdown")
	}
}

// TestLimitListenerCapsConcurrency: with a cap of 1, a second connection is
// not accepted until the first closes, and the slot is returned exactly
// once even under double-Close.
func TestLimitListenerCapsConcurrency(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := limitListener(inner, 1)
	defer ln.Close()

	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := dial()
	defer c1.Close()
	var s1 net.Conn
	select {
	case s1 = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("first connection never accepted")
	}
	c2 := dial() // queues in the backlog; must not be accepted yet
	defer c2.Close()
	select {
	case <-accepted:
		t.Fatal("second connection accepted past the cap")
	case <-time.After(150 * time.Millisecond):
	}
	s1.Close()
	s1.Close() // double-close must not free a second slot
	select {
	case s2 := <-accepted:
		s2.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("second connection never accepted after slot freed")
	}
}

// TestPerRequestTimeout: a request that outlives the configured timeout is
// cut off with a non-200 instead of hanging.
func TestPerRequestTimeout(t *testing.T) {
	d, _, err := buildDaemon(5, 13)
	if err != nil {
		t.Fatal(err)
	}
	d.slowQuery = 2 * time.Second
	srv := httptest.NewServer(d.handler(50 * time.Millisecond))
	defer srv.Close()
	start := time.Now()
	code, _ := get(t, srv.URL, "/query?q="+url.QueryEscape("SELECT A1 FROM W1"))
	if code == http.StatusOK {
		t.Fatalf("slow query returned 200 despite 50ms timeout")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("timed-out query took %v, want prompt failure", time.Since(start))
	}
}
