package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"testing"

	eve "repro"
	"repro/internal/exec"
	"repro/internal/relation"
)

// oldQueryBody is the /query response as the handler built it before the
// append-style writer: sort a tuple copy, box every cell's text into a
// string, hand a map to the reflective indenting encoder. It is the oracle
// appendQueryBody must match byte for byte.
func oldQueryBody(t testing.TB, seq uint64, rt *eve.Route, res *eve.Relation) []byte {
	t.Helper()
	rows := make([][]string, 0, res.Card())
	for _, tup := range res.Sorted() {
		row := make([]string, len(tup))
		for i, val := range tup {
			row[i] = val.Text()
		}
		rows = append(rows, row)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(map[string]any{
		"versionSeqs": []uint64{seq},
		"route":       rt.Kind.String(),
		"view":        rt.View,
		"cost":        rt.Cost,
		"baseCost":    rt.BaseCost,
		"columns":     res.Schema().Names(),
		"rows":        rows,
		"checksum":    fmt.Sprintf("%016x", exec.RowChecksum(res)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkQueryBody(t *testing.T, seq uint64, rt *eve.Route, res *eve.Relation) {
	t.Helper()
	got := appendQueryBody(nil, seq, rt, res) // before the oracle forces tuples
	if want := oldQueryBody(t, seq, rt, res); !bytes.Equal(got, want) {
		t.Errorf("body differs from json.Encoder's\n got: %q\nwant: %q", got, want)
	}
}

// TestQueryBodyMatchesEncoderOnServedQueries replays the daemon's /query
// cases — residual and extent routes, empty and one-column results — through
// the handler and through both encoders.
func TestQueryBodyMatchesEncoderOnServedQueries(t *testing.T) {
	d, _, err := buildDaemon(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler(0))
	defer srv.Close()
	v := d.sys.Snapshot()
	queries := []string{
		"SELECT A1, A2 FROM W1 WHERE A1 > 3",
		"SELECT A1 FROM W1",
		"SELECT A1, A2 FROM W1 WHERE A1 > 1000000000", // no rows
		"SELECT A2, A1 FROM W1 WHERE A2 < 50",
		"SELECT A1, A2, A3, A4, A5, A6 FROM W1", // V1_1's definition: its extent as is
	}
	kinds := map[eve.RouteKind]bool{}
	for _, sql := range queries {
		rt, err := v.RouteQuery(sql)
		if err != nil {
			t.Fatalf("route %q: %v", sql, err)
		}
		res, err := rt.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		kinds[rt.Kind] = true
		checkQueryBody(t, v.Seq(), rt, res)
		code, body := get(t, srv.URL, "/query?q="+url.QueryEscape(sql))
		if want := oldQueryBody(t, v.Seq(), rt, res); code != 200 || body != string(want) {
			t.Errorf("/query %q = %d\n got: %q\nwant: %q", sql, code, body, want)
		}
	}
	if len(kinds) < 2 {
		t.Errorf("served queries took routes %v, want at least two kinds", kinds)
	}
}

// TestQueryBodyMatchesEncoderOnAwkwardResults covers what the demo data
// never holds: strings that need every JSON escape, floats, NULLs, mixed
// columns, zero rows, one column, no columns — in each physical form.
func TestQueryBodyMatchesEncoderOnAwkwardResults(t *testing.T) {
	I, F, S, B, N := relation.Int, relation.Float, relation.String, relation.Bool, relation.Null
	results := []struct {
		name  string
		names []string
		rows  []relation.Tuple
	}{
		{"no rows", []string{"A", "B"}, nil},
		{"one column", []string{"A"}, []relation.Tuple{{I(3)}, {I(-1)}, {I(2)}}},
		{"no columns", nil, []relation.Tuple{{}}},
		{"escapes", []string{`na"me`, "<&>", "tab\there"}, []relation.Tuple{
			{S(`quote " backslash \`), S("<script>&amp;</script>"), S("\x00\x01\b\f\n\r\t\x1e\x1f\x7f")},
			{S("bad utf8 \xff\xfe\xc0 tail"), S("sep \u2028 \u2029 end"), S("héllo, 世界 🎉")},
			{S(""), S("\xe2\x80"), S("\u2028")},
		}},
		{"floats", []string{"F", "G"}, []relation.Tuple{
			{F(1.5), F(math.NaN())}, {F(-0.0), F(math.Inf(1))}, {F(1e21), F(math.Inf(-1))},
			{F(1e-7), F(123456789.125)}, {F(math.Copysign(0, -1)), F(math.SmallestNonzeroFloat64)},
		}},
		{"nulls and mixed", []string{"M", "K"}, []relation.Tuple{
			{N, I(1)}, {I(1), I(2)}, {F(1), I(3)}, {S("1"), I(4)}, {B(true), I(5)}, {S("<"), N},
			{I(1 << 53), I(6)}, {I(1<<53 + 1), I(7)},
		}},
	}
	routes := []*eve.Route{
		{Kind: eve.RouteBase, Cost: 12, BaseCost: 12},
		{Kind: eve.RouteViewResidual, View: `V"<1>`, Cost: 0.5, BaseCost: 1234567.875},
		{Kind: eve.RouteViewExtent, View: "V1_1", Cost: 1e-7, BaseCost: 1e21},
		{Kind: eve.RouteViewExtent, View: "", Cost: 0, BaseCost: 3e-9},
	}
	for i, c := range results {
		t.Run(c.name, func(t *testing.T) {
			schema := relation.MustSchema(relation.TypeInt, c.names...)
			inserted := relation.New("Q", schema)
			for _, row := range c.rows {
				if err := inserted.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			rows := inserted.Tuples()
			forms := []*relation.Relation{
				inserted,
				relation.FromDistinctRows("Q", schema, append([]relation.Tuple(nil), rows...)),
				relation.FromColumns("Q", schema, relation.NewColumnBatch(rows, schema.Len())),
			}
			for j, res := range forms {
				checkQueryBody(t, uint64(1+i*7+j), routes[(i+j)%len(routes)], res)
			}
		})
	}
}

// typicalResponse is http-read's usual answer: 89 rows of two int columns,
// columnar-born.
func typicalResponse() (*eve.Route, *eve.Relation) {
	schema := relation.MustSchema(relation.TypeInt, "A1", "A2")
	rows := make([]relation.Tuple, 89)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(int64(i * 37 % 89)), relation.Int(int64(i))}
	}
	res := relation.FromColumns("Q", schema, relation.NewColumnBatch(rows, 2))
	return &eve.Route{Kind: eve.RouteBase, Cost: 3, BaseCost: 3}, res
}

// TestQueryBodyAllocs pins the point of the writer: into a warm buffer, an
// 89-row two-column response costs a handful of allocations (the sort, the
// column names), not hundreds.
func TestQueryBodyAllocs(t *testing.T) {
	rt, res := typicalResponse()
	buf := appendQueryBody(nil, 1, rt, res)
	if n := testing.AllocsPerRun(20, func() { buf = appendQueryBody(buf[:0], 1, rt, res) }); n > 12 {
		t.Errorf("appendQueryBody: %v allocs/run, want ≤ 12", n)
	}
}

func BenchmarkQueryBody(b *testing.B) {
	rt, res := typicalResponse()
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf = appendQueryBody(buf[:0], 1, rt, res)
		}
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			oldQueryBody(b, 1, rt, res)
		}
	})
}
