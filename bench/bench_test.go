package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadBenchmarkFile(t *testing.T) benchmarkDoc {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkDoc
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's own
// declarations against each other, in both directions.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bm := loadBenchmarkFile(t)
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, d := range bm.EndToEnd {
		e2e = append(e2e, d.metricDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for what, pair := range map[string][2][]metricDef{"end_to_end": {e2e, endToEnd}, "per_layer": {bm.PerLayer, perLayer}} {
		declared, printed := pair[0], pair[1]
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(declared), len(printed))
			continue
		}
		for i := range declared {
			if declared[i] != printed[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", what, i, declared[i], printed[i])
			}
			if !nameRE.MatchString(printed[i].Name) {
				t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", printed[i].Name)
			}
		}
	}
	for name := range countMetrics {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("count metric %s is not a per-layer metric", name)
		}
	}
}

// promisedRoutes are the route kinds each read workload exists to exercise.
var promisedRoutes = map[string][]string{
	"http-read":  {"route.share_residual"},
	"http-mixed": {"route.share_residual"},
	"route-wide": {"route.share_residual"},
	"join-scan":  {"route.share_base", "route.share_residual"},
}

// TestSuiteSmoke runs every workload once untraced and twice traced on a short
// window: every declared metric is printed and no other, nothing fails, no
// end-to-end metric is 0, and every count repeats exactly for the same seed.
func TestSuiteSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e := env{root: root, seed: 1}
	cfg := runConfig{seconds: 0.15}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			run := func(traced bool) *record {
				rec, err := runWorkload(ctx, name, e, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %s", traced, rec.Failed, rec.Attempted, rec.Error)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, %d declared", traced, len(rec.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rec.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("traced=%v: metric %s = %+v (reported: %v)", traced, d.Name, v, ok)
					}
				}
				return rec
			}
			untraced := run(false)
			for _, d := range endToEnd {
				if v := untraced.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, v)
				}
			}
			a, b := run(true), run(true)
			for cm := range countMetrics {
				if a.Metrics[cm] != b.Metrics[cm] {
					t.Errorf("count %s differs between two runs of seed 1: %v and %v", cm, a.Metrics[cm].Value, b.Metrics[cm].Value)
				}
			}
			for _, share := range promisedRoutes[name] {
				if a.Metrics[share].Value == 0 {
					t.Errorf("%s = 0: the workload no longer takes the route it exists for", share)
				}
			}
			if v := a.Metrics["harness.drift_rows"].Value; v != 0 {
				t.Errorf("harness.drift_rows = %v", v)
			}
		})
	}
}

// TestCorruptedExpectationFails flips a bit of every expected checksum: the run
// must report failures and the command must exit non-zero.
func TestCorruptedExpectationFails(t *testing.T) {
	var out, errOut bytes.Buffer
	code := realMain(context.Background(), []string{"-workload", "route-wide", "-seconds", "0.1", "-trace", "0", "-corrupt"}, &out, &errOut)
	if code == 0 {
		t.Fatalf("exit code 0 with corrupted expectations\n%s", out.String())
	}
	last := lastLine(out.String())
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted run reported %+v", res)
	}
}

// TestDriverLine runs the command the way BENCHMARK.json's driver does and
// checks the shape of the last line.
func TestDriverLine(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"--workload", "join-scan", "--seed", "3", "--seconds", "0.2", "--trace", "0"}
	if code := realMain(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d: %s", code, errOut.String())
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(res) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(res))
	}
	var metrics map[string]value
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("untraced run printed %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
	} {
		q1, med, q3 := quartiles(tc.in)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		new    []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, false, "within bound"},
		{"slower latency", []float64{120, 121, 119, 122, 120}, false, "worse"},
		{"faster latency", []float64{80, 81, 79, 80, 82}, false, "better"},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, true, "worse"},
		{"noisy", []float64{70, 130, 100, 60, 140}, false, "unresolved"},
	} {
		if got := judge(old, tc.new, tc.higher, 0.10).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
