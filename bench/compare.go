package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkDoc is the part of BENCHMARK.json the program reads: compare takes
// the bound of each end-to-end metric — the share of the old median by which it
// may worsen — and bench_test.go holds the rest against the program's own
// declarations.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// compareMain holds a new result.json against an old one, one row per
// workload and end-to-end metric, under the bounds BENCHMARK.json fixes. It
// exits 1 when any row is worse.
func compareMain(root string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare old.json new.json")
		return 2
	}
	var bm benchmarkDoc
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bm); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var docs [2]resultDoc
	for i, path := range args {
		if err := readJSON(path, &docs[i]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	old, new := untracedValues(docs[0]), untracedValues(docs[1])
	fmt.Fprintf(stdout, "%-16s %-10s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	worse := false
	for _, name := range workloadNames {
		for _, d := range bm.EndToEnd {
			a, b := old[name][d.Name], new[name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			row := judge(a, b, d.Better == "higher", d.Bound)
			fmt.Fprintf(stdout, "%-16s %-10s %14.4f %14.4f %+8.4f %8.4f %6.2f  %s\n",
				name, d.Name, row.oldMed, row.newMed, row.change, row.spread, d.Bound, row.verdict)
			worse = worse || row.verdict == "worse"
		}
	}
	if worse {
		return 1
	}
	return 0
}

func readJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// untracedValues groups the end-to-end values of a result by workload and
// metric, one value per run.
func untracedValues(doc resultDoc) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, rec := range doc.Runs {
		if rec.Traced {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out
}

type verdictRow struct {
	oldMed, newMed float64
	change         float64 // share of the old median by which new is worse (+) or better (-)
	spread         float64 // wider of the two sides' quartile distance over median
	verdict        string
}

// judge applies the rule of the choosing-metrics guide: worse when the new
// median is worse than the old by more than the bound; unresolved when the
// run-to-run spread is wider than the bound, unless every new run beats every
// old run; better when the gain exceeds the old side's own quartile distance.
func judge(old, new []float64, higherIsBetter bool, bound float64) verdictRow {
	q1a, medA, q3a := quartiles(old)
	q1b, medB, q3b := quartiles(new)
	r := verdictRow{oldMed: medA, newMed: medB}
	if medA == 0 {
		r.verdict = "unresolved"
		return r
	}
	r.change = (medB - medA) / medA
	if higherIsBetter {
		r.change = -r.change
	}
	r.spread = (q3a - q1a) / medA
	if medB != 0 && (q3b-q1b)/medB > r.spread {
		r.spread = (q3b - q1b) / medB
	}
	allBetter := true
	for _, b := range new {
		for _, a := range old {
			if (higherIsBetter && b <= a) || (!higherIsBetter && b >= a) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		r.verdict = "better"
	case r.spread > bound:
		r.verdict = "unresolved"
	case r.change > bound:
		r.verdict = "worse"
	case -r.change > (q3a-q1a)/medA:
		r.verdict = "better"
	default:
		r.verdict = "within bound"
	}
	return r
}
