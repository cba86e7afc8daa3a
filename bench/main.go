// Command bench is the repository's performance ledger: six named closed-loop
// workloads over the three user-visible paths (routed read, data update,
// capability change), four end-to-end metrics per workload from an untraced
// window, and per-layer attribution from a traced run of the same operations.
// Every answer is checked against base-only evaluation on a harness-owned
// shadow system. README.md has the workload and metric tables.
//
// Usage:
//
//	go run ./bench [-seed 1] [-seconds 15] [-workload name] [-trace 0|1] [-runs N]
//	go run ./bench compare old.json new.json
//
// Without -workload the whole suite runs, each workload untraced then traced,
// and bench/out/result.json records every run. With -workload and -trace the
// last line of standard output is one JSON object — correct, attempted,
// failed, metrics — for BENCHMARK.json's driver.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(root, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed; the program under test only sees inputs generated from it")
	seconds := fs.Float64("seconds", 15, "length of the measurement window of each run")
	only := fs.String("workload", "", "run this workload only (default: all six)")
	trace := fs.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), -1: both")
	runs := fs.Int("runs", 1, "repeat the selection this many times and print median and quartiles")
	corrupt := fs.Bool("corrupt", false, "flip a bit of every expected read checksum: the run must then fail, which shows the checks are live")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *only != "" {
		names = []string{*only}
	}
	var modes []bool
	switch *trace {
	case -1:
		modes = []bool{false, true}
	case 0, 1:
		modes = []bool{*trace == 1}
	default:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}

	e := env{root: root, seed: *seed}
	if *corrupt {
		e.flip = 1
	}
	cfg := runConfig{seconds: *seconds, setupFor: defaultSetupFor}
	doc := resultDoc{Env: environment(root, *seed, *seconds)}
	failed := false
	for r := 0; r < *runs; r++ {
		for _, name := range names {
			for _, traced := range modes {
				rec, err := runWorkload(ctx, name, e, cfg, traced)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				printRecord(stdout, rec)
				if !rec.Correct {
					fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %s\n", name, rec.Failed, rec.Attempted, rec.Error)
					failed = true
				}
				doc.Runs = append(doc.Runs, rec)
			}
		}
	}
	if *runs > 1 {
		printSpread(stdout, doc.Runs)
	}
	if err := writeJSON(filepath.Join(e.outDir(), "result.json"), doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(doc.Runs) == 1 {
		rec := doc.Runs[0]
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed || ctx.Err() != nil {
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: `go run ./bench` starts there, `go test ./bench` one level below.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// resultDoc is bench/out/result.json.
type resultDoc struct {
	Env  runEnv    `json:"env"`
	Runs []*record `json:"runs"`
}

// runEnv records where the numbers were taken — what cmd/benchjson drops.
type runEnv struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

func environment(root string, seed int64, seconds float64) runEnv {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return runEnv{
		Seed: seed, Seconds: seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func writeJSON(path string, doc any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printRecord prints every metric of the run by name, with its unit.
func printRecord(w io.Writer, rec *record) {
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d\n", rec.Workload, mode, rec.Attempted, rec.Failed)
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		if n, ok := rec.Samples[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %-6s (n=%d)\n", d.Name, v.Value, v.Unit, n)
		} else {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// printSpread prints median and quartiles per workload and metric over the
// repeated runs, and the quartile distance as a share of the median — the
// spread the driver holds against each end-to-end bound.
func printSpread(w io.Writer, runs []*record) {
	type key struct {
		workload, metric string
	}
	vals := map[key][]float64{}
	var order []key
	for _, rec := range runs {
		for name, v := range rec.Metrics {
			k := key{rec.Workload, name}
			if _, ok := vals[k]; !ok {
				order = append(order, k)
			}
			vals[k] = append(vals[k], v.Value)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].metric < order[j].metric
	})
	fmt.Fprintf(w, "== spread over %d runs\n", len(vals[order[0]]))
	fmt.Fprintf(w, "  %-16s %-32s %14s %14s %14s %8s\n", "workload", "metric", "q1", "median", "q3", "iqr/med")
	for _, k := range order {
		q1, med, q3 := quartiles(vals[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "  %-16s %-32s %14.4f %14.4f %14.4f %8.4f\n", k.workload, k.metric, q1, med, q3, spread)
	}
}
