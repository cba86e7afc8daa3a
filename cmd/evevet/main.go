// Command evevet is the repository's invariant linter: one entry point
// running the internal/analysis suite — versionmut, cowcheck, ctxflow,
// errlink, doccheck — over every package of the module, tests included. Each analyzer encodes an engine invariant that a past PR's bug
// made explicit (see internal/analysis/doc.go for the mapping); findings
// print as
//
//	path/file.go:line:col: analyzer: message
//
// and any finding fails the run (exit 1; exit 2 on load errors), so
// `make lint` / `make ci` stop before tests ever run. Use -run to select a
// comma-separated subset of analyzers, and -list to print the suite.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	all := analysis.Analyzers()
	if *listFlag {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := selectAnalyzers(all, *runFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evevet:", err)
		os.Exit(2)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "evevet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "evevet:", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(loader.Fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evevet:", err)
		os.Exit(2)
	}
	if len(findings) == 0 {
		return
	}
	cwd, _ := os.Getwd()
	for _, f := range findings {
		fmt.Println(f.Relative(cwd))
	}
	fmt.Printf("evevet: %d finding(s)\n", len(findings))
	os.Exit(1)
}

// selectAnalyzers resolves the -run flag against the suite.
func selectAnalyzers(all []*analysis.Analyzer, runFlag string) ([]*analysis.Analyzer, error) {
	if runFlag == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runFlag, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
