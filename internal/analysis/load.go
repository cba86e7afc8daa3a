package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one analysis unit: a package's parsed syntax with full type
// information. A directory yields up to two units — the library files
// augmented with in-package _test.go files, and (when present) the external
// _test package, whose import of its own package resolves to the augmented
// unit so export_test.go helpers are visible.
type Package struct {
	// Path is the unit's import path. External test units carry the
	// package-name suffix ("repro/internal/exec_test") so they never
	// satisfy a library-path scoping rule by accident.
	Path string
	// Dir is the directory the unit's files were read from.
	Dir string
	// Files is the unit's syntax, in deterministic (sorted-filename) order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
}

// Loader type-checks the module — and analysistest fixture packages — from
// source using only the standard library. Standard-library imports are
// satisfied from the gc export data that `go list -export` reports out of
// the build cache, so no network or third-party loader is needed; module
// and fixture imports are type-checked from source on demand and memoized.
//
// A Loader is not safe for concurrent use; callers (the evevet driver, the
// analysistest harness) serialize access.
type Loader struct {
	// Fset maps positions for every file the loader touches.
	Fset *token.FileSet

	modRoot string // directory containing go.mod
	modPath string // module path from go.mod

	exports     map[string]string // stdlib import path → export-data file
	libs        map[string]*libUnit
	fixtureRoot string // when set, unresolved imports are tried here first
	std         types.ImporterFrom
}

// libUnit memoizes the import-facing (non-test) type-check of one module or
// fixture package, including a failed one so errors surface once.
type libUnit struct {
	pkg *types.Package
	err error
}

// NewLoader discovers the enclosing module from dir (walking up to go.mod),
// indexes the standard library's export data with one `go list` run, and
// returns a loader ready to type-check the module from source.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		modRoot: root,
		modPath: modPath,
		exports: map[string]string{},
		libs:    map[string]*libUnit{},
	}
	if err := l.indexStdlib(); err != nil {
		return nil, err
	}
	l.std = importer.ForCompiler(l.Fset, "gc", l.lookup).(types.ImporterFrom)
	return l, nil
}

// ModRoot returns the module root directory the loader was anchored to.
func (l *Loader) ModRoot() string { return l.modRoot }

// findModule walks up from dir to the first go.mod and returns its
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for line := range strings.Lines(string(data)) {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// listJSON is the subset of `go list -json` output the loader consumes.
type listJSON struct {
	ImportPath string
	Export     string
	Standard   bool
}

// indexStdlib runs `go list -e -test -export -deps ./...` once and records
// the export-data file for every standard-library package the module (or
// its tests) can reach. Packages missing here are resolved lazily by
// stdlibExport.
func (l *Loader) indexStdlib() error {
	out, err := goList(l.modRoot, "-e", "-test", "-export", "-deps", "-json=ImportPath,Export,Standard", "./...")
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	for _, p := range out {
		if p.Standard && p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// goList runs `go list` in dir and decodes its stream of JSON objects.
func goList(dir string, args ...string) ([]listJSON, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, errBuf.String())
	}
	var out []listJSON
	dec := json.NewDecoder(strings.NewReader(string(stdout)))
	for dec.More() {
		var p listJSON
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// lookup feeds the gc importer the export data for one standard-library
// import path, consulting the index first and `go list` for stragglers.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		out, err := goList(l.modRoot, "-e", "-export", "-json=ImportPath,Export,Standard", path)
		if err != nil {
			return nil, fmt.Errorf("no export data for %q: %w", path, err)
		}
		if len(out) == 0 || out[0].Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		file = out[0].Export
		l.exports[path] = file
	}
	return os.Open(file)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module packages (and, under
// analysistest, fixture packages) type-check from source; everything else
// is standard library served from export data.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.sourceDir(path); ok {
		return l.libPackage(path, dir)
	}
	return l.std.Import(path)
}

// sourceDir maps an import path to the directory it should be type-checked
// from, when the path belongs to the module or the active fixture root.
func (l *Loader) sourceDir(path string) (string, bool) {
	if path == l.modPath {
		return l.modRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest)), true
	}
	if l.fixtureRoot != "" {
		dir := filepath.Join(l.fixtureRoot, filepath.FromSlash(path))
		if names, err := sourceFiles(dir, false); err == nil && len(names) > 0 {
			return dir, true
		}
	}
	return "", false
}

// libPackage returns the memoized import-facing type-check of the package
// at dir: its non-test files only, as an importing package would see it.
func (l *Loader) libPackage(path, dir string) (*types.Package, error) {
	if u, ok := l.libs[path]; ok {
		return u.pkg, u.err
	}
	// Reserve the slot first so an import cycle fails with a clear error
	// instead of unbounded recursion.
	l.libs[path] = &libUnit{err: fmt.Errorf("import cycle through %q", path)}
	files, err := l.parseDir(dir, false)
	if err == nil && len(files) == 0 {
		err = fmt.Errorf("no buildable Go files in %s", dir)
	}
	var pkg *types.Package
	if err == nil {
		pkg, _, err = l.checkFiles(path, files, l)
	}
	l.libs[path] = &libUnit{pkg: pkg, err: err}
	return pkg, err
}

// checkFiles type-checks files as one package with full types.Info.
func (l *Loader) checkFiles(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return pkg, info, nil
}

// sourceFiles lists the buildable .go files of dir in sorted order,
// honouring build constraints; test files are included only when withTests
// is set.
func sourceFiles(dir string, withTests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// parseDir parses dir's buildable files (tests included when withTests).
func (l *Loader) parseDir(dir string, withTests bool) ([]*ast.File, error) {
	names, err := sourceFiles(dir, withTests)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// selfImporter resolves an external test package's import of the package
// under test to the augmented (library + in-package tests) unit, so
// export_test.go helpers type-check; every other import falls through.
type selfImporter struct {
	*Loader
	selfPath string
	self     *types.Package
}

// ImportFrom implements types.ImporterFrom for the external-test unit.
func (s selfImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == s.selfPath {
		return s.self, nil
	}
	return s.Loader.ImportFrom(path, dir, mode)
}

// Import implements types.Importer for the external-test unit.
func (s selfImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// loadUnits type-checks the directory's analysis units: the augmented
// library unit and, when external _test files exist, a second unit for them.
func (l *Loader) loadUnits(path, dir string) ([]*Package, error) {
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	// Partition: the library package's files (including its in-package
	// tests) versus the external "_test" package's files.
	libName := ""
	for _, f := range files {
		if !strings.HasSuffix(l.Fset.Position(f.Pos()).Filename, "_test.go") {
			libName = f.Name.Name
			break
		}
	}
	if libName == "" { // test-only directory
		libName = strings.TrimSuffix(files[0].Name.Name, "_test")
	}
	var libFiles, xFiles []*ast.File
	for _, f := range files {
		if f.Name.Name == libName+"_test" {
			xFiles = append(xFiles, f)
		} else {
			libFiles = append(libFiles, f)
		}
	}
	var units []*Package
	var augmented *types.Package
	if len(libFiles) > 0 {
		pkg, info, err := l.checkFiles(path, libFiles, l)
		if err != nil {
			return nil, err
		}
		augmented = pkg
		units = append(units, &Package{Path: path, Dir: dir, Files: libFiles, Types: pkg, Info: info})
	}
	if len(xFiles) > 0 {
		imp := types.Importer(l)
		if augmented != nil {
			imp = selfImporter{Loader: l, selfPath: path, self: augmented}
		}
		xPath := path + "_test"
		pkg, info, err := l.checkFiles(xPath, xFiles, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{Path: xPath, Dir: dir, Files: xFiles, Types: pkg, Info: info})
	}
	return units, nil
}

// LoadModule type-checks every package under the module root — tests
// included — and returns the analysis units sorted by import path.
// Directories named "testdata" (analyzer fixtures) and hidden directories
// are skipped.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if names, err := sourceFiles(p, true); err == nil && len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var units []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		us, err := l.loadUnits(path, dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Path < units[j].Path })
	return units, nil
}

// LoadFixture type-checks the fixture package at root/rel (import path rel),
// letting its imports resolve against sibling fixture packages under root
// and then the module and standard library.
func (l *Loader) LoadFixture(root, rel string) (*Package, error) {
	prev := l.fixtureRoot
	l.fixtureRoot = root
	defer func() { l.fixtureRoot = prev }()
	dir := filepath.Join(root, filepath.FromSlash(rel))
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in fixture %s", dir)
	}
	pkg, info, err := l.checkFiles(rel, files, l)
	if err != nil {
		return nil, err
	}
	return &Package{Path: rel, Dir: dir, Files: files, Types: pkg, Info: info}, nil
}

// sharedLoader hands analysistest and the seeded-violation tests one module
// loader per test binary, so the `go list` index is built once.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})
