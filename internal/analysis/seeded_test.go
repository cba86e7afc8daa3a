package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSeededViolations replays one known-bad file per analyzer, each
// modeled on the historical bug its analyzer exists to prevent (the PR 8
// in-place landing, the PR 5 %v flattening, the PR 4 cancellation
// severing, the ISSUE 2 doc contract). Every seeded file is
// copied next to its base fixture package in a scratch tree — simulating
// the bad change landing in the real package — and the test asserts the
// exact position and message of every diagnostic the file draws, so a
// regression in either the detector or its wording fails loudly.
func TestSeededViolations(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		seed     string   // file under testdata/seeded, copied as seeded.go
		rel      string   // fixture package the seeded file joins
		deps     []string // sibling fixture packages the package imports
		want     []string // exact findings in seeded.go, in RunAnalyzers order
	}{
		{
			analyzer: VersionMut,
			seed:     "versionmut.go",
			rel:      "versionmut/warehouse",
			want: []string{
				"seeded.go:8:2: versionmut: write through published warehouse.Version outside its constructor publish; published versions are immutable",
				"seeded.go:9:2: versionmut: Insert on relation reached from published warehouse.VersionView outside its constructor publish; published versions are immutable",
			},
		},
		{
			analyzer: CowCheck,
			seed:     "cowcheck.go",
			rel:      "cowcheck/maintain",
			deps:     []string{"relation"},
			want: []string{
				"seeded.go:9:2: cowcheck: Insert on a relation reachable from a published space; land changes copy-on-write (WithDelta/ReplaceRelation)",
			},
		},
		{
			analyzer: CtxFlow,
			seed:     "ctxflow.go",
			rel:      "ctxflow/plan",
			deps:     []string{"relation"},
			want: []string{
				"seeded.go:8:9: ctxflow: context.Background() in library code severs cancellation; thread the caller's ctx instead",
			},
		},
		{
			analyzer: ErrLink,
			seed:     "errlink.go",
			rel:      "errlink/a",
			want: []string{
				"seeded.go:8:40: errlink: fmt.Errorf wraps an error operand with %v; use %w so errors.Is/As keep matching",
				"seeded.go:13:9: errlink: comparison against sentinel ErrNotFound misses wrapped errors; use errors.Is",
			},
		},
		{
			analyzer: DocCheck,
			seed:     "doccheck.go",
			rel:      "doccheck/good",
			want: []string{
				"seeded.go:3:1: doccheck: exported function Gadget should have a doc comment",
			},
		},
	}

	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	testdata := filepath.Join(l.ModRoot(), "internal", "analysis", "testdata")
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			root := t.TempDir()
			for _, rel := range append([]string{tc.rel}, tc.deps...) {
				copyFixtureDir(t, filepath.Join(testdata, "src", rel), filepath.Join(root, rel))
			}
			seed, err := os.ReadFile(filepath.Join(testdata, "seeded", tc.seed))
			if err != nil {
				t.Fatalf("read seed: %v", err)
			}
			pkgDir := filepath.Join(root, filepath.FromSlash(tc.rel))
			if err := os.WriteFile(filepath.Join(pkgDir, "seeded.go"), seed, 0o644); err != nil {
				t.Fatalf("write seed: %v", err)
			}
			pkg, err := l.LoadFixture(root, tc.rel)
			if err != nil {
				t.Fatalf("load seeded fixture %s: %v", tc.rel, err)
			}
			findings, err := RunAnalyzers(l.Fset, []*Package{pkg}, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatalf("run %s: %v", tc.analyzer.Name, err)
			}
			var got []string
			for _, f := range findings {
				if filepath.Base(f.Pos.Filename) == "seeded.go" {
					got = append(got, f.Relative(pkgDir))
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("seeded %s: got %d findings in seeded.go, want %d:\ngot  %q\nwant %q",
					tc.analyzer.Name, len(got), len(tc.want), got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("seeded %s finding %d:\ngot  %s\nwant %s", tc.analyzer.Name, i, got[i], tc.want[i])
				}
			}
		})
	}
}

// copyFixtureDir copies the .go files of one fixture package directory
// (non-recursively; fixture packages have no subdirectories) into dst.
func copyFixtureDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read fixture dir %s: %v", src, err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
