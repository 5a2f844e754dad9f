package analysis

// The fixture harness: each analyzer has a package under
// testdata/src/<name>/ whose files mark every expected finding with a
// trailing expectation comment,
//
//	code() // want "regexp matched against the message"
//	code() // want `regexp with "quotes" inside`
//
// runFixture loads the package (through the same loader lbvet uses,
// suppressions included), runs one analyzer, and diffs the reported
// diagnostics against the expectations line by line.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared across tests: the GOROOT source typecheck is
// the expensive part and the loader caches it.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader("../..")
})

// wantRe matches `// want "..."` and `// want `...“ expectation
// comments.
var wantRe = regexp.MustCompile("^// want (\"(.*)\"|`(.*)`)$")

type expectation struct {
	re  *regexp.Regexp
	hit bool
}

func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatalf("no packages in %s", dir)
	}
	known := map[string]bool{}
	for _, an := range Analyzers() {
		known[an.Name] = true
	}
	mod := BuildModule(units)
	var diags []Diagnostic
	ignores := map[string][]ignoreDirective{}
	expected := map[string]map[int]*expectation{} // file -> line -> want
	for _, u := range units {
		if err := runAnalyzer(a, u, mod, &diags); err != nil {
			t.Fatal(err)
		}
		for _, f := range u.Files {
			name := u.Fset.Position(f.Pos()).Filename
			ignores[name] = append(ignores[name], parseIgnores(u.Fset, f, known, &diags)...)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pattern := m[2]
					if m[3] != "" {
						pattern = m[3]
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", u.Fset.Position(c.Pos()), pattern, err)
					}
					if expected[name] == nil {
						expected[name] = map[int]*expectation{}
					}
					expected[name][u.Fset.Position(c.Pos()).Line] = &expectation{re: re}
				}
			}
		}
	}
	diags, _ = applyIgnores(diags, ignores, loader.Fset)
	for _, d := range diags {
		want := expected[d.Pos.Filename][d.Pos.Line]
		if want == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !want.re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", d.Pos, d.Message, want.re)
			continue
		}
		want.hit = true
	}
	for file, lines := range expected {
		for line, want := range lines {
			if !want.hit {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(file), line, want.re)
			}
		}
	}
}

func TestNoDeterminism(t *testing.T) { runFixture(t, NoDeterminism, "testdata/src/nodeterminism") }
func TestSharedRand(t *testing.T)    { runFixture(t, SharedRand, "testdata/src/sharedrand") }
func TestFloatCmp(t *testing.T)      { runFixture(t, FloatCmp, "testdata/src/floatcmp") }
func TestErrCheck(t *testing.T)      { runFixture(t, ErrCheck, "testdata/src/errcheck") }
func TestParallelSub(t *testing.T)   { runFixture(t, ParallelSub, "testdata/src/parallelsub") }
func TestObsDefault(t *testing.T)    { runFixture(t, ObsDefault, "testdata/src/obsdefault") }
func TestAllocFree(t *testing.T)     { runFixture(t, AllocFree, "testdata/src/allocfree") }
func TestDrawDiscipline(t *testing.T) {
	runFixture(t, DrawDiscipline, "testdata/src/drawdiscipline")
}
func TestLeakCheck(t *testing.T) { runFixture(t, LeakCheck, "testdata/src/leakcheck") }

// TestVetRepoClean is the lbvet self-check: the committed tree must
// stay free of findings, so reintroducing any violation fails CI both
// through the lbvet job and through this test.
func TestVetRepoClean(t *testing.T) {
	res, err := Vet("../..", []string{"./..."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if res.Packages == 0 || res.Files == 0 {
		t.Fatalf("vet analyzed nothing (packages=%d files=%d)", res.Packages, res.Files)
	}
}

// BenchmarkVetFullTree times one lbvet run over the whole repository,
// so the analyzer's cost stays visible as the tree grows: parsing and
// type-checking from source is only acceptable while it stays cheap
// next to `go test`.
func BenchmarkVetFullTree(b *testing.B) {
	var res VetResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Vet("../..", []string{"./..."}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Packages), "packages")
	b.ReportMetric(float64(res.Files), "files")
}

// TestIgnoreDirectives covers the suppression contract itself:
// malformed directives, unknown analyzers, and stale suppressions are
// findings in their own right.
func TestIgnoreDirectives(t *testing.T) {
	dir := t.TempDir()
	src := `package ignorefix

func zero(x float64) bool {
	//lint:ignore floatcmp
	bad := x == x+1
	//lint:ignore nosuchanalyzer the name is wrong
	alsoBad := x == x+2
	//lint:ignore floatcmp this one is fine
	ok := x == x+3
	//lint:ignore floatcmp suppresses nothing two lines down

	stale := x == x+4
	return bad && alsoBad && ok && stale
}
`
	if err := os.WriteFile(filepath.Join(dir, "ignorefix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"floatcmp": true}
	var diags []Diagnostic
	ignores := map[string][]ignoreDirective{}
	for _, u := range units {
		if err := runAnalyzer(FloatCmp, u, nil, &diags); err != nil {
			t.Fatal(err)
		}
		for _, f := range u.Files {
			name := u.Fset.Position(f.Pos()).Filename
			ignores[name] = append(ignores[name], parseIgnores(u.Fset, f, known, &diags)...)
		}
	}
	diags, _ = applyIgnores(diags, ignores, loader.Fset)
	sortDiagnostics(diags)
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	floatDiag := "floatcmp: floating-point == comparison; use numeric.AlmostEqual or justify exactness with //lint:ignore floatcmp"
	want := []string{
		"lbvet: malformed directive: want //lint:ignore <analyzer> <reason>",
		floatDiag, // a malformed directive suppresses nothing
		"lbvet: lint:ignore names unknown analyzer \"nosuchanalyzer\"",
		floatDiag, // an unknown-analyzer directive suppresses nothing
		"lbvet: lint:ignore floatcmp at ignorefix.go:10 suppresses nothing on this or the next line",
		floatDiag, // the stale directive sits two lines up, out of range
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}
