package lint

import (
	"fmt"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// analyzerByName returns a fresh instance so cross-package state
// (metricnames) never leaks between test cases.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

// expectation is one parsed "// want <rule> "substring"" comment.
type expectation struct {
	file string
	line int
	rule string
	sub  string
}

var wantRE = regexp.MustCompile(`(\w+) "([^"]*)"`)

// parseWants extracts expectations from trailing "// want" comments.
// The expectation's line is the comment's line, so wants annotate the
// flagged line itself.
func parseWants(pkg *Package) []expectation {
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					wants = append(wants, expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						rule: m[1],
						sub:  m[2],
					})
				}
			}
		}
	}
	return wants
}

// checkFixture loads dir as importPath, runs the named analyzer
// through the full Check pipeline (so //lint:allow handling is
// exercised too), and diffs diagnostics against want comments.
func checkFixture(t *testing.T, dir, importPath, rule string) {
	t.Helper()
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	diags := Check(pkg, []*Analyzer{analyzerByName(t, rule)})
	wants := parseWants(pkg)

	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if matched[i] || w.rule != d.Rule || w.line != d.Pos.Line || filepath.Base(d.Pos.Filename) != w.file {
				continue
			}
			if !strings.Contains(d.Message, w.sub) {
				t.Errorf("%s: rule %s fired at the wanted line but message %q lacks %q", d.Pos, d.Rule, d.Message, w.sub)
			}
			matched[i] = true
			continue outer
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: want %s %q, but the analyzer stayed silent", w.file, w.line, w.rule, w.sub)
		}
	}
}

func TestAnalyzersAgainstFixtures(t *testing.T) {
	cases := []struct {
		rule       string
		dir        string
		importPath string
	}{
		// determinism only polices the deterministic package set, so the
		// fixture borrows a deterministic import path.
		{"determinism", "testdata/determinism", "vup/internal/experiments"},
		{"floatsafety", "testdata/floatsafety", "vup/fixture/floatsafety"},
		{"errdiscipline", "testdata/errdiscipline", "vup/fixture/errdiscipline"},
		{"metricnames", "testdata/metricnames", "vup/fixture/metricnames"},
		{"printhygiene", "testdata/printhygiene", "vup/fixture/printhygiene"},
		// pinleak matches on the server.Store receiver and the ctxwait
		// scope is internal/server, so those fixtures borrow its path.
		{"pinleak", "testdata/pinleak", "vup/internal/server"},
		{"lockhold", "testdata/lockhold", "vup/fixture/lockhold"},
		{"ctxwait", "testdata/ctxwait", "vup/internal/server"},
		{"deferinloop", "testdata/deferinloop", "vup/fixture/deferinloop"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			t.Parallel()
			checkFixture(t, tc.dir, tc.importPath, tc.rule)
		})
	}
}

// TestScopeExemptions proves the rules go quiet where they are
// documented to: determinism outside its package set, printhygiene in
// main packages and textplot.
func TestScopeExemptions(t *testing.T) {
	cases := []struct {
		name       string
		rule       string
		dir        string
		importPath string
	}{
		{"determinism-elsewhere", "determinism", "testdata/determinism", "vup/internal/server"},
		{"printhygiene-main", "printhygiene", "testdata/printmain", "vup/cmd/demo"},
		{"printhygiene-textplot", "printhygiene", "testdata/printhygiene", "vup/internal/textplot"},
		// A worker-pool channel in internal/parallel has no request ctx
		// to honor, so the same waits are fine there.
		{"ctxwait-elsewhere", "ctxwait", "testdata/ctxwait", "vup/internal/parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pkg, err := LoadDir(tc.dir, tc.importPath)
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			var diags []Diagnostic
			for _, d := range Check(pkg, []*Analyzer{analyzerByName(t, tc.rule)}) {
				if d.Rule == tc.rule { // ignore now-unused //lint:allow reports
					diags = append(diags, d)
				}
			}
			if len(diags) != 0 {
				t.Fatalf("rule %s should be exempt for %s, got %v", tc.rule, tc.importPath, diags)
			}
		})
	}
}

// TestDirectives pins the //lint:allow machinery: malformed directives
// are reported and do not suppress, justified ones suppress, and dead
// ones are flagged.
func TestDirectives(t *testing.T) {
	pkg, err := LoadDir("testdata/directives", "vup/fixture/directives")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := Check(pkg, All())
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Rule))
	}
	want := []string{
		"12:errdiscipline", // malformed directive does not suppress
		"12:directive",     // ...and is itself reported
		"19:directive",     // dead directive
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("directive handling mismatch:\n got %v\nwant %v", got, want)
	}
	for _, d := range diags {
		if d.Pos.Line == 19 && !strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("dead directive message = %q", d.Message)
		}
		if d.Pos.Line == 12 && d.Rule == DirectiveRule && !strings.Contains(d.Message, "malformed") {
			t.Errorf("malformed directive message = %q", d.Message)
		}
	}
}

// TestFlowDirectives is TestDirectives for the flow rules: every new
// analyzer honors a justified //lint:allow, a reasonless one is
// malformed and suppresses nothing, and a dead one is reported.
func TestFlowDirectives(t *testing.T) {
	pkg, err := LoadDir("testdata/flowdirectives", "vup/internal/server")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := Check(pkg, All())
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Rule))
	}
	want := []string{
		"60:ctxwait",   // reasonless directive does not suppress
		"60:directive", // ...and is itself reported as malformed
		"63:directive", // dead directive over a clean function
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flow directive handling mismatch:\n got %v\nwant %v", got, want)
	}
	for _, d := range diags {
		if d.Pos.Line == 63 && !strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("dead directive message = %q", d.Message)
		}
		if d.Pos.Line == 60 && d.Rule == DirectiveRule && !strings.Contains(d.Message, "malformed") {
			t.Errorf("malformed directive message = %q", d.Message)
		}
	}
}

// TestRepoIsClean is the in-process version of the CI gate: the whole
// module must lint clean. Running it here keeps `go test ./...` and
// the vup-lint binary in agreement.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("Load returned %d packages; expected the whole module", len(pkgs))
	}
	analyzers := All()
	for _, pkg := range pkgs {
		for _, d := range Check(pkg, analyzers) {
			t.Errorf("%s", d)
		}
	}
}

// TestRepoBlockingMethodsExist keeps lockhold's repository method
// tables honest: every listed name must be a method of its receiver
// type. A method that no longer exists matches no call, so a rename
// would otherwise switch the rule off for it without any failure.
func TestRepoBlockingMethodsExist(t *testing.T) {
	pkgs, err := Load("../..", "./internal/fstore", "./internal/server")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, r := range repoBlockingMethods {
		var obj types.Object
		for _, pkg := range pkgs {
			if pathIs(pkg.Pkg, r.pkg) {
				obj = pkg.Pkg.Scope().Lookup(r.typ)
			}
		}
		if obj == nil {
			t.Errorf("type %s.%s not found", r.pkg, r.typ)
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(obj.Type()))
		for _, m := range r.methods {
			if mset.Lookup(obj.Pkg(), m) == nil {
				t.Errorf("%s.%s has no method %s", r.pkg, r.typ, m)
			}
		}
	}
}
