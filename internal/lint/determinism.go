package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// deterministicPkgs are the packages whose outputs must be
// byte-identical run-to-run and across worker counts: everything on
// the figure/evaluation path. Matched by import-path suffix so the
// rule also applies under fixture modules.
var deterministicPkgs = []string{
	"internal/core",
	"internal/experiments",
	"internal/fleet",
	"internal/featsel",
	"internal/regress",
	"internal/stats",
}

func isDeterministicPkg(importPath string) bool {
	for _, p := range deterministicPkgs {
		if importPathIs(importPath, p) {
			return true
		}
	}
	return false
}

// newDeterminism builds the determinism analyzer. In deterministic
// packages it forbids:
//
//   - time.Now — wall-clock reads make outputs differ run to run.
//     Stage timing belongs to trace spans, which read the clock inside
//     internal/obs/trace; a deliberate measurement (the timing
//     experiment's table) carries a //lint:allow directive.
//   - importing math/rand or math/rand/v2 — all randomness must flow
//     through internal/randx so streams are seeded and splittable.
//   - capturing a *randx.RNG inside a closure handed to
//     internal/parallel — a shared generator drawn from concurrently
//     makes results depend on goroutine scheduling. Derive per-job
//     generators with RNG.Split before the fan-out and index into them.
func newDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock, raw math/rand and shared-RNG capture in deterministic packages",
	}
	a.Run = func(pkg *Package) []Diagnostic {
		if !isDeterministicPkg(pkg.ImportPath) {
			return nil
		}
		var diags []Diagnostic
		report := func(n ast.Node, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:     pkg.Fset.Position(n.Pos()),
				Rule:    a.Name,
				Message: fmt.Sprintf(format, args...),
			})
		}
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if path == "math/rand" || path == "math/rand/v2" {
					report(spec, "deterministic package imports %s; draw randomness from internal/randx instead", path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeFunc(pkg.Info, call)
				if isPkgFunc(obj, "time", "Now") {
					report(call, "time.Now in deterministic package; outputs must not depend on wall-clock")
				}
				if obj != nil && obj.Type().(*types.Signature).Recv() == nil && pathIs(obj.Pkg(), "internal/parallel") {
					checkFanOut(pkg, call, report)
				}
				return true
			})
		}
		return diags
	}
	return a
}

// checkFanOut flags closures passed to internal/parallel functions
// that reference a *randx.RNG declared outside the closure.
func checkFanOut(pkg *Package, call *ast.CallExpr, report func(ast.Node, string, ...any)) {
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		seen := map[types.Object]bool{}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pkg.Info.Uses[id].(*types.Var)
			if !ok || seen[obj] {
				return true
			}
			if !isNamedType(obj.Type(), "internal/randx", "RNG") {
				return true
			}
			// Declared inside the closure (per-job Split result) is fine.
			if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
				return true
			}
			seen[obj] = true
			report(id, "worker closure captures shared *randx.RNG %q; Split per-job generators before the fan-out", id.Name)
			return true
		})
	}
}
