package lint

// pinleak: paired-resource dataflow. (*server.Store).Acquire hands out
// a pin whose release func must run on every path out of the caller —
// a leaked pin silently defeats -resident-budget eviction, because the
// pinned dataset can never be reclaimed. trace.Start/StartTrace spans
// have the same must-pair shape (a span that is never ended vanishes
// from its trace), so the one engine checks both.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// obligation is one acquired resource tracked through the CFG.
type obligation struct {
	bit    uint64
	assign *ast.AssignStmt // the creating statement (transfer keys on it)
	call   *ast.CallExpr   // the creating call (diagnostic position)
	what   string          // "release func" / "span"
	from   string          // rendered creator, e.g. `s.Acquire`
	res    types.Object    // the release func / span variable
	errv   types.Object    // the paired error result, nil for spans
}

func newPinLeak() *Analyzer {
	a := &Analyzer{
		Name: "pinleak",
		Doc:  "an Acquire release func or trace span must reach its release/End on every path",
	}
	a.Run = func(pkg *Package) []Diagnostic {
		var diags []Diagnostic
		for _, f := range pkg.Files {
			for _, body := range funcUnits(f) {
				diags = append(diags, pinleakUnit(pkg, a.Name, body)...)
			}
		}
		return diags
	}
	return a
}

// pinleakUnit analyzes one function body.
func pinleakUnit(pkg *Package, rule string, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	lits := nestedFuncLits(body)

	// Pass 1: find obligation-creating assignments at this unit's own
	// nesting level.
	var obls []*obligation
	shallowStmts(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		what, resIdx, errIdx := pinSource(pkg.Info, call, len(as.Lhs))
		if what == "" || len(obls) >= 64 {
			return true
		}
		o := &obligation{
			bit:    1 << uint(len(obls)),
			assign: as,
			call:   call,
			what:   what,
			from:   exprString(call.Fun),
		}
		if id, ok := as.Lhs[resIdx].(*ast.Ident); ok && id.Name != "_" {
			o.res = objectOf(pkg.Info, id)
		}
		if errIdx >= 0 {
			if id, ok := as.Lhs[errIdx].(*ast.Ident); ok && id.Name != "_" {
				o.errv = objectOf(pkg.Info, id)
			}
		}
		if o.res == nil {
			// The handle is discarded outright: nothing can ever pair
			// it. Report immediately; no flow needed.
			diags = append(diags, Diagnostic{
				Pos:     pkg.Fset.Position(call.Pos()),
				Rule:    rule,
				Message: fmt.Sprintf("the %s returned by %s is discarded; it must be called on every path", what, o.from),
			})
			return true
		}
		obls = append(obls, o)
		return true
	})
	if len(obls) == 0 {
		return diags
	}

	// Pass 2: classify every use of each resource. A use inside a
	// nested function literal, or one that is not a direct call /
	// End() / nil-comparison / reassignment, makes the handle escape —
	// some other code is responsible for it, so the obligation is
	// dropped (conservative, like go vet's lostcancel).
	discharge := map[*ast.CallExpr]uint64{}
	escaped := map[*obligation]bool{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := objectOf(pkg.Info, id); obj != nil {
				for _, o := range obls {
					if o.res == obj {
						cls, call := classifyUse(id, stack)
						switch cls {
						case useDischarge:
							if posInLits(lits, id.Pos()) {
								escaped[o] = true // released by a closure, not this unit
							} else {
								discharge[call] |= o.bit
							}
						case useNeutral:
						default:
							escaped[o] = true
						}
					}
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	live := obls[:0]
	for _, o := range obls {
		if !escaped[o] {
			live = append(live, o)
		}
	}
	obls = live
	if len(obls) == 0 {
		return diags
	}

	create := map[ast.Node]uint64{}
	for _, o := range obls {
		create[o.assign] |= o.bit
	}

	fa := flowAnalysis{
		transfer: func(st uint64, n ast.Node) uint64 {
			st |= create[n]
			inspectShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					st &^= discharge[call]
				}
				return true
			})
			return st
		},
		refine: func(st uint64, cond ast.Expr, taken bool) uint64 {
			for _, o := range obls {
				if st&o.bit == 0 {
					continue
				}
				// "if err != nil { return err }": on the branch where err
				// is proven non-nil the creator returned a nil handle, so
				// there is nothing to release. Same for a branch proving
				// the handle itself nil.
				if o.errv != nil && nilCheckProves(pkg.Info, cond, taken, o.errv, false) {
					st &^= o.bit
				}
				if nilCheckProves(pkg.Info, cond, taken, o.res, true) {
					st &^= o.bit
				}
			}
			return st
		},
	}

	g := buildCFG(pkg.Info, body)
	in := fixpoint(g, fa)
	leaked := map[*obligation]token.Pos{}
	replay(g, in, fa, nil, func(st uint64, blk *cfgBlock) {
		for _, o := range obls {
			if st&o.bit == 0 {
				continue
			}
			pos := g.end
			if blk.ret != nil {
				pos = blk.ret.Pos()
			}
			if old, ok := leaked[o]; !ok || pos < old {
				leaked[o] = pos
			}
		}
	})
	for _, o := range obls {
		pos, ok := leaked[o]
		if !ok {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:  pkg.Fset.Position(o.call.Pos()),
			Rule: rule,
			Message: fmt.Sprintf("the %s returned by %s is not called on every path: it leaks at the function exit on line %d",
				o.what, o.from, pkg.Fset.Position(pos).Line),
		})
	}
	return diags
}

// pinSource recognizes obligation-creating calls and returns what is
// acquired plus the result indexes of the handle and its paired error
// (-1 when the call has no error result). nLhs guards against
// malformed assignment shapes.
func pinSource(info *types.Info, call *ast.CallExpr, nLhs int) (what string, resIdx, errIdx int) {
	obj := calleeFunc(info, call)
	if obj == nil {
		return "", 0, -1
	}
	switch {
	case obj.Name() == "Acquire" && recvIsNamed(obj, "internal/server", "Store"):
		// (d, fp, gen, release, err) — find the func() and error slots
		// from the signature so fixture Stores with fewer results work.
		sig := obj.Type().(*types.Signature)
		resIdx, errIdx = -1, -1
		for i := 0; i < sig.Results().Len() && i < nLhs; i++ {
			t := sig.Results().At(i).Type()
			if s, ok := t.Underlying().(*types.Signature); ok && s.Params().Len() == 0 && s.Results().Len() == 0 {
				resIdx = i
			}
			if isErrorType(t) {
				errIdx = i
			}
		}
		if resIdx < 0 {
			return "", 0, -1
		}
		return "release func", resIdx, errIdx
	case isPkgFunc(obj, "obs/trace", "Start"):
		// (ctx, *Span)
		if nLhs != 2 {
			return "", 0, -1
		}
		return "span", 1, -1
	case obj.Name() == "StartTrace" && recvIsNamed(obj, "obs/trace", "Collector"):
		if nLhs != 2 {
			return "", 0, -1
		}
		return "span", 1, -1
	}
	return "", 0, -1
}

// use classifications for a resource identifier.
type useClass int

const (
	useEscape useClass = iota
	useNeutral
	useDischarge
)

// classifyUse decides what one occurrence of the resource ident means.
// stack holds the ancestors of id, innermost last.
func classifyUse(id *ast.Ident, stack []ast.Node) (useClass, *ast.CallExpr) {
	parent := innermostNonParen(stack)
	switch p := parent.(type) {
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == id {
			return useDischarge, p // release()
		}
	case *ast.SelectorExpr:
		if ast.Unparen(p.X) != id {
			break
		}
		// A span method: End pairs the obligation, the other methods
		// (SetAttr, SetError, TraceID, ...) are neutral reads.
		if call, ok := grandparentCall(stack, p); ok {
			if p.Sel.Name == "End" {
				return useDischarge, call
			}
			return useNeutral, nil
		}
	case *ast.BinaryExpr:
		// handle == nil / handle != nil guards; the branch refinement
		// handles the semantics.
		if (p.Op == token.EQL || p.Op == token.NEQ) && (isNilIdent(p.X) || isNilIdent(p.Y)) {
			return useNeutral, nil
		}
	case *ast.AssignStmt:
		// Reassignment of the handle variable: the old obligation can
		// no longer be discharged through it, but the leak (if any)
		// still surfaces at the exits, so the occurrence is neutral.
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == id {
				return useNeutral, nil
			}
		}
	}
	return useEscape, nil
}

// innermostNonParen returns the nearest ancestor that is not a
// ParenExpr.
func innermostNonParen(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			return stack[i]
		}
	}
	return nil
}

// grandparentCall reports whether sel is the callee of a CallExpr in
// stack (i.e. the occurrence is a method call, not a method value).
func grandparentCall(stack []ast.Node, sel *ast.SelectorExpr) (*ast.CallExpr, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ParenExpr, *ast.SelectorExpr:
			continue
		case *ast.CallExpr:
			if ast.Unparen(n.Fun) == sel {
				return n, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}

// nilCheckProves reports whether cond having evaluated to taken proves
// obj's nilness: a comparison against nil is definitive on both of its
// branches, so (err != nil) taken proves err non-nil (wantNil=false —
// the failure path, where the creator returned no resource) and
// (sp == nil) not-taken proves sp non-nil likewise.
func nilCheckProves(info *types.Info, cond ast.Expr, taken bool, obj types.Object, wantNil bool) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || obj == nil {
		return false
	}
	var idSide ast.Expr
	switch {
	case isNilIdent(be.X):
		idSide = be.Y
	case isNilIdent(be.Y):
		idSide = be.X
	default:
		return false
	}
	id, ok := ast.Unparen(idSide).(*ast.Ident)
	if !ok || objectOf(info, id) != obj {
		return false
	}
	if be.Op != token.EQL && be.Op != token.NEQ {
		return false
	}
	provenNil := (be.Op == token.EQL) == taken
	return provenNil == wantNil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// objectOf resolves an identifier through either Defs or Uses.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// shallowStmts visits the statements of body that belong to this
// function unit — nested function literals are skipped.
func shallowStmts(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return f(n)
	})
}
