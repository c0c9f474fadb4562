package lint

// lockhold: no blocking operation while a sync.RWMutex is held. This
// is the PR 8 Store.Put incident as a rule — persist (a disk fsync)
// used to run under the store-wide s.mu, stalling every reader for the
// disk round-trip. The rule is scoped to RWMutex on purpose: in this
// codebase an RWMutex marks a read-serving lock whose holder stalls
// the whole fleet, while a plain sync.Mutex (fstore.Dir.mu, the
// per-vehicle writer locks) deliberately serializes writers around IO.
//
// Blocking is detected three ways: a known-blocking set (file IO,
// network, time.Sleep, the fstore/server persistence entry points),
// channel operations (send, receive, select without default), and
// calls through func values — an indirect call's behavior is unknown,
// and the incident itself was exactly `persist(d)` under s.mu.
// Same-package helpers are summarized transitively, so hiding the
// fsync one call deep does not hide it from the rule. Deferred calls
// are exempt: they run at function exit, where a deferred Unlock has
// its own ordering that a path-insensitive rule cannot judge.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

func newLockHold() *Analyzer {
	a := &Analyzer{
		Name: "lockhold",
		Doc:  "no blocking call (IO, network, channel op, indirect call) while a sync.RWMutex is held",
	}
	a.Run = func(pkg *Package) []Diagnostic {
		summaries := blockingSummaries(pkg)
		var diags []Diagnostic
		for _, f := range pkg.Files {
			for _, body := range funcUnits(f) {
				diags = append(diags, lockholdUnit(pkg, a.Name, body, summaries)...)
			}
		}
		return diags
	}
	return a
}

func lockholdUnit(pkg *Package, rule string, body *ast.BlockStmt, summaries map[*types.Func]bool) []Diagnostic {
	// Assign a bit to each distinct RWMutex expression locked in this
	// unit ("s.mu", "f.mu"), in order of first appearance.
	bits := map[string]uint64{}
	var names []string
	shallowStmts(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, locks, _ := rwmutexOp(pkg.Info, call); locks {
				if _, ok := bits[key]; !ok && len(names) < 64 {
					bits[key] = 1 << uint(len(names))
					names = append(names, key)
				}
			}
		}
		return true
	})
	if len(bits) == 0 {
		return nil
	}

	fa := flowAnalysis{
		transfer: func(st uint64, n ast.Node) uint64 {
			switch n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// Deferred/spawned work does not run here.
				return st
			}
			inspectShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if key, locks, unlocks := rwmutexOp(pkg.Info, call); locks {
						st |= bits[key]
					} else if unlocks {
						st &^= bits[key]
					}
				}
				return true
			})
			return st
		},
	}

	g := buildCFG(pkg.Info, body)
	in := fixpoint(g, fa)
	var diags []Diagnostic
	replay(g, in, fa, func(st uint64, n ast.Node) {
		if st == 0 {
			return
		}
		switch n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return
		}
		held := heldNames(names, bits, st)
		inspectShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if _, locks, unlocks := rwmutexOp(pkg.Info, call); locks || unlocks {
					return false
				}
			}
			desc := blockingDesc(pkg, m, summaries)
			if desc == "" {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:     pkg.Fset.Position(m.Pos()),
				Rule:    rule,
				Message: fmt.Sprintf("%s while holding %s; move it outside the lock region", desc, held),
			})
			// Don't also flag the blocking call's own arguments.
			return false
		})
	}, nil)
	return diags
}

func heldNames(names []string, bits map[string]uint64, st uint64) string {
	var held []string
	for _, name := range names {
		if st&bits[name] != 0 {
			held = append(held, name)
		}
	}
	return strings.Join(held, ", ")
}

// rwmutexOp recognizes Lock/RLock/Unlock/RUnlock calls on a
// sync.RWMutex and returns the receiver expression as the lock's
// identity ("s.mu").
func rwmutexOp(info *types.Info, call *ast.CallExpr) (key string, locks, unlocks bool) {
	obj := calleeFunc(info, call)
	if obj == nil || !recvIsNamed(obj, "sync", "RWMutex") {
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	key = exprString(sel.X)
	switch obj.Name() {
	case "Lock", "RLock":
		return key, true, false
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

// blockingDesc classifies one shallow node as blocking, returning a
// description for the diagnostic or "" when it is fine under a lock.
func blockingDesc(pkg *Package, n ast.Node, summaries map[*types.Func]bool) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return fmt.Sprintf("channel send to %s", exprString(n.Chan))
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return fmt.Sprintf("channel receive from %s", exprString(n.X))
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return "" // has a default: non-blocking poll
			}
		}
		return "blocking select"
	case *ast.CallExpr:
		return blockingCallDesc(pkg, n, summaries)
	}
	return ""
}

// blockingCallDesc classifies a call expression.
func blockingCallDesc(pkg *Package, call *ast.CallExpr, summaries map[*types.Func]bool) string {
	obj := calleeFunc(pkg.Info, call)
	if obj == nil {
		return indirectCallDesc(pkg, call)
	}
	if desc := knownBlockingFunc(obj); desc != "" {
		return desc
	}
	// Same-package helper whose body (transitively) blocks.
	if obj.Pkg() == pkg.Pkg && summaries[obj] {
		return fmt.Sprintf("call to %s, which blocks (IO/channel op in its body)", obj.Name())
	}
	return ""
}

// indirectCallDesc handles calls that resolve to no *types.Func: type
// conversions and builtins are fine, a call through a func value is an
// unknown and treated as blocking.
func indirectCallDesc(pkg *Package, call *ast.CallExpr) string {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return ""
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch objectOf(pkg.Info, id).(type) {
		case *types.Builtin, *types.TypeName, nil:
			return ""
		}
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return "" // immediately-invoked literal: its body is its own unit
	}
	t := pkg.Info.TypeOf(call.Fun)
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Signature); ok {
		return fmt.Sprintf("call through func value %s (unknown, may do IO)", exprString(call.Fun))
	}
	return ""
}

// repoBlockingMethods is the repository's own persistence/faulting
// surface: per receiver type, the methods that hit disk or may fault a
// vehicle in from it. TestRepoBlockingMethodsExist checks that every
// listed method still exists, so a rename cannot silently switch the
// rule off for it.
var repoBlockingMethods = []struct {
	pkg, typ string
	desc     string // format with the method name
	methods  []string
}{
	{"internal/fstore", "Dir", "store IO (fstore.Dir.%s, hits disk)",
		[]string{"Save", "SaveVehicle", "Append", "Load", "LoadVehicle", "MaybeCompact", "Close"}},
	{"internal/server", "Store", "store access (server.Store.%s, may fault from disk)",
		[]string{"Put", "AppendContext", "Acquire", "Get"}},
}

// knownBlockingFunc is the cross-package known-blocking set: stdlib IO
// and the repository's own persistence/faulting entry points.
func knownBlockingFunc(obj *types.Func) string {
	name := obj.Name()
	switch {
	case recvIsNamed(obj, "os", "File"):
		switch name {
		case "Write", "WriteString", "WriteAt", "Read", "ReadAt", "ReadFrom",
			"Sync", "Close", "Truncate", "Seek":
			return fmt.Sprintf("file IO (os.File.%s)", name)
		}
	case recvIsNamed(obj, "net/http", "Client"):
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head":
			return fmt.Sprintf("network IO (http.Client.%s)", name)
		}
	case recvIsNamed(obj, "sync", "WaitGroup") && name == "Wait":
		return "sync.WaitGroup.Wait"
	}
	for _, r := range repoBlockingMethods {
		if recvIsNamed(obj, r.pkg, r.typ) && slices.Contains(r.methods, name) {
			return fmt.Sprintf(r.desc, name)
		}
	}
	if obj.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch {
	case pathIs(obj.Pkg(), "os"):
		switch name {
		case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
			"Rename", "Remove", "RemoveAll", "Mkdir", "MkdirAll", "MkdirTemp",
			"ReadDir", "Stat", "Lstat", "Truncate", "Chtimes":
			return fmt.Sprintf("file IO (os.%s)", name)
		}
	case pathIs(obj.Pkg(), "io"):
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull":
			return fmt.Sprintf("io.%s on an unknown reader/writer", name)
		}
	case pathIs(obj.Pkg(), "time") && name == "Sleep":
		return "time.Sleep"
	case pathIs(obj.Pkg(), "net/http"):
		switch name {
		case "Get", "Post", "PostForm", "Head", "ListenAndServe":
			return fmt.Sprintf("network IO (http.%s)", name)
		}
	case pathIs(obj.Pkg(), "internal/fstore") && name == "Open":
		return "store IO (fstore.Open)"
	}
	return ""
}

// blockingSummaries computes, per package-level function in pkg,
// whether its body (transitively through same-package calls, nested
// literals excluded) contains a blocking operation.
func blockingSummaries(pkg *Package) map[*types.Func]bool {
	type declInfo struct {
		blocks  bool
		callees []*types.Func
	}
	decls := map[*types.Func]*declInfo{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			di := &declInfo{}
			shallowStmts(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SendStmt:
					di.blocks = true
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						di.blocks = true
					}
				case *ast.SelectStmt:
					blocking := true
					for _, c := range n.Body.List {
						if c.(*ast.CommClause).Comm == nil {
							blocking = false
						}
					}
					if blocking {
						di.blocks = true
					}
				case *ast.CallExpr:
					callee := calleeFunc(pkg.Info, n)
					if callee == nil {
						if indirectCallDesc(pkg, n) != "" {
							di.blocks = true
						}
						break
					}
					if knownBlockingFunc(callee) != "" {
						di.blocks = true
					} else if callee.Pkg() == pkg.Pkg {
						di.callees = append(di.callees, callee)
					}
				}
				return true
			})
			decls[obj] = di
		}
	}
	// Propagate callee summaries to a fixed point.
	out := map[*types.Func]bool{}
	for fn, di := range decls {
		out[fn] = di.blocks
	}
	for changed := true; changed; {
		changed = false
		for fn, di := range decls {
			if out[fn] {
				continue
			}
			for _, callee := range di.callees {
				if out[callee] {
					out[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}
