// Package lifecycle flags dequeue results that can leak.
//
// Every *Entry handed out by Dequeue/TryDequeue/DequeueContext (and the
// batch and chain variants) occupies a key-conflict slot and a window
// slot until it is completed, released, run, or handed onward; dropping
// one wedges its conflict chain forever — no error, no panic, just a
// key that never dispatches again. The analyzer tracks each variable
// bound to a dequeued entry (or entry batch) inside the obtaining
// function and reports it when it can never settle.
//
// A tracked entry settles when it is passed to any call (Complete,
// Release, Run, RunBatch, a helper...), returned, assigned or aliased,
// sent on a channel, placed in a composite literal, ranged over,
// or captured by a closure. Receiver-only uses (e.Seq(), e.ID) do not
// settle: reading an entry is not disposing of it. Discarding a
// dequeue result outright — as a bare expression statement or into the
// blank identifier — is always reported.
//
// The converse is reported too: a receiver use (e.Seq(), e.Message(),
// es[i].Seq()) that follows a resolving call on the same variable —
// Complete, Release, Run, RunNext, CompleteNext, or RunBatch — in the
// same function. Resolving hands the entry's node back to the queue's
// pool, so a later read may see another message. "Follows" is
// structural: the use comes after the resolving statement in the same
// statement list (or later within that statement), with no assignment
// to the variable in between. Resolutions inside a branch, a defer, or
// a go statement do not flag the code after them.
package lifecycle

import (
	"go/ast"
	"go/token"
	"go/types"

	"pdq/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lifecycle",
	Doc: "a dequeued *Entry must be completed, released, run, or handed " +
		"off on every path; dropping one wedges its key's conflict chain",
	Run: run,
}

// sourceNames are the methods that transfer ownership of an Entry (or a
// batch of them) to the caller.
var sourceNames = map[string]bool{
	"Dequeue":         true,
	"TryDequeue":      true,
	"DequeueContext":  true,
	"DequeueBatch":    true,
	"TryDequeueBatch": true,
	"CompleteNext":    true,
	"RunNext":         true,
}

// resolveNames are the methods that resolve the entry (or batch) passed
// as their first argument, returning its node to the queue's pool.
var resolveNames = map[string]bool{
	"Complete":     true,
	"Release":      true,
	"Run":          true,
	"RunNext":      true,
	"CompleteNext": true,
	"RunBatch":     true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
			checkUseAfterResolve(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkUseAfterResolve reports receiver uses of an entry variable that
// follow a resolving call on it. Every statement list in body is walked;
// a resolving call that runs whenever its statement runs (not one nested
// in a branch, loop body, closure, defer, or go statement — those lists
// are walked on their own) flags the uses after it in the same
// statement and in the statements that follow, up to the first
// assignment to the variable.
func checkUseAfterResolve(pass *analysis.Pass, body *ast.BlockStmt) {
	reported := map[token.Pos]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, st := range list {
			unconditionalCalls(st, func(call *ast.CallExpr) {
				obj, name := resolvedVar(pass, call)
				if obj == nil {
					return
				}
				for _, use := range usesAfter(pass, obj, call.End(), list[i:]) {
					if !reported[use.Pos()] {
						reported[use.Pos()] = true
						pass.Reportf(use.Pos(),
							"entry %s used after %s resolved it: its node may already carry another message",
							obj.Name(), name)
					}
				}
			})
		}
		return true
	})
}

// unconditionalCalls calls f for every call in st that is evaluated
// whenever st runs to completion: nested statement lists, closures,
// deferred and spawned calls, and the conditionally evaluated parts of
// control statements are skipped.
func unconditionalCalls(st ast.Stmt, f func(*ast.CallExpr)) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt, *ast.FuncLit, *ast.CaseClause, *ast.CommClause,
			*ast.DeferStmt, *ast.GoStmt, *ast.SelectStmt:
			return false
		case *ast.IfStmt:
			inspectStmt(n.Init, visit)
			ast.Inspect(n.Cond, visit)
			return false
		case *ast.ForStmt:
			inspectStmt(n.Init, visit)
			return false
		case *ast.RangeStmt:
			ast.Inspect(n.X, visit)
			return false
		case *ast.SwitchStmt:
			inspectStmt(n.Init, visit)
			if n.Tag != nil {
				ast.Inspect(n.Tag, visit)
			}
			return false
		case *ast.TypeSwitchStmt:
			inspectStmt(n.Init, visit)
			ast.Inspect(n.Assign, visit)
			return false
		case *ast.CallExpr:
			f(n)
		}
		return true
	}
	ast.Inspect(st, visit)
}

func inspectStmt(st ast.Stmt, visit func(ast.Node) bool) {
	if st != nil {
		ast.Inspect(st, visit)
	}
}

// resolvedVar returns the entry variable a resolving call settles — its
// first argument, when that is a plain identifier of entry type — and
// the method name; nil when call resolves nothing trackable.
func resolvedVar(pass *analysis.Pass, call *ast.CallExpr) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !resolveNames[sel.Sel.Name] || len(call.Args) == 0 {
		return nil, ""
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, ""
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !isEntryType(obj.Type()) {
		return nil, ""
	}
	return obj, sel.Sel.Name
}

// usesAfter returns the receiver uses of obj (obj.X, obj[i].X) in region
// positioned after from and before the end of the first assignment to
// obj that completes after from.
func usesAfter(pass *analysis.Pass, obj types.Object, from token.Pos, region []ast.Stmt) []ast.Node {
	is := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == obj
	}
	kill := token.NoPos
	for _, st := range region {
		ast.Inspect(st, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.RangeStmt:
				lhs = []ast.Expr{n.Key, n.Value}
			default:
				return true
			}
			for _, l := range lhs {
				if l != nil && is(l) && n.End() >= from && (kill == token.NoPos || n.End() < kill) {
					kill = n.End()
				}
			}
			return true
		})
	}
	var uses []ast.Node
	for _, st := range region {
		ast.Inspect(st, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Pos() < from || (kill != token.NoPos && sel.Pos() >= kill) {
				return true
			}
			x := sel.X
			if ix, ok := ast.Unparen(x).(*ast.IndexExpr); ok {
				x = ix.X
			}
			if is(x) {
				uses = append(uses, sel)
			}
			return true
		})
	}
	return uses
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Pass 1: find entry-yielding source calls and the variables (or
	// blanks, or discards) their entry results land in.
	tracked := map[types.Object]ast.Node{} // entry var -> its binding site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isSourceCall(pass, call) {
				pass.Reportf(call.Pos(),
					"result of %s dropped: the dequeued entry is never completed, released, or run",
					calleeName(call))
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isSourceCall(pass, call) {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Lhs) || !entryPosition(pass, call, i, len(n.Lhs)) {
					continue
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue // stored through a selector/index: settled by construction
				}
				if id.Name == "_" {
					pass.Reportf(id.Pos(),
						"entry from %s assigned to _: the dequeued entry is never completed, released, or run",
						calleeName(call))
					continue
				}
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					tracked[obj] = id
				}
				// Plain `=` to an existing var: the old value is
				// overwritten, but flow-sensitive loss tracking is out
				// of scope; treat the var as freshly tracked.
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					tracked[obj] = id
				}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// Pass 2: collect every settling use. Appearing as a call argument,
	// return value, assignment source, channel send, composite literal
	// element, range operand, or inside a closure counts — but only when
	// the expression IS the entry (modulo parens, &, slicing), not when
	// it merely mentions it: `return e.Seq()` reads e, it does not hand
	// e off.
	settled := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					e = x.X
					continue
				}
			case *ast.SliceExpr:
				e = x.X
				continue
			}
			break
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				settled[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if readOnlyBuiltin(pass, n) {
				return true // len(es), println(e.Key): reads, not handoffs
			}
			for _, arg := range n.Args {
				mark(arg)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				mark(r)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isSourceCall(pass, call) {
					return true // the binding itself, not a handoff
				}
			}
			for _, r := range n.Rhs {
				mark(r)
			}
		case *ast.SendStmt:
			mark(n.Value)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				mark(el)
			}
		case *ast.RangeStmt:
			mark(n.X)
		case *ast.FuncLit:
			// Closure capture: any use inside escapes our flow view, so
			// every mentioned entry is conservatively settled.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						settled[obj] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})

	for obj, site := range tracked {
		if !settled[obj] {
			pass.Reportf(site.Pos(),
				"dequeued entry %s is never completed, released, run, or handed off on any path",
				obj.Name())
		}
	}
}

// isSourceCall reports whether call invokes an ownership-transferring
// dequeue method: a method with a source name yielding *Entry or
// []*Entry somewhere in its results.
func isSourceCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sourceNames[sel.Sel.Name] {
		return false
	}
	sig := callSignature(pass, call)
	if sig == nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isEntryType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// entryPosition reports whether result i of the call carries an entry.
// nlhs guards the single-value special case (len(Lhs)==1 binds the
// whole tuple's first value only when the call has one result).
func entryPosition(pass *analysis.Pass, call *ast.CallExpr, i, nlhs int) bool {
	sig := callSignature(pass, call)
	if sig == nil || i >= sig.Results().Len() || nlhs != sig.Results().Len() {
		return false
	}
	return isEntryType(sig.Results().At(i).Type())
}

func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

// isEntryType matches *Entry and []*Entry for any named type Entry.
func isEntryType(t types.Type) bool {
	if sl, ok := t.(*types.Slice); ok {
		t = sl.Elem()
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Entry"
}

// readOnlyBuiltin reports whether call is a builtin that only inspects
// its arguments; passing an entry to one is not a handoff.
func readOnlyBuiltin(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	switch id.Name {
	case "len", "cap", "print", "println":
		return true
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "call"
}
