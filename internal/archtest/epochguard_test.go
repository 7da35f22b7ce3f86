package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
)

// releasedHandles enforces the relation.EpochGuard contract: every
// snapshot handle obtained with Acquire() is released. A handle that is
// acquired into a local variable and neither Release()d in the same
// function nor handed off (returned, stored in a struct, passed to another
// function) pins the guard's epoch forever and blocks every future writer.
// Acquire() is resolved by method name, which is unambiguous in this
// module. Unlike the other rows it reads every file, tests and perfbench/
// included.
func releasedHandles(t *tree) []string {
	var out []string
	for _, p := range t.paths {
		out = append(out, checkFile(t.fset, t.files[p])...)
	}
	return out
}

// checkFile reports every Acquire() whose handle provably leaks: assigned
// to a local (or discarded with _) and never released nor handed off
// within the enclosing function.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var issues []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		issues = append(issues, fmt.Sprintf("%s: %s", p, fmt.Sprintf(format, args...)))
	}
	// Visit every function body independently; an acquire inside a closure
	// is checked against the closure's own body (the outer Inspect below
	// reaches nested function literals too, so each gets its own pass).
	visitFunc := func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // closure assignments belong to the closure's pass
			}
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range asg.Rhs {
				if !isAcquireCall(rhs) {
					continue
				}
				if i >= len(asg.Lhs) {
					continue
				}
				switch lhs := asg.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						report(rhs.Pos(), "snapshot handle from Acquire() is discarded without Release()")
						continue
					}
					if !handleResolved(body, asg, lhs.Name) {
						report(rhs.Pos(), "snapshot handle %s from Acquire() is never released or handed off", lhs.Name)
					}
				default:
					// Assignment into a field or index hands the handle off.
				}
			}
			return true
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visitFunc(n.Body)
			}
		case *ast.FuncLit:
			visitFunc(n.Body)
		}
		return true
	})
	return issues
}

// isAcquireCall matches x.Acquire() with no arguments.
func isAcquireCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Acquire"
}

// handleResolved reports whether the named handle is released or handed
// off somewhere in the function body after its acquisition: a direct or
// deferred name.Release() call, or any use of the name outside its own
// method calls (passed as an argument, returned, stored in a composite
// literal or another variable, sent on a channel).
func handleResolved(body *ast.BlockStmt, acquire *ast.AssignStmt, name string) bool {
	resolved := false
	ast.Inspect(body, func(n ast.Node) bool {
		if resolved {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
					if sel.Sel.Name == "Release" {
						resolved = true
					}
					return false // reads like h.Epoch() don't hand the handle off
				}
			}
			for _, arg := range n.Args {
				if usesIdent(arg, name) {
					resolved = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if usesIdent(r, name) {
					resolved = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if usesIdent(el, name) {
					resolved = true
					return false
				}
			}
		case *ast.SendStmt:
			if usesIdent(n.Value, name) {
				resolved = true
				return false
			}
		case *ast.AssignStmt:
			if n == acquire {
				return true
			}
			for _, rhs := range n.Rhs {
				if usesIdent(rhs, name) {
					resolved = true // re-assigned elsewhere; tracked there
					return false
				}
			}
		}
		return true
	})
	return resolved
}

// usesIdent reports whether the expression hands the named handle off: the
// bare identifier appears somewhere other than as the receiver of one of
// its own method calls. h.Epoch() is a read, not a handoff; f(h), h,
// and Snap{h: h} all transfer ownership.
func usesIdent(e ast.Expr, name string) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if used {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
					// Method call on the handle itself: only its arguments
					// could hand the handle off.
					for _, a := range call.Args {
						if usesIdent(a, name) {
							used = true
						}
					}
					return false
				}
			}
			return true
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			// Only the X side can be our ident; don't match field names.
			if usesIdent(sel.X, name) {
				used = true
			}
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
		}
		return !used
	})
	return used
}
