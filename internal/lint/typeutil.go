package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Import paths of the packages whose contracts the analyzers encode.
const (
	opapiPath   = "streamorca/internal/opapi"
	corePath    = "streamorca/internal/core"
	samPath     = "streamorca/internal/sam"
	metricsPath = "streamorca/internal/metrics"
)

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// stringConst returns the constant string value of e, if it has one
// (literals, named constants, constant expressions alike).
func stringConst(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// intConst returns the constant integer value of e, if it has one.
func intConst(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	return v, ok
}

// isStringLiteral reports whether e is written as a raw string literal
// (after stripping parentheses) — as opposed to a named constant, which
// also has a constant value but references a single point of truth.
func isStringLiteral(e ast.Expr) bool {
	lit, ok := unparen(e).(*ast.BasicLit)
	return ok && lit.Kind.String() == "STRING"
}

// namedType returns the named type of t (through aliases and one
// pointer), or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (through one pointer) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Origin().Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// calledMethod resolves a call expression's callee to a method or
// function object, or nil when the callee is not a named callable
// (e.g. a func-typed variable).
func calledMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified function: pkg.Fn(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// methodRecv returns the receiver type of a method object, or nil for
// plain functions.
func methodRecv(f *types.Func) types.Type {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// funcIsFrom reports whether the function or method is declared in the
// given package.
func funcIsFrom(f *types.Func, pkgPath string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath
}
