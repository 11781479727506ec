package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrCmpSentinelCheck flags err == ErrX / err != ErrX comparisons
// against sentinel error values. This repository wraps its sentinels —
// Scorer.Lookup returns fmt.Errorf("%q: %w", d, ErrUnknownDomain),
// stream degradation wraps DegradedError chains — so identity
// comparison silently stops matching the moment a call site adds
// context. errors.Is walks the Unwrap chain and is the only comparison
// that honors the sentinel contract. nil comparisons are untouched.
type ErrCmpSentinelCheck struct{}

// Name implements Check.
func (*ErrCmpSentinelCheck) Name() string { return "errcmpsentinel" }

// Doc implements Check.
func (*ErrCmpSentinelCheck) Doc() string {
	return "flag err == ErrX identity comparisons that must be errors.Is for wrapped chains"
}

// Run implements Check.
func (*ErrCmpSentinelCheck) Run(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			var sentinel ast.Expr
			switch {
			case isSentinelRef(p, bin.Y) && isErrorExpr(p, bin.X):
				sentinel = bin.Y
			case isSentinelRef(p, bin.X) && isErrorExpr(p, bin.Y):
				sentinel = bin.X
			default:
				return true
			}
			p.Reportf(bin.Pos(),
				"%s sentinel comparison with %s misses wrapped errors: use errors.Is",
				bin.Op, types.ExprString(sentinel))
			return true
		})
	}
}

// isSentinelRef reports whether e references a package-level variable
// of type error — the shape of every sentinel (errors.New at package
// scope), including stdlib ones like io.EOF.
func isSentinelRef(p *Pass, e ast.Expr) bool {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = p.Info.ObjectOf(x)
	case *ast.SelectorExpr:
		obj = p.Info.ObjectOf(x.Sel)
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	// Package-level: its parent scope is the package scope.
	if v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	return isErrorType(v.Type())
}

// isErrorExpr reports whether e has static type error (and is not the
// untyped nil).
func isErrorExpr(p *Pass, e ast.Expr) bool {
	t := p.TypeOf(e)
	return t != nil && isErrorType(t)
}

// isErrorType reports whether t is exactly the universe error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
