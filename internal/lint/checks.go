package lint

import (
	"go/ast"
	"go/types"
)

// AllChecks returns every built-in check in canonical order.
func AllChecks() []Check {
	return []Check{
		&MathRandCheck{Allow: []string{"repro/internal/mathx"}},
		&MapRangeCheck{},
		&DroppedErrCheck{},
		&DetPathCheck{},
		&ErrCmpSentinelCheck{},
	}
}

// objPkgPath returns the import path of the package an object belongs
// to, or "" for universe-scope objects.
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// calleeObject resolves the function or method a call expression
// invokes, or nil when it cannot be determined (dynamic calls through
// function values still resolve to the variable's object).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		return info.ObjectOf(fun.Sel)
	}
	return nil
}

// containsTimeNow reports whether the expression tree rooted at e calls
// time.Now.
func containsTimeNow(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isTimeNow(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// isTimeNow reports whether call invokes time.Now.
func isTimeNow(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	return obj != nil && objPkgPath(obj) == "time" && obj.Name() == "Now"
}
