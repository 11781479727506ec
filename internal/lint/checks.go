package lint

import (
	"go/ast"
	"go/types"
)

// AllChecks returns every built-in check in canonical order. The slice
// is freshly allocated; callers may filter it.
func AllChecks() []Check {
	return []Check{
		&MathRandCheck{Allow: []string{"repro/internal/mathx"}},
		&MapRangeCheck{},
		&WgAddCheck{},
		&DroppedErrCheck{},
		&DetPathCheck{},
		&GobFieldsCheck{},
		&ErrCmpSentinelCheck{},
		&CloseLeakCheck{},
		&TickerLoopCheck{},
		&AtomicAlignCheck{},
	}
}

// CheckByName returns the check with the given name from AllChecks, or
// nil if none matches.
func CheckByName(name string) Check {
	for _, c := range AllChecks() {
		if c.Name() == name {
			return c
		}
	}
	return nil
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

// isSyncType reports whether t is the named type sync.<name>.
func isSyncType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && objPkgPath(obj) == "sync" && obj.Name() == name
}

// isWaitGroup reports whether t (possibly behind a pointer) is
// sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return isSyncType(t, "WaitGroup")
}

// containsTimeNow reports whether the expression tree rooted at e calls
// time.Now.
func containsTimeNow(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := calleeObject(info, call); obj != nil &&
			objPkgPath(obj) == "time" && obj.Name() == "Now" {
			found = true
			return false
		}
		return true
	})
	return found
}

// rootIdent walks down selector/index/star expressions to the leftmost
// identifier, e.g. a.b[i].c → a.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
