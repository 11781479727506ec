package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapRangeCheck flags `for range` over a map in code that produces
// ordered output. Go randomizes map iteration order, so a loop that
// prints, writes, or accumulates a slice while ranging over a map makes
// reports, feature vectors and embeddings nondeterministic run-to-run —
// exactly the fragility HinDom and the Zhauniarovich survey warn about.
//
// A range over a map is accepted when it only performs order-insensitive
// work (counting, summing, filling another map), or when every slice it
// appends to is passed to a sort.* / slices.Sort* call after the loop in
// the same function.
type MapRangeCheck struct{}

// Name implements Check.
func (*MapRangeCheck) Name() string { return "maprange" }

// Doc implements Check.
func (*MapRangeCheck) Doc() string {
	return "flag map iteration that feeds ordered output unless the result is sorted"
}

// Run implements Check.
func (*MapRangeCheck) Run(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body := funcBody(n)
			if body == nil {
				return true
			}
			// Examine the ranges belonging directly to this function;
			// nested function literals are visited as their own
			// functions by the outer Inspect.
			inspectShallow(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := typeUnderlying(p, rs.X).(*types.Map); isMap {
					checkMapRange(p, rs, body)
				}
				return true
			})
			return true
		})
	}
}

// funcBody returns the body of a FuncDecl or FuncLit, or nil for other
// nodes.
func funcBody(n ast.Node) *ast.BlockStmt {
	switch x := n.(type) {
	case *ast.FuncDecl:
		return x.Body
	case *ast.FuncLit:
		return x.Body
	}
	return nil
}

// inspectShallow walks root like ast.Inspect but does not descend into
// nested function literals.
func inspectShallow(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return fn(n)
	})
}

func typeUnderlying(p *Pass, e ast.Expr) types.Type {
	t := p.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// writeMethods are method names that emit ordered output.
var writeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

// checkMapRange classifies what the loop body does with the map's
// entries and reports order-sensitive uses.
func checkMapRange(p *Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt) {
	if pos, what := findOutputCall(p, rs.Body); pos.IsValid() {
		p.Reportf(rs.Pos(),
			"range over a map emits ordered output (%s): iteration order is randomized; iterate sorted keys instead", what)
		return
	}
	for _, obj := range appendTargets(p, rs) {
		if !sortedAfter(p, enclosing, obj, rs.End()) {
			p.Reportf(rs.Pos(),
				"range over a map appends to %s, which is never sorted afterward in this function: iteration order is randomized", obj.Name())
		}
	}
}

// findOutputCall returns the position and description of the first
// order-sensitive output call in the loop body, if any.
func findOutputCall(p *Pass, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := p.Info.ObjectOf(sel.Sel)
		if obj != nil && objPkgPath(obj) == "fmt" &&
			(strings.HasPrefix(obj.Name(), "Print") || strings.HasPrefix(obj.Name(), "Fprint")) {
			pos, what = call.Pos(), "fmt."+obj.Name()
			return false
		}
		if writeMethods[sel.Sel.Name] {
			if _, isMethod := p.Info.Selections[sel]; isMethod {
				pos, what = call.Pos(), sel.Sel.Name
				return false
			}
		}
		return true
	})
	return pos, what
}

// appendTargets returns the objects of slices declared outside the loop
// that the loop body appends to.
func appendTargets(p *Pass, rs *ast.RangeStmt) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	inspectShallow(rs.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(p, call) || i >= len(assign.Lhs) {
				continue
			}
			id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.ObjectOf(id)
			if obj == nil || seen[obj] {
				continue
			}
			// Only slices that outlive the loop matter.
			if obj.Pos() < rs.Pos() {
				seen[obj] = true
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call after position after within body.
func sortedAfter(p *Pass, body *ast.BlockStmt, obj types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		callee := calleeObject(p.Info, call)
		if callee == nil {
			return true
		}
		pkg := objPkgPath(callee)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(p, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsObject reports whether the expression tree references obj.
func mentionsObject(p *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
