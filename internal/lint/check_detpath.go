package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetPathCheck enforces the //maldlint:deterministic annotation
// contract: packages whose model state and output must be bit-identical
// run to run (pipeline, line, core, stream, mfembed) may not consult the
// wall clock or let map iteration order choose what they return. The
// compiler cannot see the bit-identical-merge and byte-identical-resume
// promises those packages make; this check can. (Global math/rand needs
// an import, which mathrand already bans everywhere but internal/mathx.)
//
// Inside an annotated package's non-test files it flags:
//
//   - calls to time.Now (wall-clock state; observability-only uses get
//     a //maldlint:ignore detpath with rationale);
//   - a return inside a range-over-map body whose result expressions
//     mention the iteration variables — the function's output is then
//     chosen by randomized map order;
//   - a break inside a range-over-map body when the body also assigns
//     the iteration variables to outer state: the loop keeps an
//     arbitrary element.
type DetPathCheck struct{}

// Name implements Check.
func (*DetPathCheck) Name() string { return "detpath" }

// Doc implements Check.
func (*DetPathCheck) Doc() string {
	return "forbid wall clock and order-dependent map exits in //maldlint:deterministic packages"
}

// Run implements Check.
func (c *DetPathCheck) Run(p *Pass) {
	if !p.Deterministic {
		return
	}
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isTimeNow(p.Info, x) {
					p.Reportf(x.Pos(),
						"time.Now in a deterministic package: wall-clock values must not feed model state or output")
				}
			case *ast.RangeStmt:
				if _, isMap := typeUnderlying(p, x.X).(*types.Map); isMap {
					c.checkMapExit(p, x)
				}
			}
			return true
		})
	}
}

// checkMapExit flags order-dependent exits from a map-range body.
func (*DetPathCheck) checkMapExit(p *Pass, rs *ast.RangeStmt) {
	vars := rangeVarObjects(p, rs)
	if len(vars) == 0 {
		return
	}
	assignsOut := false
	inspectShallow(rs.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range assign.Rhs {
			for _, v := range vars {
				if mentionsObject(p, rhs, v) {
					// Assigning k/v into state that outlives the loop is
					// only order-dependent when the loop can stop early;
					// remember it and let a break decide.
					assignsOut = true
				}
			}
		}
		return true
	})
	inspectShallow(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				for _, v := range vars {
					if mentionsObject(p, res, v) {
						p.Reportf(x.Pos(),
							"return inside a map range yields a value chosen by randomized iteration order; iterate sorted keys")
						return false
					}
				}
			}
		case *ast.BranchStmt:
			if x.Tok.String() == "break" && assignsOut {
				p.Reportf(x.Pos(),
					"break inside a map range keeps an arbitrary element; iterate sorted keys or make the result order-insensitive")
				return false
			}
		}
		return true
	})
}

// rangeVarObjects returns the objects of the range statement's key and
// value variables (skipping blanks).
func rangeVarObjects(p *Pass, rs *ast.RangeStmt) []types.Object {
	var out []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id == nil || id.Name == "_" {
			continue
		}
		if obj := p.Info.ObjectOf(id); obj != nil {
			out = append(out, obj)
		}
	}
	return out
}
