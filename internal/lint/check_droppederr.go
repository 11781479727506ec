package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DroppedErrCheck flags expression statements that call a function
// returning an error and silently discard it. Outside tests, every
// error must be handled, returned, or explicitly assigned to blank.
//
// Exempt by design, mirroring errcheck's defaults:
//   - fmt.Print / fmt.Printf / fmt.Println (terminal output);
//   - fmt.Fprint* writing to os.Stdout, os.Stderr, a *strings.Builder
//     or a *bytes.Buffer;
//   - methods on *strings.Builder and *bytes.Buffer, whose errors are
//     documented to always be nil.
type DroppedErrCheck struct{}

// Name implements Check.
func (*DroppedErrCheck) Name() string { return "droppederr" }

// Doc implements Check.
func (*DroppedErrCheck) Doc() string {
	return "flag discarded error returns outside _test.go files"
}

// Run implements Check.
func (c *DroppedErrCheck) Run(p *Pass) {
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			if !returnsError(p, call) || c.exempt(p, call) {
				return true
			}
			p.Reportf(call.Pos(),
				"error returned by %s is discarded: handle it or assign it to _ explicitly",
				types.ExprString(call.Fun))
			return true
		})
	}
}

// returnsError reports whether any result of the call has type error.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	t := p.TypeOf(call.Fun)
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// exempt applies the whitelist documented on the check.
func (c *DroppedErrCheck) exempt(p *Pass, call *ast.CallExpr) bool {
	obj := calleeObject(p.Info, call)
	if obj == nil {
		return false
	}
	name := obj.Name()
	if objPkgPath(obj) == "fmt" {
		switch name {
		case "Print", "Printf", "Println":
			return true
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			if isOSStdStream(p, call.Args[0]) || isNilErrWriter(p.TypeOf(call.Args[0])) {
				return true
			}
		}
		return false
	}
	// Methods on always-nil-error writers.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if isNilErrWriter(p.TypeOf(sel.X)) {
			return true
		}
	}
	return false
}

// isNilErrWriter reports whether t is (a pointer to) strings.Builder or
// bytes.Buffer, whose Write methods are documented to never return a
// non-nil error.
func isNilErrWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := objPkgPath(named.Obj())
	name := named.Obj().Name()
	return (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer")
}

// isOSStdStream reports whether e resolves to os.Stdout or os.Stderr.
func isOSStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(sel.Sel)
	return obj != nil && objPkgPath(obj) == "os" &&
		(obj.Name() == "Stdout" || obj.Name() == "Stderr")
}
