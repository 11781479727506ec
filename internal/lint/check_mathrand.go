package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// MathRandCheck enforces the repository's RNG hygiene contract: all
// stochastic code draws from per-goroutine mathx.RNG streams derived
// from one experiment seed (internal/mathx/rng.go), so importing
// math/rand — or seeding any generator from the wall clock — silently
// breaks reproducibility.
type MathRandCheck struct {
	// Allow lists package import paths exempt from the check (the RNG
	// home package itself).
	Allow []string
}

// Name implements Check.
func (*MathRandCheck) Name() string { return "mathrand" }

// Doc implements Check.
func (*MathRandCheck) Doc() string {
	return "forbid math/rand imports and time-seeded randomness outside internal/mathx"
}

// forbiddenImports are the randomness packages the contract bans.
var forbiddenImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// seedCallNames are callee names that bind a seed to a generator.
var seedCallNames = map[string]bool{
	"Seed":       true,
	"NewSource":  true,
	"NewRNG":     true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// Run implements Check.
func (c *MathRandCheck) Run(p *Pass) {
	for _, allow := range c.Allow {
		if p.Pkg.Path() == allow {
			return
		}
	}
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if forbiddenImports[path] {
				p.Reportf(spec.Pos(),
					"import of %s: stochastic code must use mathx.RNG streams (internal/mathx/rng.go)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				name := calleeName(x)
				if !seedCallNames[name] {
					return true
				}
				for _, arg := range x.Args {
					if containsTimeNow(p.Info, arg) {
						p.Reportf(x.Pos(),
							"%s seeded from time.Now: experiments must be reproducible from a fixed seed", name)
						break
					}
				}
			case *ast.KeyValueExpr:
				key, ok := x.Key.(*ast.Ident)
				if !ok || !strings.Contains(key.Name, "Seed") {
					return true
				}
				if containsTimeNow(p.Info, x.Value) {
					p.Reportf(x.Pos(),
						"field %s set from time.Now: experiments must be reproducible from a fixed seed", key.Name)
				}
			}
			return true
		})
	}
}

// calleeName extracts the syntactic name a call invokes ("Seed" for both
// rand.Seed and r.Seed).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
