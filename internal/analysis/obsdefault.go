// Analyzer obsdefault: trace records are stamped with simulated time
// and must be byte-identical for a given seed, so internal/obs itself
// must never read the wall clock.

package analysis

import (
	"go/ast"
	"go/types"
)

// ObsDefault flags wall-clock reads inside the observability layer.
var ObsDefault = &Analyzer{
	Name:  "obsdefault",
	Doc:   "flags wall-clock reads in internal/obs",
	Files: FilesNonTest,
	Match: func(u *Unit) bool { return inModulePackage(u, "internal/obs") },
	Run:   runObsDefault,
}

func runObsDefault(p *Pass) error {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if obj, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "time" && wallClockFuncs[obj.Name()] {
				p.Reportf(sel.Pos(), "time.%s reads the wall clock in the observability layer; stamp events with simulated time so traces stay reproducible", obj.Name())
			}
			return true
		})
	}
	return nil
}
