// Package analysis is the core of the repo's static-analysis suite
// (evslint): a deliberately small, offline reimplementation of the
// golang.org/x/tools/go/analysis surface the analyzers need.
//
// The repo's correctness story rests on invariants no stock tool can see —
// deterministic simulator executions, zero-allocation observability hot
// paths, no-panic error propagation in protocol layers, copy-ownership of
// wire message slices, and no blocking operations under the mem hub's
// locks. Each invariant is encoded as an Analyzer; the cmd/evslint
// multichecker runs them over every package and fails CI on a violation.
//
// The x/tools module is intentionally not a dependency: the build must
// work from the Go toolchain alone. Packages are loaded with `go list
// -export` (see load.go), so dependencies are resolved from compiler
// export data exactly the way `go vet` resolves them, with no network
// access and no third-party code.
//
// Suppression: a diagnostic is silenced by an explicit annotation
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory, and an allow comment naming an analyzer that does
// not exist is itself reported (no silent dead suppressions). See
// allow.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// annotations. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// AppliesTo reports whether the analyzer runs over the package with
	// the given import path. A nil AppliesTo runs everywhere. The
	// analysistest harness bypasses this via an explicit fixture import
	// path, so zone-scoped analyzers are tested by loading fixtures under
	// an in-zone path.
	AppliesTo func(importPath string) bool

	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one package: syntax, type
// information, and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Report emits a diagnostic, stamping it with the pass's analyzer.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of an expression (nil if untyped).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// ObjectOf resolves an identifier to its object (nil if unresolved).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Position is the resolved source position, filled by Check.
	Position token.Position
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Check runs every applicable analyzer over every package, applies
// //lint:allow suppression, validates the allow annotations themselves,
// and returns the surviving diagnostics sorted by position. Analyzer
// runtime errors are returned after the diagnostics of the analyzers
// that did succeed.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return check(pkgs, analyzers, false)
}

// CheckAudit is Check plus the allow audit: every well-formed
// //lint:allow directive that suppressed no diagnostic in this run is
// itself reported, so stale waivers rot out of the tree instead of
// lingering as misleading documentation. Run it with the full analyzer
// registry — a directive is only fairly judged stale when its analyzer
// actually ran.
func CheckAudit(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return check(pkgs, analyzers, true)
}

func check(pkgs []*Package, analyzers []*Analyzer, audit bool) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	var firstErr error
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Files)
		var raw []Diagnostic
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { raw = append(raw, d) },
			}
			if err := a.Run(pass); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
			}
		}
		for _, d := range raw {
			d.Position = pkg.Fset.Position(d.Pos)
			if allows.suppresses(d.Analyzer, d.Position) {
				continue
			}
			diags = append(diags, d)
		}
		// The allow annotations themselves are checked unconditionally:
		// a directive naming an unknown analyzer, or carrying no reason,
		// would otherwise rot into a silent dead suppression.
		diags = append(diags, allows.validate(known)...)
		if audit {
			diags = append(diags, allows.stale(known)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, firstErr
}
