// Package lockheld forbids blocking operations while a sync mutex is
// held, in the wall-clock runtime: the root package's LiveGroup, the
// transports (the in-process MemHub among them) and the daemon. The mem
// hub fans every broadcast out under its lock; one blocking channel send
// or network call inside that critical section stalls every process of
// the group at once, and — because the daemon sends while holding its
// own lock, and receive goroutines take that lock to deliver — is one
// hop from a deadlock. The simulator never hits this (it is
// single-threaded), so only the wall-clock packages carry the
// invariant.
//
// While a sync.Mutex or sync.RWMutex is held the analyzer flags:
//
//   - blocking channel sends and receives (a send inside a select with a
//     default case is non-blocking and allowed — that is the mem hub's
//     sanctioned lossy-send idiom)
//   - select statements without a default case
//   - sync.WaitGroup.Wait and sync.Cond.Wait
//   - time.Sleep
//   - network and file I/O: any net or net/http call, file-touching os
//     functions, and *os.File methods
//
// Lock tracking is lexical and per-function: a region begins at a
// mu.Lock()/mu.RLock() statement and ends at the matching Unlock in the
// same block (a deferred Unlock holds to function end). Calls are
// resolved through the internal/analysis/ssa layer's MayBlock summaries,
// so a same-package helper that blocks — a channel send three calls
// down, a wg.Wait inside a teardown helper — is flagged at the
// under-lock call site, not just where the blocking statement sits.
// Cold-path exceptions (one-time setup I/O under the group lock) carry
// //lint:allow lockheld <reason>.
package lockheld

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ssa"
)

// Analyzer is the blocking-under-lock checker.
var Analyzer = &analysis.Analyzer{
	Name:      "lockheld",
	Doc:       "forbid blocking channel operations and I/O while holding a mutex in the live runtime, transports and daemon",
	AppliesTo: AppliesTo,
	Run:       run,
}

// AppliesTo covers the root package (the live runtime), the real
// transports and the daemon — every package where goroutines contend on
// mutexes around network fan-out. Fixtures load under repro/live/....
func AppliesTo(path string) bool {
	return path == "repro" ||
		analysis.PathHasPrefix(path, "repro/live") ||
		analysis.PathHasPrefix(path, "repro/internal/transport") ||
		analysis.PathHasPrefix(path, "repro/internal/daemon")
}

func run(pass *analysis.Pass) error {
	sp := ssa.Build(pass, nil)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, sp: sp, self: pass.TypesInfo.Defs[fd.Name]}
			w.block(fd.Body.List, map[string]bool{})
			// Function literals are walked where they appear only when a
			// lock is held at that point; a literal stored for later runs
			// with its own (empty) lock state, handled by the recursion in
			// check/block.
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	sp   *ssa.Package
	self types.Object // the function being walked, to skip self-recursion
}

// block walks one statement list, threading the set of held locks
// (keyed by the printed lock expression, e.g. "g.mu"). Branch bodies get
// a copy: a lock taken inside an if holds only within it.
func (w *walker) block(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		switch v := s.(type) {
		case *ast.ExprStmt:
			if key, kind := w.lockCall(v.X); kind != 0 {
				if kind > 0 {
					held[key] = true
				} else {
					delete(held, key)
				}
				continue
			}
			w.check(v, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() pins the lock to function end: keep it
			// held. Any other deferred call runs after the region; skip.
			continue
		case *ast.GoStmt:
			// The spawned goroutine does not block the caller.
			continue
		case *ast.BlockStmt:
			w.block(v.List, copyHeld(held))
		case *ast.IfStmt:
			w.check(v.Cond, held)
			w.block(v.Body.List, copyHeld(held))
			if v.Else != nil {
				w.block([]ast.Stmt{v.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			w.check(v.Cond, held)
			w.block(v.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			if len(held) > 0 {
				if t := w.pass.TypeOf(v.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						w.reportf(v.Pos(), held, "range over channel blocks")
					}
				}
			}
			w.block(v.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			w.check(v.Tag, held)
			for _, c := range v.Body.List {
				w.block(c.(*ast.CaseClause).Body, copyHeld(held))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range v.Body.List {
				w.block(c.(*ast.CaseClause).Body, copyHeld(held))
			}
		case *ast.SelectStmt:
			w.selectStmt(v, held)
		default:
			w.check(s, held)
		}
	}
}

// selectStmt handles the one sanctioned non-blocking idiom: a select
// with a default case never blocks, so its communication clauses are
// exempt (their bodies are still walked under the lock).
func (w *walker) selectStmt(sel *ast.SelectStmt, held map[string]bool) {
	hasDefault := false
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault && len(held) > 0 {
		w.reportf(sel.Pos(), held, "select without default blocks")
	}
	for _, c := range sel.Body.List {
		w.block(c.(*ast.CommClause).Body, copyHeld(held))
	}
}

// check inspects a non-structural node for blocking constructs while any
// lock is held.
func (w *walker) check(n ast.Node, held map[string]bool) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false // runs later, not under this lock
		case *ast.SelectStmt:
			w.selectStmt(v, held)
			return false
		case *ast.SendStmt:
			w.reportf(v.Pos(), held, "channel send blocks")
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				w.reportf(v.Pos(), held, "channel receive blocks")
			}
		case *ast.CallExpr:
			w.checkCall(v, held)
		}
		return true
	})
}

// checkCall flags calls that may block: standard-library sleeps, waits
// and I/O directly (ssa.BlockReason), and same-package helpers through
// their MayBlock summaries — the SSA extension that sees a blocking
// statement behind one or more call hops.
func (w *walker) checkCall(call *ast.CallExpr, held map[string]bool) {
	if r := ssa.BlockReason(w.pass, call); r != "" {
		w.reportf(call.Pos(), held, "%s", r)
		return
	}
	f := w.pass.CalleeFunc(call)
	if f == nil || (w.self != nil && types.Object(f) == w.self) {
		return
	}
	if sum := w.sp.Summary(f); sum != nil && sum.MayBlock {
		w.reportf(call.Pos(), held, "call to %s may block (%s)", f.Name(), sum.BlockReason)
	}
}

func (w *walker) reportf(pos token.Pos, held map[string]bool, format string, args ...any) {
	locks := make([]string, 0, len(held))
	for k := range held {
		locks = append(locks, k)
	}
	// Deterministic diagnostic text under multiple held locks.
	sortStrings(locks)
	w.pass.Reportf(pos, format+" while holding %s", append(args, strings.Join(locks, ", "))...)
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// lockCall classifies expr: +1 for mutex Lock/RLock, -1 for
// Unlock/RUnlock, 0 otherwise; key identifies the mutex expression.
func (w *walker) lockCall(expr ast.Expr) (key string, kind int) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = 1
	case "Unlock", "RUnlock":
		kind = -1
	default:
		return "", 0
	}
	n := analysis.NamedOf(w.pass.TypeOf(sel.X))
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return "", 0
	}
	if name := n.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", 0
	}
	return exprString(sel.X), kind
}

// exprString renders the lock expression for region matching and
// diagnostics ("g.mu", "p.g.hub.mu").
func exprString(e ast.Expr) string {
	var b bytes.Buffer
	_ = printer.Fprint(&b, token.NewFileSet(), e)
	return b.String()
}

func lastSeg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
