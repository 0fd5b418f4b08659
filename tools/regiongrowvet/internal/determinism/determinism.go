// Package determinism implements the regiongrowvet analyzer that guards
// the repo's central invariant: every engine produces byte-identical
// labels for the same (image, config), and the distributed engine's wire
// traffic is byte-stable run to run. The cache key, the replica-agnostic
// serving design, and the cross-engine property tests all assume it.
//
// Within the segmentation-kernel packages the analyzer reports:
//
//  1. a `range` over a map whose body writes to anything declared outside
//     the loop, unless every written variable is passed to a sort
//     (sort.* / slices.Sort*) later in the same block — map iteration
//     order is randomized per run, so escaping writes ordered by it are
//     nondeterministic unless normalized;
//  2. any import of math/rand or math/rand/v2 — all randomness must flow
//     through internal/prand's counter-based pure functions, seeded from
//     the Config;
//  3. any call to time.Now or time.Since — wall-clock values must never
//     reach labels or wire bytes. Timing-only call sites (stage wall-time
//     reporting) are annotated //vet:timing.
//
// Deliberate exceptions to (1) — loops whose escaping writes commute
// across iteration orders, e.g. a min/OR reduction or a keyed transfer
// between maps — are annotated //vet:ordered with a justification.
// Writes via delete() are never reported: deleting a set of distinct
// keys commutes.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"regiongrow/tools/regiongrowvet/internal/directive"
	"regiongrow/tools/regiongrowvet/internal/vetutil"
)

// scope is the set of packages whose code feeds labels, stats, or wire
// bytes. internal/prand is the sanctioned randomness home and is
// excluded; internal/server and the CLIs legitimately use wall-clock
// time for TTLs and latency metrics and are covered by the ctxloop and
// connguard analyzers instead.
var scope = map[string]bool{
	"regiongrow":                     true,
	"regiongrow/internal/core":       true,
	"regiongrow/internal/quadsplit":  true,
	"regiongrow/internal/rag":        true,
	"regiongrow/internal/unionfind":  true,
	"regiongrow/internal/homog":      true,
	"regiongrow/internal/regstats":   true,
	"regiongrow/internal/stats":      true,
	"regiongrow/internal/dpengine":   true,
	"regiongrow/internal/mpengine":   true,
	"regiongrow/internal/distengine": true,
	"regiongrow/internal/nodeprog":   true,
	"regiongrow/internal/stream":     true,
	"regiongrow/internal/transport":  true,
	"regiongrow/internal/simdvm":     true,
	"regiongrow/internal/mpvm":       true,
}

var Analyzer = &analysis.Analyzer{
	Name: "rgdeterminism",
	Doc: "flag map-iteration-order, math/rand, and wall-clock leaks in the segmentation kernels\n\n" +
		"Byte-identical labels across engines are the repo's cache-key and wire contract; " +
		"this analyzer proves no kernel package lets randomized map order, unseeded randomness, " +
		"or wall-clock values reach output. Suppress single deliberate sites with //vet:ordered " +
		"(commuting writes) or //vet:timing (wall-time reporting only).",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !vetutil.InScope(pass, scope) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	checkImports(pass)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || vetutil.InTestFile(pass, n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkClockCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, stack)
		}
		return true
	})
	return nil, nil
}

// checkImports bans math/rand in kernel packages (internal/prand is not
// in scope). Both v1 and v2 are rejected: their global generators are
// seeded per process, so anything they feed differs run to run.
func checkImports(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if vetutil.InTestFile(pass, f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"math/rand is banned in kernel packages: randomness must flow through internal/prand so runs are a pure function of the Config seed")
			}
		}
	}
}

// checkClockCall reports time.Now / time.Since calls not annotated
// //vet:timing.
func checkClockCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
		return
	}
	pkgIdent, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "time" {
		return
	}
	if directive.Has(pass, call, directive.Timing) {
		return
	}
	pass.Reportf(call.Pos(),
		"time.%s in a kernel package: wall-clock values must not influence labels or wire bytes (annotate timing-only reporting sites with //vet:timing <why>)",
		sel.Sel.Name)
}

// checkMapRange reports `range m` over a map whose body writes to
// variables declared outside the loop, unless every such variable is
// subsequently sorted in the enclosing block or the loop carries a
// //vet:ordered annotation.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if directive.Has(pass, rng, directive.Ordered) {
		return
	}

	written := escapingWrites(pass, rng)
	if len(written) == 0 {
		return
	}

	// Look for a later sort over each written variable in the statements
	// following the range within its enclosing block.
	unsorted := make([]*types.Var, 0, len(written))
	for _, v := range written {
		if !sortedAfter(pass, rng, stack, v) {
			unsorted = append(unsorted, v)
		}
	}
	if len(unsorted) == 0 {
		return
	}
	names := make([]string, len(unsorted))
	for i, v := range unsorted {
		names[i] = v.Name()
	}
	pass.Reportf(rng.Pos(),
		"range over map writes to %s without a subsequent sort: map iteration order is randomized, so the result depends on it (sort afterwards, iterate sorted keys, or annotate commuting writes with //vet:ordered <why>)",
		strings.Join(names, ", "))
}

// escapingWrites collects the distinct outer-declared variables the range
// body assigns to (plain and compound assignment, ++/--, and writes
// through an index or selector rooted at an outer variable). delete() is
// deliberately not a write: removing distinct keys commutes.
func escapingWrites(pass *analysis.Pass, rng *ast.RangeStmt) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	record := func(e ast.Expr) {
		v := rootVar(pass, e)
		if v == nil || seen[v] {
			return
		}
		// Declared inside the loop body (including the key/value vars,
		// whose declaration position is in the range header)?
		if v.Pos() >= rng.Pos() && v.Pos() < rng.End() {
			return
		}
		seen[v] = true
		out = append(out, v)
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.UnaryExpr:
			// &x handed to a callee that may write through it.
			if n.Op == token.AND {
				record(n.X)
			}
		}
		return true
	})
	return out
}

// rootVar resolves the variable at the root of an assignable expression:
// x, x.f.g, x[i], *x. Blank identifiers and non-variables yield nil.
func rootVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			v, _ := pass.TypesInfo.ObjectOf(x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether some statement after rng in its innermost
// enclosing block (or a block further up the stack, for loops nested in
// ifs) passes v to a sort.* or slices.Sort* call.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node, v *types.Var) bool {
	// Walk outward: for each enclosing block, scan the statements after
	// the one containing rng.
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		after := false
		for _, stmt := range block.List {
			if !after {
				if stmt.Pos() <= rng.Pos() && rng.End() <= stmt.End() {
					after = true
				}
				continue
			}
			if stmtSorts(pass, stmt, v) {
				return true
			}
		}
	}
	return false
}

// stmtSorts reports whether stmt contains a sort.*/slices.Sort* call
// whose arguments mention v.
func stmtSorts(pass *analysis.Pass, stmt ast.Stmt, v *types.Var) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		path := pkgName.Imported().Path()
		isSort := path == "sort" ||
			(path == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, v) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentions reports whether expr references v anywhere.
func mentions(pass *analysis.Pass, expr ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}
