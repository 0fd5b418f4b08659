// Package ctxloop implements the regiongrowvet analyzer that enforces
// the Segmenter cancellation contract from PR 3: cancelling the context
// aborts a run within one split pass / RAG band / merge round. The class
// of bug it catches is the unkillable phase-driving loop — a merge loop
// that spins until convergence with no ctx check, which once shipped in
// every engine and was eliminated by hand.
//
// In the engine and kernel packages, every *outermost* for loop of a
// function that takes a context.Context must either
//
//   - check the context (ctx.Err() / ctx.Done(), including in a select), or
//   - call a function that takes the context (delegating the check), or
//   - do no cancellable work: loops whose body calls nothing from this
//     module are exempt — an index-arithmetic loop over a band cannot
//     block, and per-pixel hot loops deliberately hoist the ctx check to
//     the enclosing phase loop.
//
// Nested loops inherit the outermost loop's per-iteration check (the
// contract's granularity is the phase boundary, not the pixel). Calls
// inside `go` statements and function literals are excluded from the
// "does work" test: the loop itself does not block on them. Deliberate
// exceptions are annotated //vet:noctx with a justification.
package ctxloop

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"regiongrow/tools/regiongrowvet/internal/directive"
	"regiongrow/tools/regiongrowvet/internal/vetutil"
)

// scope is the set of packages that implement core.Engine plus the
// kernels that carry their cancellation (quadsplit's split passes, rag's
// merge-loop driver).
var scope = map[string]bool{
	"regiongrow":                     true,
	"regiongrow/internal/core":       true,
	"regiongrow/internal/quadsplit":  true,
	"regiongrow/internal/rag":        true,
	"regiongrow/internal/dpengine":   true,
	"regiongrow/internal/mpengine":   true,
	"regiongrow/internal/distengine": true,
	"regiongrow/internal/stream":     true,
}

// modulePrefix identifies same-module callees: a loop that only calls
// the stdlib (wg.Add, fmt.Errorf, append) is not running cancellable
// kernel work.
const modulePrefix = "regiongrow"

var Analyzer = &analysis.Analyzer{
	Name: "rgctxloop",
	Doc: "flag phase-driving loops in context-aware engines that never check their context\n\n" +
		"The Segmenter contract promises cancellation within one split/band/merge iteration; " +
		"an outermost loop in a ctx-taking function that calls module code but neither checks " +
		"ctx nor passes it on can spin unkillably. Suppress deliberate bounded loops with " +
		"//vet:noctx <why>.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !vetutil.InScope(pass, scope) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil || vetutil.InTestFile(pass, fn.Pos()) {
			return
		}
		if !hasCtxParam(pass, fn) {
			return
		}
		checkBody(pass, fn.Body)
	})
	return nil, nil
}

// hasCtxParam reports whether fn declares a context.Context parameter.
func hasCtxParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkBody walks a function body and reports outermost for loops that
// do module work without ctx discipline. Function literals start a fresh
// scope and are not checked (their loops run under whatever contract
// their call site has — typically a rag.Drive round callback whose
// driver checks ctx per round).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			checkLoop(pass, n, n.Body)
			return false // nested loops are covered by the outermost check
		case *ast.RangeStmt:
			checkLoop(pass, n, n.Body)
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
}

func checkLoop(pass *analysis.Pass, loop ast.Node, body *ast.BlockStmt) {
	if directive.Has(pass, loop, directive.NoCtx) {
		return
	}
	works := false
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned goroutine's calls do not block this loop, but a
			// ctx passed to it still counts as discipline (e.g. workers
			// receiving the ctx); check its args, skip its body.
			if callUsesCtx(pass, n.Call) {
				guarded = true
			}
			return false
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isCtxCheck(pass, n) || callUsesCtx(pass, n) {
				guarded = true
				return false
			}
			if isModuleCall(pass, n) {
				works = true
			}
		}
		return true
	})
	if works && !guarded {
		pass.Reportf(loop.Pos(),
			"loop in a context-aware function runs module code but never checks or forwards the context: cancellation cannot interrupt it (check ctx.Err() per iteration, pass ctx down, or annotate //vet:noctx <why>)")
	}
}

// isCtxCheck matches ctx.Err() and ctx.Done() on any context.Context
// value.
func isCtxCheck(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	return isContextType(pass.TypesInfo.TypeOf(sel.X))
}

// callUsesCtx reports whether any argument (or the receiver) of the call
// is a context.Context — the callee then owns the cancellation check.
func callUsesCtx(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContextType(pass.TypesInfo.TypeOf(arg)) {
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isContextType(pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
	}
	return false
}

// isModuleCall reports whether the callee is declared in this module
// (import path regiongrow or regiongrow/...). Method values, function
// values, and closures resolve through their object where possible;
// calls we cannot resolve (dynamic function values) count as module work
// — the conservative direction.
func isModuleCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return objInModule(pass.TypesInfo.ObjectOf(fun))
	case *ast.SelectorExpr:
		// Type conversions like int32(x) and stdlib selector calls
		// resolve to an object with a package path.
		return objInModule(pass.TypesInfo.ObjectOf(fun.Sel))
	default:
		// Dynamic call through a function value of unknown origin.
		if _, isType := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); isType {
			return true
		}
		return false
	}
}

func objInModule(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if _, isType := obj.(*types.TypeName); isType {
		return false // conversion, not a call
	}
	if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
		return false
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == modulePrefix || strings.HasPrefix(p, modulePrefix+"/")
}
