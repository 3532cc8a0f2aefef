package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces cancellability where blocking meets concurrency: a
// function spawned by a `go` statement, or serving as an HTTP handler,
// whose summary carries Blocks taint (an unguarded channel op, a
// select with no escape, a sleep, a dial, an HTTP round trip — found
// by scanBlockFacts, composed through call chains) must also consume a
// cancellation signal — a context.Context's Done, a stop channel
// select case, or a close-terminated receive (Cancel fact). Without
// one, the goroutine is unkillable: shutdown leaks it, tests hang on
// it, and the serving tier's drain path waits forever. This guards
// internal/serve's hub and batcher loops and cmd/rcserve's handlers.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "report goroutines and HTTP handlers whose call chains block " +
		"(channel ops, sleeps, dials) without consuming a context.Context " +
		"or stop channel, making them uncancellable",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkCtxSpawn(pass, n)
			case *ast.FuncDecl:
				if fn, _ := pass.TypesInfo.Defs[n.Name].(*types.Func); fn != nil && isHandlerSig(fn.Signature()) {
					checkCtxHandler(pass, n, fn)
				}
			}
			return true
		})
	}
	return nil
}

// checkCtxSpawn checks one go statement's spawned function.
func checkCtxSpawn(pass *Pass, gs *ast.GoStmt) {
	var sum *FuncSummary
	var what string
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		sum = pass.Summaries.Lookup(litKeyAt(pass.Fset, pass.Pkg.Path(), fun))
		what = "goroutine literal"
	default:
		fn := calleeFunc(pass.TypesInfo, gs.Call)
		if fn == nil {
			return // function-value spawns are goroleak's finding
		}
		sum = pass.Summaries.ResolveFunc(fn)
		what = "goroutine " + shortFuncName(fn)
	}
	if sum == nil || sum.Blocks == nil || sum.Cancel {
		return
	}
	pass.ReportWitness(gs.Pos(), sum.Blocks.Chain,
		"%s blocks (%s) but consumes no cancellation signal (context.Context "+
			"or stop channel): it cannot be shut down; select on ctx.Done()/a done "+
			"channel around the blocking op, or annotate with //rcvet:allow(reason)",
		what, renderChain(sum.Blocks.Chain))
}

// checkCtxHandler checks one http.Handler-shaped function: handlers
// outlive nothing — the server cancels r.Context() when the client
// goes away, and a handler that blocks without honoring it pins a
// connection goroutine for as long as the wait lasts.
func checkCtxHandler(pass *Pass, decl *ast.FuncDecl, fn *types.Func) {
	sum := pass.Summaries.Lookup(fn.FullName())
	if sum == nil || sum.Blocks == nil || sum.Cancel {
		return
	}
	pass.ReportWitness(decl.Name.Pos(), sum.Blocks.Chain,
		"HTTP handler %s blocks (%s) without consuming r.Context(): a gone "+
			"client pins the connection goroutine until the wait ends; select on "+
			"ctx.Done() around the blocking op, or annotate with //rcvet:allow(reason)",
		shortFuncName(fn), renderChain(sum.Blocks.Chain))
}

// isHandlerSig reports whether a signature is http.Handler-shaped:
// func(http.ResponseWriter, *http.Request).
func isHandlerSig(sig *types.Signature) bool {
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	p0, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok || p0.Obj().Pkg() == nil || p0.Obj().Pkg().Path() != "net/http" || p0.Obj().Name() != "ResponseWriter" {
		return false
	}
	ptr, ok := sig.Params().At(1).Type().(*types.Pointer)
	if !ok {
		return false
	}
	p1, ok := ptr.Elem().(*types.Named)
	return ok && p1.Obj().Pkg() != nil && p1.Obj().Pkg().Path() == "net/http" && p1.Obj().Name() == "Request"
}
