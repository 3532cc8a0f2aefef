package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// AllocFree statically enforces the zero-allocation hot paths PR 2
// measured. A function whose doc comment carries the line
//
//	//rcvet:hotpath
//
// must be *transitively* allocation-free: no allocation site in its own
// body (see forEachAllocSite for the exact model), and no call —
// however deep, across package boundaries — into a function whose
// summary says it may allocate. A benchmark (BenchmarkResultCacheHit
// under -benchmem) catches regressions after the fact on one measured
// input; this analyzer rejects them at lint time on every path.
//
// The annotation is a contract, not a hint: annotate only functions
// that must stay on the sub-microsecond path (CacheKey and its FNV
// helper, the result-cache shard reads, the obs counter/gauge/histogram
// hit operations, the in-place quickselect helpers). Callees of an
// annotated function do not need their own annotation — the summary
// composition covers them — but annotating them too pins the contract
// closer to the code. False positives from the conservative model (a
// provably non-escaping &T{}, a never-growing append) take
// //rcvet:allow(reason), which clears the site from the summary as
// well.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "require //rcvet:hotpath functions to be transitively allocation-free, " +
		"naming the allocating call chain otherwise",
	Run: runAllocFree,
}

// hotpathMarker is matched against the lines of a function's doc
// comment.
const hotpathMarker = "//rcvet:hotpath"

// isHotpath reports whether a function declaration carries the
// //rcvet:hotpath annotation.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}

func runAllocFree(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotpath(pass, fd)
		}
	}
	return nil
}

func checkHotpath(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	// Direct allocation sites in this body.
	forEachAllocSite(pass.TypesInfo, fd.Body, func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"%s in //rcvet:hotpath function %s: hot paths must be allocation-free "+
				"(fix it, or annotate the site with //rcvet:allow(reason))", what, name)
	})
	// Calls into may-allocate summaries, at any depth.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // already reported as a closure allocation above
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, n)
			if fn == nil {
				return true // builtins/conversions/dynamic calls: handled above
			}
			if sum := pass.Summaries.ResolveFunc(fn); sum.Alloc != nil {
				pass.Reportf(n.Pos(),
					"call to %s in //rcvet:hotpath function %s may allocate "+
						"(chain: %s); hot paths must be transitively allocation-free",
					shortFuncName(fn), name, sum.Alloc)
			}
		}
		return true
	})
}
