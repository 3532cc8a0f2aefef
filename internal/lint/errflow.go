package lint

import (
	"go/ast"
	"strings"
)

// ErrFlow flags ignored error returns from I/O calls — the errcheck
// subset that matters for this repo's durability paths. A statement
// that discards an error (`_ = call(...)`, a bare expression statement,
// or `defer call()`) is flagged when the callee performs I/O:
//
//   - directly, per the stdlib intrinsic table (os, io, bufio, net,
//     net/http, encoding/json Encode/Decode, ...);
//   - via internal/store, which models the paper's remote
//     Azure-storage tier — its in-memory implementation cannot fail
//     today, but callers must not bake that in;
//   - transitively, when the callee's summary says I/O is reachable
//     from it (a pipeline helper that wraps os.WriteFile).
//
// Drivers scope this analyzer to ErrFlowPackagePatterns: the offline
// pipeline (artifacts silently missing poison later stages), the store,
// the trace spill/codec paths (a dropped write error leaves a truncated
// trace file that only fails the next run), the server (a dropped write
// error turns a failed response into a hung client), and the load
// generator (a swallowed response error would overstate measured
// throughput). Pure in-memory error returns elsewhere stay unflagged.
// Deliberate discards take //rcvet:allow(reason).
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc: "flag ignored error returns from I/O calls (direct, via store, or " +
		"transitive through summaries) in pipeline/store/server code",
	Run: runErrFlow,
}

// ErrFlowPackagePatterns lists the import-path suffixes errflow runs on
// (matched like SeededPackagePatterns).
var ErrFlowPackagePatterns = []string{
	"internal/pipeline",
	"internal/store",
	"internal/trace",
	"cmd/rcserve",
}

// IsErrFlowPackage reports whether errflow applies to an import path.
func IsErrFlowPackage(path string) bool {
	for _, pat := range ErrFlowPackagePatterns {
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

func runErrFlow(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(ast.Stmt)
			if !ok {
				return true
			}
			call := ignoredErrorCall(pass.TypesInfo, st)
			if call == nil {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			pkg := ""
			if fn.Pkg() != nil {
				pkg = fn.Pkg().Path()
			}
			switch {
			case ioIntrinsic(fn, pkg, fn.Name()):
				pass.Reportf(call.Pos(),
					"error from %s ignored: an I/O failure here is silently dropped; "+
						"handle or log it, or annotate with //rcvet:allow(reason)", shortFuncName(fn))
			case StoreIO(pkg) && pkg != pass.Pkg.Path():
				pass.Reportf(call.Pos(),
					"error from %s ignored: store calls model remote blob I/O and their "+
						"errors must be handled, or annotate with //rcvet:allow(reason)", shortFuncName(fn))
			default:
				if sum := pass.Summaries.ResolveFunc(fn); sum.IO {
					pass.Reportf(call.Pos(),
						"error from %s ignored: I/O is reachable from this call and its failure "+
							"is silently dropped; handle or log it, or annotate with //rcvet:allow(reason)",
						shortFuncName(fn))
				}
			}
			return true
		})
	}
	return nil
}
