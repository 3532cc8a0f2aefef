package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MetricName requires metric names and label keys passed to
// internal/obs registration calls (Registry.Counter, Gauge, GaugeFunc,
// Histogram) to be compile-time constants.
//
// Metric identity is the merge key everywhere downstream: sweep workers
// gather per-run registries and obs.MergeFamilies folds them by family
// name, dashboards and the bench harness key on the exposition name,
// and the registry panics at runtime on a family re-registered
// with a different kind. A name built at call time (fmt.Sprintf, a
// variable) can silently mint a new family per call site or per run,
// which merges with nothing and explodes cardinality. Dynamic label
// *values* are fine — that is what labels are for; only the name and
// the label keys must be constant.
//
// Calls that splat a prebuilt label slice (labels...) are not checked
// here: the slice's construction site is responsible (the sim sweep
// builds its policy/run label sets from constant keys).
var MetricName = &Analyzer{
	Name: "metricname",
	Doc: "require constant metric names and label keys in obs registration " +
		"calls so families merge across runs (obs.MergeFamilies) and stay " +
		"stable for dashboards",
	Run: runMetricName,
}

// obsRegistrationLabelStart maps Registry method names to the index of
// their first variadic label argument (... key, value pairs).
var obsRegistrationLabelStart = map[string]int{
	"Counter":   2, // (name, help, labels...)
	"Gauge":     2, // (name, help, labels...)
	"GaugeFunc": 3, // (name, help, fn, labels...)
	"Histogram": 3, // (name, help, bounds, labels...)
}

func runMetricName(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !isObsRegistryMethod(fn) {
				return true
			}
			labelStart, ok := obsRegistrationLabelStart[fn.Name()]
			if !ok {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			if !isConstString(pass.TypesInfo, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name passed to obs.Registry.%s is not a compile-time constant: "+
						"dynamic names mint unmergeable families (obs.MergeFamilies keys on the "+
						"name); use a const, or annotate with //rcvet:allow(reason)", fn.Name())
			}
			if call.Ellipsis.IsValid() {
				return true // splatted label slice: checked at its construction site
			}
			for i := labelStart; i < len(call.Args); i += 2 {
				if !isConstString(pass.TypesInfo, call.Args[i]) {
					pass.Reportf(call.Args[i].Pos(),
						"label key passed to obs.Registry.%s is not a compile-time constant: "+
							"dynamic keys fork the label schema within a family; use a const "+
							"(dynamic label values are fine), or annotate with //rcvet:allow(reason)",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// isObsRegistryMethod reports whether fn is a method on
// internal/obs.Registry.
func isObsRegistryMethod(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "internal/obs" && !strings.HasSuffix(p, "/internal/obs") {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// isConstString reports whether the expression has a constant value
// (string literals, consts, and constant concatenations).
func isConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
