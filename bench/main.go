// Command bench is the repository's one benchmark: eight named
// workloads that drive Resource Central end to end through the exported
// functions of internal/* (and, for http.mixed, the built cmd/rcserve
// binary), check that its outputs are correct, and report the metrics
// BENCHMARK.json names. See README.md in this directory.
//
//	go run ./bench                                  every workload, tracing off
//	go run ./bench -trace 1                         every workload untraced, then traced, with trace_overhead
//	go run ./bench -workload client.hit -seed 7     one workload
//	go run ./bench -repeat 5                        run-to-run spread against the bounds
//	go run ./bench -diff a.json b.json              compare two result files
//
// The driver's form is `--workload W --seed N --seconds S --trace 0|1`;
// with a workload named, the last line of standard output is one JSON
// object holding the run's verdict and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all eight)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 9, "length of each workload's timed phases")
	traced := fs.Int("trace", 0, "1 installs the decorators and registries, records spans and reports the per-layer metrics")
	out := fs.String("out", "", "result file; traces, logs and the rcserve binary go beside it (default <bench>/out/result.json)")
	repeat := fs.Int("repeat", 1, "run the selection this many times and print the spread of every end-to-end metric")
	diff := fs.Bool("diff", false, "compare two result files given as arguments instead of running")
	smoke := fs.Bool("smoke", false, "tiny sizes and no goldens: exercises the harness, measures nothing")
	writeGolden := fs.Bool("write-golden", false, "rewrite golden.json from this run (seed 1, full sizes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *diff {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-diff takes two result files"))
		}
		if err := diffFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	o := options{seed: *seed, seconds: *seconds, traced: *traced != 0, smoke: *smoke, sz: fullSizes, log: stderr}
	if *smoke {
		o.sz = smokeSizes
	}
	if *out == "" {
		*out = filepath.Join(benchDir(), "out", "result.json")
	}
	o.outDir = filepath.Dir(*out)
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadDef{*w}
	}

	file := &resultFile{Host: hostStamp(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Sizes: o.sz}
	ok := true
	runOne := func(w *workloadDef, o options, rep int) (*runResult, error) {
		res, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		res.Rep = rep
		file.Runs = append(file.Runs, res)
		printRun(stdout, res)
		ok = ok && res.Correct
		return res, nil
	}
	for rep := 1; rep <= *repeat; rep++ {
		for i := range selected {
			w := &selected[i]
			// A full traced run measures each workload with tracing off
			// first, so that it can say what tracing costs.
			var untraced *runResult
			if o.traced && *workload == "" {
				plain := o
				plain.traced = false
				var err error
				if untraced, err = runOne(w, plain, rep); err != nil {
					return fail(err)
				}
			}
			res, err := runOne(w, o, rep)
			if err != nil {
				return fail(err)
			}
			if untraced != nil {
				printOverhead(stdout, untraced, res)
			}
		}
	}
	if *repeat > 1 {
		if err := printSpread(stdout, file.Runs); err != nil {
			return fail(err)
		}
	}
	if *writeGolden {
		if err := writeGoldenFile(file); err != nil {
			return fail(err)
		}
	}
	if err := file.write(*out); err != nil {
		return fail(err)
	}
	if *workload != "" {
		// The driver's contract: the last line is the run's JSON.
		last := file.Runs[len(file.Runs)-1]
		metrics := last.Metrics
		if last.Traced {
			metrics = last.Layers
		}
		line, err := json.Marshal(map[string]any{
			"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": metrics,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED: a correctness check did not pass")
		return 1
	}
	return 0
}

// benchDir is this package's directory as seen from the working
// directory: "bench" from the repository root, "." from inside it (the
// tests).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "golden.json")); err == nil {
		return "bench"
	}
	return "."
}

// printRun prints every metric of a run as `workload metric value unit`.
func printRun(w io.Writer, r *runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s (%s): attempted %d, failed %d, correct %v\n", r.Workload, mode, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "#   phase %s: attempted %d succeeded %d failed %d shed %d no-prediction %d samples %d\n",
			p.Name, p.Attempted, p.Succeeded, p.Failed, p.Shed, p.NoPrediction, p.Samples)
	}
	for _, problem := range r.Problems {
		fmt.Fprintf(w, "#   PROBLEM: %s\n", problem)
	}
	for _, warning := range r.Warnings {
		fmt.Fprintf(w, "#   WARNING: %s\n", warning)
	}
	line := func(name string, v value) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, v.Value, v.Unit)
	}
	for _, d := range endToEnd {
		line(d.name, r.Metrics[d.name])
	}
	for _, name := range sortedKeys(r.Diag) {
		line(name, r.Diag[name])
	}
	if !r.Traced {
		return
	}
	for _, d := range perLayer {
		line(d.name, r.Layers[d.name])
	}
}

// printOverhead prints traced / untraced for each end-to-end metric.
func printOverhead(w io.Writer, untraced, traced *runResult) {
	for _, d := range endToEnd {
		if base := untraced.Metrics[d.name].Value; base != 0 {
			fmt.Fprintf(w, "%s trace_overhead.%s %.4f ratio\n", traced.Workload, d.name, traced.Metrics[d.name].Value/base)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
