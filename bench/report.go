package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultFile is result.json: enough to tell what was measured, where,
// and with which inputs, without the command line that produced it.
type resultFile struct {
	Host    host         `json:"host"`
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds"`
	Smoke   bool         `json:"smoke"`
	Sizes   sizes        `json:"sizes"`
	Runs    []*runResult `json:"runs"`
}

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

func hostStamp() host {
	h := host{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(),
		Go: runtime.Version(), GOARCH: runtime.GOARCH, GitSHA: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimLeft(name, " \t:"))
				break
			}
		}
	}
	// Outside a git checkout both commands fail and the stamp says so.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			h.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return h
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// benchmarkJSON is the part of BENCHMARK.json the program reads: the
// direction and regression bound of each end-to-end metric.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readBenchmarkJSON finds BENCHMARK.json in the repository root.
func readBenchmarkJSON() (*benchmarkJSON, error) {
	path := "BENCHMARK.json"
	if benchDir() == "." {
		path = filepath.Join("..", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &benchmarkJSON{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// quartiles returns the quartiles of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), which the driver uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// series collects, per workload and end-to-end metric, the values of
// the untraced runs in a file.
func series(runs []*runResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			out[r.Workload][d.name] = append(out[r.Workload][d.name], r.Metrics[d.name].Value)
		}
	}
	return out
}

// printSpread prints, for every workload and end-to-end metric, the
// median, the quartiles and two measures of run-to-run spread against
// the metric's bound.
func printSpread(w io.Writer, runs []*runResult) error {
	bj, err := readBenchmarkJSON()
	if err != nil {
		return err
	}
	all := series(runs)
	fmt.Fprintf(w, "\n%-15s %-11s %3s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, wl := range workloads {
		for _, m := range bj.EndToEnd {
			xs := all[wl.name][m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			note := ""
			if (q3-q1)/med > m.Bound {
				note = "  SPREAD EXCEEDS BOUND"
			}
			fmt.Fprintf(w, "%-15s %-11s %3d %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s\n",
				wl.label(), m.Name, len(xs), med, q1, q3, (q3-q1)/med, (hi-lo)/med, m.Bound, note)
		}
	}
	return nil
}

// diffFiles compares the medians of two result files, one row per
// workload and end-to-end metric. A pairing whose spread in either file
// exceeds the bound cannot be resolved to within the bound and is
// reported as unresolved, not as unchanged.
func diffFiles(w io.Writer, pathA, pathB string) error {
	bj, err := readBenchmarkJSON()
	if err != nil {
		return err
	}
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	a, b := series(fa.Runs), series(fb.Runs)
	fmt.Fprintf(w, "%-15s %-11s %12s %12s %9s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range bj.EndToEnd {
			xa, xb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(xa)
			q1b, mb, q3b := quartiles(xb)
			// worse > 0 means b is worse than a, as a share of a.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case (q3a-q1a)/ma > m.Bound || (q3b-q1b)/mb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-15s %-11s %12.6g %12.6g %+8.2f%% %6.2f  %s\n",
				wl.label(), m.Name, ma, mb, 100*(mb-ma)/ma, m.Bound, verdict)
		}
	}
	return nil
}

//go:embed golden.json
var goldenData []byte

// goldenFile holds the outputs the batch workloads must reproduce
// exactly on seed 1 at full size. The numbers are exact only for the
// toolchain and architecture that produced them (math.Exp uses fused
// multiply-add where the CPU has it), so they are checked only there.
type goldenFile struct {
	Go        string               `json:"go"`
	GOARCH    string               `json:"goarch"`
	Seed      uint64               `json:"seed"`
	Workloads map[string]signature `json:"workloads"`
}

// checkGolden compares a batch workload's outputs with golden.json.
func checkGolden(c *runCtx, workload string, got signature) {
	c.res.Signature = got
	var g goldenFile
	if err := json.Unmarshal(goldenData, &g); err != nil {
		c.problem("golden.json: %v", err)
		return
	}
	if c.smoke || c.seed != g.Seed {
		return // other inputs: the invariants alone are checked
	}
	if g.Go != runtime.Version() || g.GOARCH != runtime.GOARCH {
		c.logf("%s: goldens were made with %s/%s, this is %s/%s: not compared",
			workload, g.Go, g.GOARCH, runtime.Version(), runtime.GOARCH)
		return
	}
	want := g.Workloads[workload]
	if len(want) == 0 {
		c.problem("golden.json has no entry for %s", workload)
	}
	for _, key := range sortedKeys(want) {
		if got[key] != want[key] {
			c.problem("golden mismatch: %s = %s, want %s", key, got[key], want[key])
		}
	}
}

// writeGoldenFile rewrites golden.json with the outputs of the batch
// workloads in a full-size run, keeping the entries of workloads that
// were not run if they were made with the same toolchain and seed.
func writeGoldenFile(f *resultFile) error {
	if f.Smoke {
		return fmt.Errorf("-write-golden needs full sizes")
	}
	g := goldenFile{Go: runtime.Version(), GOARCH: runtime.GOARCH, Seed: f.Seed, Workloads: map[string]signature{}}
	var old goldenFile
	if err := json.Unmarshal(goldenData, &old); err == nil && old.Go == g.Go && old.GOARCH == g.GOARCH && old.Seed == g.Seed {
		g.Workloads = old.Workloads
	}
	for _, r := range f.Runs {
		if r.Signature != nil {
			g.Workloads[r.Workload] = r.Signature
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir(), "golden.json"), append(data, '\n'), 0o644)
}
