package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// options are the settings of one invocation.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	smoke   bool
	sz      sizes
	outDir  string    // bench/out
	log     io.Writer // progress and diagnostics (stderr)
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCounts says what became of the operations of one timed phase.
type phaseCounts struct {
	Name         string `json:"name"`
	Attempted    int64  `json:"attempted"`
	Succeeded    int64  `json:"succeeded"`
	Failed       int64  `json:"failed"`
	Shed         int64  `json:"shed"`
	NoPrediction int64  `json:"no_prediction"`
	Samples      int64  `json:"samples"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string           `json:"workload"`
	Rep       int              `json:"rep"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Invalid   bool             `json:"invalid"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Layers    map[string]value `json:"layers,omitempty"`
	Diag      map[string]value `json:"diagnostics,omitempty"`
	Phases    []phaseCounts    `json:"phases"`
	// Problems are failed correctness checks; any makes the command
	// fail. Warnings are timing conditions (a late generator, shed or
	// late answers) that make the numbers suspect but not the outputs.
	Problems []string `json:"problems,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
	// Signature is what a batch workload's first pass produced: the
	// values golden.json pins.
	Signature signature `json:"signature,omitempty"`
}

// runCtx is what a workload sees while it runs: the options, the
// result it fills in, and the span recorder (nil with tracing off).
type runCtx struct {
	options
	nproc int
	res   *runResult
	rec   *recorder
}

func (c *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// problem records a failed correctness check.
func (c *runCtx) problem(format string, args ...any) {
	c.res.Correct = false
	c.res.Problems = append(c.res.Problems, fmt.Sprintf(format, args...))
}

// warn records a timing condition that makes the run's numbers suspect.
func (c *runCtx) warn(format string, args ...any) {
	c.res.Warnings = append(c.res.Warnings, fmt.Sprintf(format, args...))
}

func (c *runCtx) layer(name string, v float64) { c.res.Layers[name] = value{Value: v} }

func (c *runCtx) diag(name string, v float64, unit string) {
	c.res.Diag[name] = value{Value: v, Unit: unit}
}

// phase appends one phase's counts and folds them into the run totals.
func (c *runCtx) phase(p phaseCounts) {
	c.res.Phases = append(c.res.Phases, p)
	c.res.Attempted += p.Attempted
	c.res.Failed += p.Failed
}

// latency reports the operation latency metrics of a windowed phase:
// the median over its windows of each window's p50 and p99.
func (c *runCtx) latency(w *windows) {
	c.res.Metrics["op_p50_us"] = value{Value: w.quantile(0.5) / 1e3}
	c.res.Metrics["op_p99_us"] = value{Value: w.quantile(0.99) / 1e3}
	c.diag("op_windows", float64(len(w.hists)), "count")
	c.tail(w.total())
}

// tail prints the sample count and the highest percentile the whole
// sample supports, beside the gated p99.
func (c *runCtx) tail(h *hist) {
	c.diag("op_samples", float64(h.n), "count")
	if q := h.tailQuantile(); q > 0 {
		c.diag("op_tail_quantile", q, "ratio")
		c.diag("op_tail_us", h.quantile(q)/1e3, "us")
	}
}

// instance is one set-up workload.
type instance interface {
	// prepare does the harness's own work that needs the set-up system
	// but is not part of it: reference answers, arrival schedules.
	prepare(c *runCtx) error
	// run executes the timed phases and the correctness checks.
	run(c *runCtx, d time.Duration) error
	close()
}

type workloadDef struct {
	name  string
	why   string
	setup func(c *runCtx) (instance, error)
	// before does harness work the set-ups need, once and untimed.
	before func(c *runCtx) error
	// diagnostic workloads are run, checked and reported like the
	// others but are not listed in BENCHMARK.json, so the driver does
	// not gate on them. README.md gives the reason for each.
	diagnostic bool
}

var workloads = []workloadDef{
	{wClientHit, "4096 resident hot keys: the sharded result cache does all the work, model execution none", setupClientHit, nil, false},
	{wClientMiss, "uniform draws over a population 30x the result cache: featurize and model execution do the work, the cache's hit path none", setupClientMiss, nil, false},
	{wServeSteady, "open-loop fabric-controller traffic through serve.Tier: latency is owned by admission, coalescer and batch window, not core", setupServeSteady, nil, false},
	{wServeChurn, "serve.steady while the pipeline republishes and hub subscribers listen: writes beside reads on the same layers", setupServeChurn, nil, true},
	{wHTTPMixed, "the built cmd/rcserve binary over loopback HTTP: the only workload crossing the handler, JSON and net/http", setupHTTPMixed, buildRCServe, false},
	{wOfflineTrain, "Azure CSV to trained, published, loaded models: training dominates, so ml and pipeline changes show here", setupOfflineTrain, nil, false},
	{wOfflineIngest, "Azure CSV to encoded feature data with no training: charz, fftperiod and featuredata dominate", setupOfflineIngest, nil, false},
	{wSchedSweep, "Section 6.2 policy sweep in the loaded regime: sim and cluster do the work, core is touched once per arrival", setupSchedSweep, nil, false},
}

// label is the name as the comparison tables print it: a diagnostic
// workload is starred, because its rows gate nothing.
func (w *workloadDef) label() string {
	if w.diagnostic {
		return w.name + "*"
	}
	return w.name
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload sets the workload up several times (setup_s is the
// median), runs its timed phases once and checks its outputs.
func runWorkload(w *workloadDef, o options) (*runResult, error) {
	c := &runCtx{options: o, nproc: runtime.NumCPU()}
	c.res = &runResult{
		Workload: w.name, Traced: o.traced, Correct: true,
		Metrics: map[string]value{}, Layers: map[string]value{}, Diag: map[string]value{},
	}
	if o.traced {
		c.rec = newRecorder()
	}
	runtime.GOMAXPROCS(c.nproc)

	if w.before != nil {
		if err := w.before(c); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < o.sz.SetupRepeats || (spent < o.sz.SetupMinTotal && i < 40); i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(c); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer inst.close()
	c.res.Metrics["setup_s"] = value{Value: median(setups)}

	if err := inst.prepare(c); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}

	mem := startMemWatch(o.traced)
	err := inst.run(c, time.Duration(o.seconds*float64(time.Second)))
	mem.stop(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	if c.res.Attempted < 1 {
		c.problem("no operation attempted")
	}
	c.diag("fail_share", float64(c.res.Failed)/float64(max(c.res.Attempted, 1)), "ratio")
	finishMetrics(c.res)
	if c.rec != nil {
		if err := c.rec.write(o.outDir, w.name); err != nil {
			return nil, err
		}
	}
	return c.res, nil
}

// finishMetrics stamps units and fills layer metrics the workload does
// not have with 0, so every run reports the same names.
func finishMetrics(r *runResult) {
	for _, d := range endToEnd {
		v := r.Metrics[d.name]
		v.Unit = d.unit
		r.Metrics[d.name] = v
	}
	for _, d := range perLayer {
		v := r.Layers[d.name]
		v.Unit = d.unit
		r.Layers[d.name] = v
	}
}

// memWatch measures allocation over the timed phases; the heap sampler
// runs only when tracing, so an untraced run has no extra goroutine.
type memWatch struct {
	before runtime.MemStats
	peak   uint64
	stopC  chan struct{}
	done   chan struct{}
}

func startMemWatch(sample bool) *memWatch {
	m := &memWatch{}
	runtime.ReadMemStats(&m.before)
	if !sample {
		return m
	}
	m.stopC, m.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(m.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-m.stopC:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > m.peak {
					m.peak = ms.HeapInuse
				}
			}
		}
	}()
	return m
}

func (m *memWatch) stop(c *runCtx) {
	if m.stopC != nil {
		close(m.stopC)
		<-m.done
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapInuse > m.peak {
		m.peak = after.HeapInuse
	}
	c.layer("process.alloc_mb", float64(after.TotalAlloc-m.before.TotalAlloc)/1e6)
	c.layer("process.heap_peak_mb", float64(m.peak)/1e6)
	c.layer("process.gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
}
