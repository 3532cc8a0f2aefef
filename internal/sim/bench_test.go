package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"resourcecentral/internal/cluster"
	"resourcecentral/internal/synth"
	"resourcecentral/internal/trace"
)

var (
	benchMu  sync.Mutex
	benchTrs = map[int]*trace.Trace{}
)

// benchTraceN generates (and caches) a ten-day trace targeting vms VMs.
func benchTraceN(b *testing.B, vms int) *trace.Trace {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	tr, ok := benchTrs[vms]
	if !ok {
		cfg := synth.DefaultConfig()
		cfg.Days = 10
		cfg.TargetVMs = vms
		cfg.MaxDeploymentVMs = 150
		cfg.Seed = 7
		res, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr = res.Trace
		benchTrs[vms] = tr
	}
	return tr
}

// benchTrace is the shared default: enough VMs to keep a 2000-server
// cluster visibly loaded.
func benchTrace(b *testing.B) *trace.Trace {
	return benchTraceN(b, 12000)
}

// fixedPredictor returns a constant bucket with full confidence; it keeps
// scheduler benchmarks from being dominated by predictor cost.
type fixedPredictor struct{ bucket int }

func (p fixedPredictor) PredictP95Bucket(*trace.VM, int) (int, float64, bool) {
	return p.bucket, 1, true
}

func benchClusterConfig(policy cluster.Policy, servers int) cluster.Config {
	return cluster.Config{
		Servers:        servers,
		CoresPerServer: 16,
		MemGBPerServer: 112,
		Policy:         policy,
		MaxOversub:     1.25,
		MaxUtil:        1.0,
	}
}

// BenchmarkSimRun measures one full trace replay at growing cluster sizes
// (the Section 6.2 Fig. 11 run). The servers subbenchmarks are the
// scaling curve: before the indexed scheduler and streaming aggregation,
// both time and allocations grew with servers × intervals. The vms axis
// (fixed 500-server cluster) is the row-path allocation baseline the
// chunk-fed BenchmarkSimRunColumns/vms=... is compared against: one
// fresh request per VM, so allocs/op grows linearly with trace length.
func BenchmarkSimRun(b *testing.B) {
	for _, servers := range []int{250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			tr := benchTrace(b)
			cfg := Config{
				Cluster:   benchClusterConfig(cluster.RCSoft, servers),
				Predictor: fixedPredictor{bucket: 2},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tr, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, vms := range []int{6000, 12000, 24000} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			tr := benchTraceN(b, vms)
			cfg := Config{
				Cluster:   benchClusterConfig(cluster.RCSoft, 500),
				Predictor: fixedPredictor{bucket: 2},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tr, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSweepGrid is the six-point policy grid (the Fig. 11 comparison
// plus two sensitivity points) shared by the sweep benchmarks.
func benchSweepGrid() []Config {
	pred := fixedPredictor{bucket: 2}
	return []Config{
		{Cluster: benchClusterConfig(cluster.Baseline, 500)},
		{Cluster: benchClusterConfig(cluster.Naive, 500)},
		{Cluster: benchClusterConfig(cluster.RCHard, 500), Predictor: pred},
		{Cluster: benchClusterConfig(cluster.RCSoft, 500), Predictor: pred},
		{Cluster: benchClusterConfig(cluster.RCSoft, 500), Predictor: pred, UtilScale: 1.25},
		{Cluster: benchClusterConfig(cluster.RCSoft, 500), Predictor: pred, BucketShift: 1},
	}
}

// BenchmarkSimSweep replays the policy grid through RunSweep at several
// worker counts. Points are independent full simulations, so wall time
// should drop with workers — but only while workers fit in GOMAXPROCS.
// Past that the goroutines timeshare the same cores and ns/op stays
// flat (on a 1-CPU host every worker count measures the same serial
// work), so oversubscribed points are skipped rather than reported as
// if they were parallel measurements. TestRunSweepPointsConcurrency
// separately proves the fan-out itself engages regardless of cores.
func BenchmarkSimSweep(b *testing.B) {
	tr := benchTrace(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if max := runtime.GOMAXPROCS(0); workers > max {
				b.Skipf("workers=%d exceeds GOMAXPROCS=%d; timesharing would repeat the serial measurement", workers, max)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSweep(tr, benchSweepGrid(), SweepOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimRunColumns is BenchmarkSimRun fed straight from columnar
// chunks, on two axes. The servers axis mirrors BenchmarkSimRun for a
// direct row-vs-chunk comparison at each cluster size. The vms axis
// (fixed 500-server cluster) is the allocation story: the row path
// allocates one fresh request per VM, so its allocs/op is linear in
// trace length (~1/VM, see BenchmarkSimRun/vms=...); the chunk-fed
// path's allocation count is bounded by concurrency — the arrival pool
// sized by peak in-flight VMs, per-server active-slice growth, the
// completion heap — not by trace length, so doubling the trace adds
// only the pool growth that the higher arrival rate itself causes
// (~0.1 allocs/VM marginal here, flat once the cluster saturates).
// Its bytes do grow with the trace: the contribution arena holds 4 B
// per VM-interval in a handful of slices.
func BenchmarkSimRunColumns(b *testing.B) {
	cfgFor := func(servers int) Config {
		return Config{
			Cluster:   benchClusterConfig(cluster.RCSoft, servers),
			Predictor: fixedPredictor{bucket: 2},
		}
	}
	for _, servers := range []int{250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			cols := trace.FromTrace(benchTrace(b))
			cfg := cfgFor(servers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunColumns(cols, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, vms := range []int{6000, 12000, 24000} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			cols := trace.FromTrace(benchTraceN(b, vms))
			cfg := cfgFor(500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunColumns(cols, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimSweepColumns drives the policy grid from shared chunks:
// one wave-size pass per sweep, one arrival pool per point, zero row
// materialization. Worker counts past GOMAXPROCS are skipped for the
// same reason as BenchmarkSimSweep.
func BenchmarkSimSweepColumns(b *testing.B) {
	cols := trace.FromTrace(benchTrace(b))
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if max := runtime.GOMAXPROCS(0); workers > max {
				b.Skipf("workers=%d exceeds GOMAXPROCS=%d; timesharing would repeat the serial measurement", workers, max)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSweepColumns(cols, benchSweepGrid(), SweepOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
