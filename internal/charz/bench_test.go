package charz

import (
	"sync"
	"testing"

	"resourcecentral/internal/synth"
	"resourcecentral/internal/trace"
)

var (
	benchOnce  sync.Once
	benchTr    *trace.Trace
	benchGenEr error
)

func benchFixture(b *testing.B) *trace.Trace {
	benchOnce.Do(func() {
		cfg := synth.DefaultConfig()
		cfg.Days = 33
		cfg.TargetVMs = 8000
		cfg.MaxDeploymentVMs = 250
		cfg.Seed = 33
		res, err := synth.Generate(cfg)
		if err != nil {
			benchGenEr = err
			return
		}
		benchTr = res.Trace
	})
	if benchGenEr != nil {
		b.Fatal(benchGenEr)
	}
	return benchTr
}

// BenchmarkCharzRows measures the row-path characterization pass; the
// columnar pass is timed by bench's charz.vmstats_s.
func BenchmarkCharzRows(b *testing.B) {
	tr := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeVMStats(tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}
