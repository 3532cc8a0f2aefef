package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

func BenchmarkUtilModelAt(b *testing.B) {
	m := UtilModel{Kind: UtilBursty, Base: 10, Amplitude: 70, SpikeProb: 0.1, NoiseSD: 3, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.At(Minutes(i * 5))
	}
}

// benchSizes returns the fleet sizes the persistence benchmarks run at.
// The default is the 100k/500k pair; RC_TRACE_BENCH_SIZES overrides it
// (comma-separated), e.g. RC_TRACE_BENCH_SIZES=8000 for a quick pass.
func benchSizes(b *testing.B) []int {
	spec := os.Getenv("RC_TRACE_BENCH_SIZES")
	if spec == "" {
		spec = "100000,500000"
	}
	var sizes []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			b.Fatalf("bad RC_TRACE_BENCH_SIZES entry %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// benchTraces caches the generated populations across benchmarks in one
// process, so ReadCSV and ColumnsDecode measure codec cost over the
// same trace without regenerating 500k VMs per benchmark.
var benchTraces = map[int]*Trace{}

func benchTrace(n int) *Trace {
	tr, ok := benchTraces[n]
	if !ok {
		tr = genTrace(n)
		benchTraces[n] = tr
	}
	return tr
}

// BenchmarkWriteCSV is the row-path persistence baseline.
func BenchmarkWriteCSV(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			tr := benchTrace(n)
			var buf bytes.Buffer
			if err := WriteCSV(&buf, tr); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteCSV(&buf, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadCSV is the row-path load baseline the binary decode is
// measured against.
func BenchmarkReadCSV(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			if err := WriteCSV(&buf, benchTrace(n)); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnsBuild measures FromTrace: row → columnar conversion
// including string interning.
func BenchmarkColumnsBuild(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			tr := benchTrace(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := FromTrace(tr); c.Len() != n {
					b.Fatal("bad build")
				}
			}
		})
	}
}

// BenchmarkColumnsEncode measures the binary writer (the CSV-write
// counterpart).
func BenchmarkColumnsEncode(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			c := FromTrace(benchTrace(n))
			data, err := EncodeColumns(c)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteColumns(io.Discard, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnsDecode measures the binary reader (the ReadCSV
// counterpart; the ≥5× throughput / ≥10× allocation target pair).
func BenchmarkColumnsDecode(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			data, err := EncodeColumns(FromTrace(benchTrace(n)))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeColumns(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnsEncodeParallel measures the worker-pipelined frame
// encoder; output bytes are identical to WriteColumns at any worker
// count. Observed speedup is bounded by GOMAXPROCS: on a single-core
// host every worker count serializes onto one core and ns/op stays
// flat.
func BenchmarkColumnsEncodeParallel(b *testing.B) {
	for _, n := range benchSizes(b) {
		c := FromTrace(benchTrace(n))
		data, err := EncodeColumns(c)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("vms=%d/workers=%d", n, workers), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := WriteColumnsParallel(io.Discard, c, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSummaryStatsMonth(b *testing.B) {
	v := VM{
		Cores: 2, Created: 0, Deleted: 30 * 24 * 60,
		Util: UtilModel{Kind: UtilDiurnal, Base: 20, Amplitude: 50, NoiseSD: 4, Seed: 9},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SummaryStats(&v, v.Deleted)
	}
}
