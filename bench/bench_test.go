package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"resourcecentral/internal/model"
)

// logUniform returns n durations spread evenly in log space over
// [lo, hi] nanoseconds, shuffled by r.
func logUniform(n int, lo, hi float64, seed uint64) []int64 {
	r := newRand(seed, 1)
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(lo * math.Pow(hi/lo, r.Float64()))
	}
	return xs
}

func TestHistQuantileError(t *testing.T) {
	xs := logUniform(200000, 50, 5e9, 1)
	var h hist
	for _, x := range xs {
		h.record(x)
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(sorted[int(math.Ceil(q*float64(len(sorted))))-1])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f: relative error %.4f > 1%%", q, got, exact, rel)
		}
	}
	if got := h.quantile(1); got != float64(sorted[len(sorted)-1]) {
		t.Errorf("q1 = %v, want the maximum %v", got, sorted[len(sorted)-1])
	}
	var few hist
	for _, x := range []int64{100, 300, 200} {
		few.record(x)
	}
	if got := few.quantile(0.99); got != 300 {
		t.Errorf("p99 of three samples = %v, want the largest", got)
	}
}

func TestHistBuckets(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 1 << 20, 1<<41 + 12345, 1 << 42, 1 << 50} {
		i := bucketOf(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d: not monotone or out of range", v, i)
		}
		prev = i
		if lo, width := bucketRange(i); v < 1<<histMaxBits && (v < lo || v >= lo+width) {
			t.Errorf("value %d not in its bucket [%d, %d)", v, lo, lo+width)
		} else if float64(width) > float64(lo)/64+1 {
			t.Errorf("bucket %d is %d wide at %d: more than 1/64", i, width, lo)
		}
	}
}

func TestHistMerge(t *testing.T) {
	xs := logUniform(20000, 100, 1e8, 2)
	var whole, a, b hist
	for i, x := range xs {
		whole.record(x)
		if i%3 == 0 {
			a.record(x)
		} else {
			b.record(x)
		}
	}
	a.merge(&b)
	if a != whole {
		t.Fatal("merging two histograms differs from recording into one")
	}
}

func TestWindowsReportMedians(t *testing.T) {
	w := newWindows(3500 * time.Millisecond)
	if len(w.hists) != 3 || w.length != int64(3500*time.Millisecond)/3 {
		t.Fatalf("3.5 s gave %d windows of %d ns", len(w.hists), w.length)
	}
	// Window 1 is a hiccup: ten times slower and a tenth of the work.
	for i, lat := range []int64{1000, 10000, 1100} {
		for k := 0; k < 100; k++ {
			w.add(int64(i)*w.length+int64(k), lat, 1)
		}
	}
	w.add(5*w.length, 1100, 1) // past the end: the last window's
	if got := w.quantile(0.5); math.Abs(got-1100) > 11 {
		t.Errorf("median over windows of p50 = %v, want about 1100", got)
	}
	if got, want := w.rate(), 100/(float64(w.length)/1e9); got != want {
		t.Errorf("rate = %v, want %v", got, want)
	}
	if n := w.total().n; n != 301 {
		t.Errorf("total has %d samples, want 301", n)
	}
	if k := len(newWindows(300 * time.Millisecond).hists); k != 1 {
		t.Errorf("a run shorter than a second has %d windows, want 1", k)
	}
}

// testPopulation is a population that needs no trained system.
func testPopulation() *population {
	p := &population{known: 90}
	p.items = make([]model.ClientInputs, 100)
	return p
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	pop := testPopulation()
	mx := &mix{hot: pop.hotItems(5, 8), hotShare: 0.5, unknown: 0.1}
	a := makeSchedule(5, 4000, time.Second, 0.05, 16, pop, mx)
	b := makeSchedule(5, 4000, time.Second, 0.05, 16, pop, mx)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := makeSchedule(6, 4000, time.Second, 0.05, 16, pop, mx); reflect.DeepEqual(a.arrivals, c.arrivals) {
		t.Fatal("another seed gave the same schedule")
	}
	if n := len(a.arrivals); n < 3600 || n > 4400 {
		t.Errorf("%d arrivals in 1 s at 4000/s", n)
	}
	var lookups, batches int64
	prev := int64(-1)
	for _, arr := range a.arrivals {
		if arr.due < prev || arr.due >= int64(time.Second) {
			t.Fatalf("arrival due at %d after one due at %d", arr.due, prev)
		}
		prev = arr.due
		lookups += int64(arr.n)
		if arr.n > 1 {
			batches++
			for _, dr := range a.draws[arr.first : arr.first+arr.n] {
				if dr.model != a.draws[arr.first].model {
					t.Fatal("a batch spans two models")
				}
			}
		}
	}
	if lookups != a.lookups || int(lookups) != len(a.draws) {
		t.Errorf("lookups %d, recorded %d, draws %d", lookups, a.lookups, len(a.draws))
	}
	if share := float64(batches) / float64(len(a.arrivals)); share < 0.03 || share > 0.07 {
		t.Errorf("batch share %.3f, want about 0.05", share)
	}
}

func TestPacerFiresEveryArrivalInOrder(t *testing.T) {
	pop := testPopulation()
	s := makeSchedule(1, 2000, 200*time.Millisecond, 0, 1, pop, &mix{})
	var p pacer
	var fired []int
	p.run(time.Now(), s.arrivals, func(i int) {
		fired = append(fired, i)
		p.done()
	})
	if len(fired) != len(s.arrivals) {
		t.Fatalf("fired %d of %d arrivals", len(fired), len(s.arrivals))
	}
	for i, got := range fired {
		if got != i {
			t.Fatalf("arrival %d fired in position %d", got, i)
		}
	}
	if p.late.n != uint64(len(fired)) || p.inflight.Load() != 0 {
		t.Errorf("lateness samples %d, in flight %d", p.late.n, p.inflight.Load())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own tables in
// step, and checks the file against the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var gated []workloadDef
	for _, w := range workloads {
		if !w.diagnostic {
			gated = append(gated, w)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated ones in the program", len(bj.Workloads), len(gated))
	}
	for i, w := range bj.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s [%s]: name or unit too long", m.Name, m.Unit)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd, true)
	check("per-layer", bj.PerLayer, perLayer, false)
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

// TestSmoke runs every workload at tiny size with and without tracing:
// the whole harness is compiled and exercised by `go test ./...`, and
// every metric the contract names must come out.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+traced, func(t *testing.T) {
				if w.name == wHTTPMixed && testing.Short() {
					t.Skip("builds and starts cmd/rcserve")
				}
				var stdout, stderr bytes.Buffer
				code := run([]string{"-smoke", "-workload", w.name, "-seconds", "0.3", "-seed", "3", "-trace", traced,
					"-out", filepath.Join(t.TempDir(), "result.json")}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]value
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !last.Correct || last.Attempted < 1 {
					t.Errorf("correct %v, attempted %d", last.Correct, last.Attempted)
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(last.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := last.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
					if traced == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want a positive number", d.name, m.Value)
					}
				}
			})
		}
	}
}
