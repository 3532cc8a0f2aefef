package sim

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"resourcecentral/internal/trace"
)

// contribs is one UtilScale's view of the contribution arena. For every
// trace VM it holds the value the VM adds to its server's reading in
// each 5-minute interval it fully occupies — from alignUp(Created) while
// t+5 <= min(Deleted, horizon) — namely float32(max/100*cores*scale)
// with max the interval maximum of the VM's utilization model. VM i's
// values are vals[off[i]:off[i+1]].
//
// A contribution depends only on the VM, never on the policy that placed
// it, so one arena is built per Run or sweep and shared read-only by
// every point. Accumulators add the stored float32s in placement order,
// which is exactly what evaluating the model inside the loop added.
type contribs struct {
	off  []int
	vals []float32
}

// of returns VM i's contributions.
func (c contribs) of(i int) []float32 {
	return c.vals[c.off[i]:c.off[i+1]]
}

// arena holds one contribs per distinct UtilScale among a run's or a
// sweep's points (almost always one); all share one offset table.
type arena struct {
	scales []float64
	byIdx  []contribs // byIdx[k] holds the contributions at scales[k]
}

// forConfig returns the contributions at cfg's UtilScale, which must be
// one the arena was built for.
func (ar *arena) forConfig(cfg Config) contribs {
	return ar.byIdx[slices.Index(ar.scales, utilScale(cfg))]
}

// utilScale is cfg.UtilScale with the zero value meaning 1.
func utilScale(cfg Config) float64 {
	if cfg.UtilScale == 0 {
		return 1
	}
	return cfg.UtilScale
}

// arenaClaim is how many VMs a fill worker claims at a time.
const arenaClaim = 64

// newArena evaluates every VM of src once per interval it occupies,
// whatever the number of scales, and stores its contribution at each of
// cfgs' distinct UtilScales. The fill runs on up to workers goroutines
// (<= 0 uses GOMAXPROCS), each claiming arenaClaim VMs at a time; every
// value lands in its own slot, so the arena is identical at any worker
// count.
func newArena(src arrivalSource, cfgs []Config, workers int) *arena {
	ar := &arena{}
	for _, cfg := range cfgs {
		if s := utilScale(cfg); !slices.Contains(ar.scales, s) {
			ar.scales = append(ar.scales, s)
		}
	}
	n, horizon := src.len(), src.horizon()
	off := make([]int, n+1)
	forEachVM(src, workers, func(i int, v *trace.VM) {
		_, off[i+1] = intervalSpan(v, horizon)
	})
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	ar.byIdx = make([]contribs, len(ar.scales))
	for k := range ar.byIdx {
		ar.byIdx[k] = contribs{off: off, vals: make([]float32, off[n])}
	}
	forEachVM(src, workers, func(i int, v *trace.VM) {
		start, count := intervalSpan(v, horizon)
		cores := float64(v.Cores)
		for j := 0; j < count; j++ {
			_, _, max := v.Util.At(start + trace.Minutes(j)*trace.ReadingIntervalMin)
			for k, scale := range ar.scales {
				ar.byIdx[k].vals[off[i]+j] = float32(max / 100 * cores * scale)
			}
		}
	})
	return ar
}

// intervalSpan returns the start of the first 5-minute interval v fully
// occupies and how many consecutive intervals it occupies before
// min(Deleted, horizon).
func intervalSpan(v *trace.VM, horizon trace.Minutes) (start trace.Minutes, count int) {
	end := v.Deleted
	if end > horizon {
		end = horizon
	}
	start = alignUp(v.Created)
	if end < start+trace.ReadingIntervalMin {
		return start, 0
	}
	return start, int((end - start) / trace.ReadingIntervalMin)
}

// forEachVM calls fn for every VM of src on up to workers goroutines.
// Each worker owns one scratch VM that fn's argument may point into.
func forEachVM(src arrivalSource, workers int, fn func(i int, v *trace.VM)) {
	n := src.len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if claims := (n + arenaClaim - 1) / arenaClaim; workers > claims {
		workers = claims
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch trace.VM
			for {
				lo := int(next.Add(arenaClaim)) - arenaClaim
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+arenaClaim, n); i++ {
					fn(i, src.vmAt(i, &scratch))
				}
			}
		}()
	}
	wg.Wait()
}
