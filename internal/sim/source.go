package sim

import (
	"math"

	"resourcecentral/internal/cluster"
	"resourcecentral/internal/trace"
)

// arrivalSource feeds the run core one VM arrival at a time, in trace
// order, together with the cluster request backing it. Sources own the
// memory: the row source hands out pointers into the trace slice and
// fresh requests, while the columnar source recycles a bounded pool of
// scratch VM+request boxes. Both yield identical values per arrival, so
// the core's float operations — and therefore the Result — are
// byte-identical across representations.
type arrivalSource interface {
	// horizon is the trace window length.
	horizon() trace.Minutes
	// len is the trace's VM count.
	len() int
	// vmAt returns VM i, filling scratch when the source has no row to
	// point into. It touches no per-run state, so concurrent calls are
	// safe.
	vmAt(i int, scratch *trace.VM) *trace.VM
	// each calls fn once per VM in trace order with its trace index i. v
	// and req stay valid until release(req); requested is the
	// initial-wave size of the VM's deployment (the client input RC
	// models consume).
	each(fn func(i int, v *trace.VM, req *cluster.Request, requested int) error) error
	// release returns an arrival's request (and the VM backing it) to
	// the source once the cluster can no longer reference it: after
	// VMCompleted, on a failed placement, or when the VM never
	// completes inside the window.
	release(req *cluster.Request)
}

// rowSource adapts a row-major trace. It is stateless beyond the
// precomputed wave sizes (shared, read-only), so one instance can feed
// concurrent sweep points.
type rowSource struct {
	tr    *trace.Trace
	waves map[string]int
}

func newRowSource(tr *trace.Trace) *rowSource {
	return &rowSource{tr: tr, waves: countInitialWaves(tr)}
}

func (s *rowSource) horizon() trace.Minutes { return s.tr.Horizon }

func (s *rowSource) len() int { return len(s.tr.VMs) }

func (s *rowSource) vmAt(i int, _ *trace.VM) *trace.VM { return &s.tr.VMs[i] }

func (s *rowSource) each(fn func(i int, v *trace.VM, req *cluster.Request, requested int) error) error {
	for i := range s.tr.VMs {
		v := &s.tr.VMs[i]
		if err := fn(i, v, &cluster.Request{}, s.waves[v.Deployment]); err != nil {
			return err
		}
	}
	return nil
}

func (s *rowSource) release(*cluster.Request) {}

// colArrival is one pooled arrival: the scratch VM a chunk row is
// expanded into and the request wrapping it.
type colArrival struct {
	vm  trace.VM
	req cluster.Request
}

// colSource feeds arrivals straight from columnar chunks. Boxes return
// to the free list as the cluster finishes with them, so the boxes a run
// allocates are bounded by the peak number of in-flight VMs (at most the
// cluster's capacity) rather than the trace length.
type colSource struct {
	c     *trace.Columns
	waves []int // initial-wave size by deployment string ID
	free  []*colArrival
	byReq map[*cluster.Request]*colArrival
}

func newColSource(c *trace.Columns, waves []int) *colSource {
	return &colSource{c: c, waves: waves, byReq: make(map[*cluster.Request]*colArrival)}
}

func (s *colSource) horizon() trace.Minutes { return s.c.Horizon }

func (s *colSource) len() int { return s.c.Len() }

func (s *colSource) vmAt(i int, scratch *trace.VM) *trace.VM {
	s.c.VMAt(i, scratch)
	return scratch
}

func (s *colSource) each(fn func(i int, v *trace.VM, req *cluster.Request, requested int) error) error {
	return s.c.ForEachChunk(func(base int, ch *trace.Chunk) error {
		n := ch.Len()
		for j := 0; j < n; j++ {
			a := s.acquire()
			fillArrival(a, ch, j)
			if err := fn(base+j, &a.vm, &a.req, s.waves[ch.Dep[j]]); err != nil {
				return err
			}
		}
		return nil
	})
}

// fillArrival expands chunk row j into the box's scratch VM. The
// strings land interned (shared with the table), so the per-arrival
// fill is allocation-free.
//
//rcvet:hotpath
func fillArrival(a *colArrival, ch *trace.Chunk, j int) {
	ch.VMAt(j, &a.vm)
}

func (s *colSource) acquire() *colArrival {
	if n := len(s.free); n > 0 {
		a := s.free[n-1]
		s.free = s.free[:n-1]
		return a
	}
	a := &colArrival{}
	s.byReq[&a.req] = a
	return a
}

func (s *colSource) release(req *cluster.Request) {
	if a, ok := s.byReq[req]; ok {
		s.free = append(s.free, a)
	}
}

// countInitialWaves maps deployment id to its initial request size (the
// number of VMs in its first wave), the client input RC models consume.
func countInitialWaves(tr *trace.Trace) map[string]int {
	first := make(map[string]trace.Minutes)
	for i := range tr.VMs {
		v := &tr.VMs[i]
		if t, ok := first[v.Deployment]; !ok || v.Created < t {
			first[v.Deployment] = v.Created
		}
	}
	count := make(map[string]int, len(first))
	for i := range tr.VMs {
		v := &tr.VMs[i]
		if v.Created == first[v.Deployment] {
			count[v.Deployment]++
		}
	}
	return count
}

// countInitialWavesColumns computes the same wave sizes keyed by the
// columns' deployment string IDs — two chunk walks over the Dep and
// Created columns, no map and no row structs. Deployment names and IDs
// are in bijection within one Columns, so for every VM the looked-up
// wave size equals the row path's.
func countInitialWavesColumns(c *trace.Columns) []int {
	const unseen = trace.Minutes(math.MaxInt64)
	var first []trace.Minutes
	_ = c.ForEachChunk(func(_ int, ch *trace.Chunk) error {
		for j, id := range ch.Dep {
			for int(id) >= len(first) {
				first = append(first, unseen)
			}
			if t := trace.Minutes(ch.Created[j]); t < first[id] {
				first[id] = t
			}
		}
		return nil
	})
	counts := make([]int, len(first))
	_ = c.ForEachChunk(func(_ int, ch *trace.Chunk) error {
		countWavesChunk(counts, first, ch)
		return nil
	})
	return counts
}

// countWavesChunk tallies one chunk's first-wave memberships.
//
//rcvet:hotpath
func countWavesChunk(counts []int, first []trace.Minutes, ch *trace.Chunk) {
	for j, id := range ch.Dep {
		if trace.Minutes(ch.Created[j]) == first[id] {
			counts[id]++
		}
	}
}
