// Package sim drives the cluster scheduler with a VM trace and aggregates
// physical CPU utilization, reproducing the methodology of Section 6.2:
// VMs arrive in trace order, the scheduler places or fails them, and for
// every server the co-located VMs' maximum utilizations are summed in each
// 5-minute period — pessimistically assuming each interval maximum lasts
// the whole interval, so aggregated server utilization can exceed 100%.
package sim

import (
	"errors"
	"fmt"

	"resourcecentral/internal/cluster"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/trace"
)

// Predictor supplies P95-utilization bucket predictions to the scheduler.
type Predictor interface {
	// PredictP95Bucket returns the predicted Table 3 utilization bucket
	// for the VM and a confidence score; ok=false is a no-prediction.
	PredictP95Bucket(v *trace.VM, requestedVMs int) (bucket int, score float64, ok bool)
}

// LifetimePredictor supplies lifetime bucket predictions for the
// Section 4.1 lifetime-aware co-location extension.
type LifetimePredictor interface {
	// PredictLifetimeBucket returns the predicted Table 3 lifetime bucket
	// and a confidence score; ok=false is a no-prediction.
	PredictLifetimeBucket(v *trace.VM, requestedVMs int) (bucket int, score float64, ok bool)
}

// Config parameterizes one simulation run.
type Config struct {
	Cluster cluster.Config
	// Predictor provides the RC predictions; nil means no predictions
	// (Baseline and Naive policies, or "assume 100%" behaviour).
	Predictor Predictor
	// ConfidenceThreshold is Algorithm 1's score cut (0 = 0.6); below it
	// the VM is assumed to use its full allocation.
	ConfidenceThreshold float64
	// UtilScale multiplies all real utilization values in the aggregation
	// and the oracle (the "+25%" sensitivity study uses 1.25).
	UtilScale float64
	// BucketShift adds to every predicted bucket, saturating at the top
	// bucket (the sensitivity study adds 1).
	BucketShift int
	// LifetimePredictor enables lifetime-aware co-location when the
	// cluster's LifetimeAware flag is set.
	LifetimePredictor LifetimePredictor
	// Obs receives simulation metrics: arrivals/placements/failures,
	// rule-evaluation counts by rule, predictor calls, and the
	// placements-per-second rate of the run (nil disables them). All sim
	// metrics are labeled by policy (and by RunLabel when set) so sweep
	// points sharing a registry don't clobber each other.
	Obs *obs.Registry
	// RunLabel, when non-empty, is added as a "run" label on every sim
	// metric, distinguishing sweep points that share a policy.
	RunLabel string
}

// Result summarizes one run.
type Result struct {
	Policy   cluster.Policy
	Arrivals int
	Placed   int
	Failures int
	// FailuresProd / FailuresNonProd split the failures by the VM's
	// production tag (diagnosing the segregation cost of Algorithm 1).
	FailuresProd    int
	FailuresNonProd int
	// FailureRate is Failures / Arrivals.
	FailureRate float64
	// ReadingsAbove100 counts (server, 5-minute) aggregated utilization
	// readings exceeding 100% of physical cores.
	ReadingsAbove100 int
	// BusyReadings counts readings on servers hosting at least some load.
	BusyReadings int
	// MaxReadingPct is the highest aggregated server reading observed, as
	// a percentage of server capacity.
	MaxReadingPct float64
	// AvgUtilizationPct is the mean aggregated utilization over all
	// servers and intervals relative to capacity — the "more capacity
	// from the same hardware" measure.
	AvgUtilizationPct float64
	// AllocatedCoreHours is the total core-hours of allocation the
	// cluster hosted (placement-weighted).
	AllocatedCoreHours float64
	// ServerDrains counts transitions of a server to fully empty — each
	// one is a maintenance opportunity that needs no live migration
	// (Section 4.1's lifetime-aware co-location measures this).
	ServerDrains int
}

// Run simulates the trace against a fresh cluster.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	if len(tr.VMs) == 0 {
		return nil, errors.New("sim: empty trace")
	}
	src := newRowSource(tr)
	return runSource(src, cfg, newArena(src, []Config{cfg}, 0))
}

// RunColumns simulates a columnar trace against a fresh cluster without
// materializing row structs: arrivals are filled from chunk columns
// into a bounded pool of scratch VMs, so the allocation count stays flat
// in trace length (the contribution arena is a few slices whose size
// does grow with it). The result is byte-identical to Run over the
// equivalent row trace — both drive the same core, executing the same
// float operations in the same order (see the columns equivalence tests).
func RunColumns(c *trace.Columns, cfg Config) (*Result, error) {
	if c.Len() == 0 {
		return nil, errors.New("sim: empty trace")
	}
	src := newColSource(c, countInitialWavesColumns(c))
	return runSource(src, cfg, newArena(src, []Config{cfg}, 0))
}

// runSource is the shared Section 6.2 core: it drains completions,
// schedules each arrival the source yields, and folds placements into
// the streaming per-server accumulators, which read each placed VM's
// utilization from ar. Everything trace-shaped is behind src, so the row
// and columnar paths differ only in how arrivals are produced.
func runSource(src arrivalSource, cfg Config, ar *arena) (*Result, error) {
	if cfg.ConfidenceThreshold == 0 {
		cfg.ConfidenceThreshold = 0.6
	}
	contrib := ar.forConfig(cfg)
	reg := cfg.Obs
	runLabels := []string{"policy", cfg.Cluster.Policy.String()}
	if cfg.RunLabel != "" {
		runLabels = append(runLabels, "run", cfg.RunLabel)
	}
	withLabels := func(extra ...string) []string {
		return append(append(make([]string, 0, len(runLabels)+len(extra)), runLabels...), extra...)
	}
	runSpan := reg.StartSpan("sim.run")
	arrivals := reg.Counter("rc_sim_arrivals_total", "VM arrivals simulated.", runLabels...)
	placements := reg.Counter("rc_sim_placements_total", "VMs placed by the scheduler.", runLabels...)
	failures := reg.Counter("rc_sim_failures_total", "Scheduling failures.", runLabels...)
	predictions := reg.Counter("rc_sim_predictions_total",
		"Predictor calls made by the simulation, by kind.", withLabels("kind", "p95cpu")...)
	lifetimePreds := reg.Counter("rc_sim_predictions_total", "", withLabels("kind", "lifetime")...)
	if reg.Enabled() {
		ruleCounters := map[string]obs.Counter{}
		for _, rule := range []string{"admission", "spread", "lifetime", "packing"} {
			ruleCounters[rule] = reg.Counter("rc_sim_rule_evaluations_total",
				"Scheduler rule-chain evaluations, by rule.", withLabels("rule", rule)...)
		}
		prev := cfg.Cluster.RuleHook
		cfg.Cluster.RuleHook = func(rule string) {
			if c, ok := ruleCounters[rule]; ok {
				c.Inc()
			}
			if prev != nil {
				prev(rule)
			}
		}
	}
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		runSpan.End()
		return nil, err
	}

	horizon := src.horizon()
	intervals := int(horizon / trace.ReadingIntervalMin)
	if intervals <= 0 {
		runSpan.End()
		return nil, fmt.Errorf("sim: horizon %d too short", horizon)
	}
	// One streaming accumulator per server instead of a servers×intervals
	// matrix: each placement advances the target server's finalized-interval
	// frontier before joining its active set, and the final flush drains
	// every accumulator to the horizon.
	accums := make([]serverAccum, len(cl.Servers))
	// The original stats pass divided by a float32 capacity; keep that
	// rounding so per-reading percentages stay bit-identical.
	capacity := float64(float32(cfg.Cluster.CoresPerServer))

	res := &Result{Policy: cfg.Cluster.Policy}
	var completions completionHeap

	err = src.each(func(i int, v *trace.VM, req *cluster.Request, requested int) error {
		// Release every VM that completed before this arrival.
		for len(completions) > 0 && completions[0].at <= v.Created {
			done := completions.pop()
			srv, err := cl.VMCompleted(done.req)
			if err != nil {
				return err
			}
			if srv.Empty() {
				res.ServerDrains++
			}
			src.release(done.req)
		}

		res.Arrivals++
		arrivals.Inc()
		*req = cluster.Request{
			VM:         v,
			Production: v.Production,
			Deployment: v.Deployment,
		}
		req.PredUtilCores = c95Cores(v, cfg, requested)
		if cfg.Predictor != nil {
			predictions.Inc()
		}
		if cfg.LifetimePredictor != nil {
			lifetimePreds.Inc()
			if b, score, ok := cfg.LifetimePredictor.PredictLifetimeBucket(v, requested); ok && score >= cfg.ConfidenceThreshold {
				req.PredEndTime = v.Created + trace.Minutes(metric.Lifetime.BucketHigh(b))
			}
		}

		server, ok := cl.Schedule(req)
		if !ok {
			res.Failures++
			failures.Inc()
			if req.Production {
				res.FailuresProd++
			} else {
				res.FailuresNonProd++
			}
			src.release(req)
			return nil
		}
		res.Placed++
		placements.Inc()

		end := v.Deleted
		if end > horizon {
			end = horizon
		}
		res.AllocatedCoreHours += float64(end-v.Created) / 60 * float64(v.Cores)
		a := &accums[server.ID]
		startIdx := int(alignUp(v.Created) / trace.ReadingIntervalMin)
		if startIdx > intervals {
			startIdx = intervals
		}
		a.advance(startIdx, capacity)
		// The VM's values start at startIdx; on a trace not sorted by
		// creation the frontier may already be past it, and the intervals
		// it skipped are finalized without this VM.
		cur := contrib.of(i)
		if skip := a.frontier - startIdx; skip > 0 {
			cur = cur[min(skip, len(cur)):]
		}
		a.active = append(a.active, cur)
		if v.Deleted < trace.NoEnd {
			completions.push(completion{at: v.Deleted, req: req})
		} else {
			// The VM never completes inside the window; the cluster keeps
			// only its ID-keyed bookkeeping, so the request can recycle.
			src.release(req)
		}
		return nil
	})
	if err != nil {
		runSpan.End()
		return nil, err
	}

	// Flush every accumulator to the horizon, then combine per-server
	// statistics in server-ID order. The counters and maximum are
	// order-independent; the utilization mean sums per-server subtotals
	// instead of one global chain over every matrix cell — the only float
	// regrouping relative to the matrix implementation (see the streaming
	// equivalence test, whose reference reduces the same way).
	var sum float64
	for i := range accums {
		a := &accums[i]
		a.advance(intervals, capacity)
		sum += a.sumPct
		res.BusyReadings += a.busy
		res.ReadingsAbove100 += a.above100
		if a.maxPct > res.MaxReadingPct {
			res.MaxReadingPct = a.maxPct
		}
	}
	res.AvgUtilizationPct = sum / float64(len(accums)*intervals)
	res.FailureRate = float64(res.Failures) / float64(res.Arrivals)
	if d := runSpan.End(reg.Histogram("rc_sim_run_seconds",
		"Wall time of one simulation run.", obs.DefaultDurationBuckets, runLabels...)); d > 0 {
		reg.Gauge("rc_sim_placements_per_second",
			"Placement throughput of the most recent run.", runLabels...).
			Set(float64(res.Placed) / d.Seconds())
	}
	return res, nil
}

// c95Cores computes V.util of Algorithm 1: the predicted 95th-percentile
// utilization in cores, falling back to the full allocation when there is
// no prediction or the confidence is low (lines 10-13).
func c95Cores(v *trace.VM, cfg Config, requested int) float64 {
	full := float64(v.Cores)
	if cfg.Predictor == nil {
		return full
	}
	bucket, score, ok := cfg.Predictor.PredictP95Bucket(v, requested)
	if !ok || score < cfg.ConfidenceThreshold {
		return full
	}
	bucket += cfg.BucketShift
	if max := metric.P95CPU.Buckets() - 1; bucket > max {
		bucket = max
	}
	return metric.P95CPU.BucketHigh(bucket) / 100 * full
}

// serverAccum streams one server's utilization statistics without
// materializing its per-interval series. Intervals below frontier are
// finalized; active holds the VMs that can still contribute, in placement
// order — the same order the matrix implementation accumulated each
// float32 cell in, which keeps every reading bit-identical. Each entry is
// a cursor into the contribution arena whose first value is the VM's
// contribution to interval frontier.
type serverAccum struct {
	frontier int // next unfinalized 5-minute interval
	active   [][]float32
	sumPct   float64
	busy     int
	above100 int
	maxPct   float64
}

// advance finalizes intervals [frontier, upto), folding the paper's
// pessimistic aggregation — the sum of co-located VMs' interval-maximum
// utilizations, each pessimistically held for the whole 5-minute window —
// into the running statistics. Contributions only cover intervals the VM
// fully occupies: two VMs that time-share a server slot within one window
// must not double-count, otherwise even non-oversubscribed servers would
// report readings above 100% (the paper's Baseline never does), which is
// why the arena stores only those intervals. A VM whose cursor is empty
// has no window left and is compacted out in place, preserving order;
// once the active set is empty every remaining reading is exactly zero,
// so the frontier jumps straight to upto.
func (a *serverAccum) advance(upto int, capacity float64) {
	for ; a.frontier < upto; a.frontier++ {
		if len(a.active) == 0 {
			a.frontier = upto
			break
		}
		var reading float32
		live := a.active[:0]
		for _, cur := range a.active {
			if len(cur) == 0 {
				continue
			}
			reading += cur[0]
			live = append(live, cur[1:])
		}
		a.active = live
		if reading <= 0 {
			continue
		}
		pct := float64(reading) / capacity * 100
		a.sumPct += pct
		a.busy++
		if pct > 100 {
			a.above100++
		}
		if pct > a.maxPct {
			a.maxPct = pct
		}
	}
}

// alignUp rounds t up to the 5-minute reading grid.
func alignUp(t trace.Minutes) trace.Minutes {
	if rem := t % trace.ReadingIntervalMin; rem != 0 {
		t += trace.ReadingIntervalMin - rem
	}
	return t
}

// completion is a pending VM termination.
type completion struct {
	at  trace.Minutes
	req *cluster.Request
}

// completionHeap is a binary min-heap on completion time. The typed
// push/pop replicate container/heap's sift algorithm exactly — same
// child choice, same tie behaviour — so pop order (and therefore every
// downstream float) matches the original container/heap implementation,
// without boxing each completion into an interface per push.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
	j := len(*h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if (*h)[j].at >= (*h)[i].at {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

// pop removes and returns the earliest completion.
//
//rcvet:hotpath
func (h *completionHeap) pop() completion {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[:n].down(0)
	c := old[n]
	*h = old[:n]
	return c
}

//rcvet:hotpath
func (h completionHeap) down(i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].at < h[j1].at {
			j = j2
		}
		if h[j].at >= h[i].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Len, Less, Swap, Push and Pop keep completionHeap usable with
// container/heap; the matrix-reference equivalence test drives it that
// way to prove the typed operations above preserve the original order.
func (h completionHeap) Len() int           { return len(h) }
func (h completionHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h completionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
