package serve

import (
	"sync/atomic"

	"resourcecentral/internal/obs"
)

// tierMetrics holds the serving tier's obs instruments. Counter names
// follow the repo's rc_ convention; the coalesce pair makes the
// coalescing story auditable live (hit rate = followers / (leaders +
// followers)), and the shed counters are the overload signal a load
// generator measures.
type tierMetrics struct {
	reg *obs.Registry

	coalesceLeaders   obs.Counter
	coalesceFollowers obs.Counter
	batches           obs.Counter
	degraded          obs.Counter
	batchSize         obs.Histogram
	batchWait         obs.Histogram
	upstreamSeconds   obs.Histogram
}

// Shed reasons (label values of rc_serve_shed_total).
const (
	shedAdmission = "admission" // in-flight budget exhausted
	shedQueue     = "queue"     // batcher input queue full
)

func newTierMetrics(reg *obs.Registry) *tierMetrics {
	return &tierMetrics{
		reg: reg,
		coalesceLeaders: reg.Counter("rc_serve_coalesce_leaders_total",
			"Requests that started a new upstream flight (coalescing leaders)."),
		coalesceFollowers: reg.Counter("rc_serve_coalesce_followers_total",
			"Requests served by joining another request's in-flight upstream call."),
		batches: reg.Counter("rc_serve_batches_total",
			"Aggregated upstream PredictMany calls issued by the batcher."),
		degraded: reg.Counter("rc_serve_degraded_total",
			"Responses answered with the no-prediction flag because the tier degraded (shed)."),
		batchSize: reg.Histogram("rc_serve_batch_size",
			"Distinct lookups per aggregated upstream call.",
			obs.ExponentialBuckets(1, 2, 12)),
		batchWait: reg.Histogram("rc_serve_batch_wait_seconds",
			"Time a leader call spent queued in the batcher before its group flushed.", nil),
		upstreamSeconds: reg.Histogram("rc_serve_upstream_seconds",
			"Latency of aggregated upstream PredictMany calls.", nil),
	}
}

// shedFor returns the shed counter labeled with the reason (constant
// label values only; cardinality is 2).
func (m *tierMetrics) shedFor(reason string) obs.Counter {
	return m.reg.Counter("rc_serve_shed_total",
		"Requests shed by admission control, by reason.", "reason", reason)
}

// registerInflight exposes the live admission count as a gauge.
func (m *tierMetrics) registerInflight(inflight *atomic.Int64) {
	m.reg.GaugeFunc("rc_serve_inflight",
		"Requests admitted and not yet answered.",
		func() float64 { return float64(inflight.Load()) })
}
