package main

import "time"

// Workload names, in the order a full run executes them.
const (
	wClientHit     = "client.hit"
	wClientMiss    = "client.miss"
	wServeSteady   = "serve.steady"
	wServeChurn    = "serve.churn"
	wHTTPMixed     = "http.mixed"
	wOfflineTrain  = "offline.train"
	wOfflineIngest = "offline.ingest"
	wSchedSweep    = "sched.sweep"
)

// metricDef names one metric and its unit. BENCHMARK.json repeats these
// tables with directions and bounds; TestBenchmarkJSON keeps the two in
// step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees. An operation is one
// prediction lookup on client.*, serve.* and http.mixed, and one pass
// of the whole chain on offline.* and sched.sweep.
var endToEnd = []metricDef{
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"throughput", "1/s"},
	{"setup_s", "s"},
}

// perLayer lists every layer metric a traced run prints; one that does
// not apply to the workload reads 0.
var perLayer = []metricDef{
	{"core.hit_share", "ratio"},
	{"core.exec_count", "count"},
	{"core.nopred_count", "count"},
	{"core.push_updates", "count"},
	{"core.init_ms", "ms"},
	{"core.predictmany_p50_us", "us"},
	{"core.predictmany_p99_us", "us"},
	{"core.predictmany_calls", "count"},
	{"core.predictmany_lookups_per_call", "count"},
	{"serve.wait_p50_us", "us"},
	{"serve.wait_p99_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.coalesce_share", "ratio"},
	{"serve.shed_share", "ratio"},
	{"serve.hub_sent", "count"},
	{"serve.hub_dropped", "count"},
	{"store.publish_ms", "ms"},
	{"store.put_count", "count"},
	{"rcserve.handler_us", "us"},
	{"rcserve.batch_wait_us", "us"},
	{"rcserve.upstream_us", "us"},
	{"rcserve.transport_us", "us"},
	{"trace.transcode_mb_per_s", "MB/s"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"charz.vmstats_s", "s"},
	{"featuredata.build_s", "s"},
	{"featuredata.encode_ms", "ms"},
	{"pipeline.extract_s", "s"},
	{"pipeline.featuredata_s", "s"},
	{"pipeline.train_s", "s"},
	{"pipeline.train_s.avg-cpu-util", "s"},
	{"pipeline.train_s.p95-cpu-util", "s"},
	{"pipeline.train_s.deploy-size-vms", "s"},
	{"pipeline.train_s.deploy-size-cores", "s"},
	{"pipeline.train_s.lifetime", "s"},
	{"pipeline.train_s.workload-class", "s"},
	{"sim.run_s.baseline", "s"},
	{"sim.run_s.naive", "s"},
	{"sim.run_s.rc-informed-soft", "s"},
	{"sim.run_s.rc-informed-hard", "s"},
	{"sim.predictor_calls", "count"},
	{"sim.predictor_s", "s"},
	{"cluster.rule_evals", "count"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"gen.late_max_us", "us"},
	{"gen.inflight_max", "count"},
	{"process.alloc_mb", "MB"},
	{"process.heap_peak_mb", "MB"},
	{"process.gc_pause_ms", "ms"},
}

// sizes freezes every workload's inputs. They were chosen so that on a
// 2-core host one set-up and one pass of a batch workload each take
// about a second, which keeps a whole run (three set-ups plus the timed
// phase) inside the driver's budget.
type sizes struct {
	// SetupRepeats is the least number of set-ups per run; setup_s is
	// their median. A set-up that takes milliseconds is repeated until
	// SetupMinTotal has been spent (at most 40 times), because a short
	// time is a noisy one.
	SetupRepeats  int
	SetupMinTotal time.Duration

	// The trained system behind client.* and serve.*.
	ServeVMs, ServeDays int
	HitItems            int // client.hit hot inputs (x6 models = hot keys)
	MissCacheCap        int // client.miss ResultCacheCap
	UnknownShare        float64

	// serve.* traffic.
	ServeRate    float64 // lookups/s in the open phase
	BatchShare   float64 // arrivals that are PredictBatch calls
	BatchSize    int
	HotShare     float64
	HotItems     int
	SatCallers   int // closed-loop callers in the saturation phase
	PublishEvery time.Duration
	HubSubs      int
	HubBuffer    int

	// http.mixed.
	HTTPVMs, HTTPDays int
	HTTPRate          float64 // requests/s

	// Batch workloads.
	TrainVMs, TrainDays              int
	IngestVMs, IngestDays            int
	SweepVMs, SweepDays, SweepServer int
	SweepTrees                       int

	// Deadlines after which an answer counts as failed.
	DeadlineInProc, DeadlineHTTP time.Duration
	// Generator lateness (p99) above which a run is invalid. serve.churn
	// has its own: each publish occupies both processors of a small host
	// for milliseconds, and the pacer shares them.
	LateInProc, LateChurn, LateHTTP time.Duration
}

var fullSizes = sizes{
	SetupRepeats:  3,
	SetupMinTotal: time.Second,

	ServeVMs: 4000, ServeDays: 10,
	HitItems:     683,
	MissCacheCap: 256,
	UnknownShare: 0.10,

	ServeRate:    10000,
	BatchShare:   0.05,
	BatchSize:    16,
	HotShare:     0.5,
	HotItems:     64,
	SatCallers:   512,
	PublishEvery: 100 * time.Millisecond,
	HubSubs:      8,
	HubBuffer:    1024,

	HTTPVMs: 4000, HTTPDays: 10,
	HTTPRate: 600,

	TrainVMs: 3000, TrainDays: 30,
	IngestVMs: 32000, IngestDays: 30,
	SweepVMs: 18000, SweepDays: 30, SweepServer: 100,
	SweepTrees: 10,

	DeadlineInProc: 50 * time.Millisecond,
	DeadlineHTTP:   250 * time.Millisecond,
	LateInProc:     500 * time.Microsecond,
	LateChurn:      10 * time.Millisecond,
	LateHTTP:       2 * time.Millisecond,
}

// smokeSizes exercises every code path in about a second per workload;
// its numbers mean nothing and goldens are not checked.
var smokeSizes = sizes{
	SetupRepeats: 1,

	ServeVMs: 1200, ServeDays: 12,
	HitItems:     64,
	MissCacheCap: 32,
	UnknownShare: 0.10,

	ServeRate:    2000,
	BatchShare:   0.05,
	BatchSize:    16,
	HotShare:     0.5,
	HotItems:     16,
	SatCallers:   16,
	PublishEvery: 50 * time.Millisecond,
	HubSubs:      8,
	HubBuffer:    64,

	HTTPVMs: 1200, HTTPDays: 12,
	HTTPRate: 200,

	TrainVMs: 1200, TrainDays: 12,
	IngestVMs: 1500, IngestDays: 6,
	SweepVMs: 2000, SweepDays: 30, SweepServer: 14,
	SweepTrees: 4,

	DeadlineInProc: time.Second,
	DeadlineHTTP:   time.Second,
	LateInProc:     time.Second,
	LateChurn:      time.Second,
	LateHTTP:       time.Second,
}
