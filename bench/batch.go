package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"resourcecentral/internal/charz"
	"resourcecentral/internal/cluster"
	"resourcecentral/internal/core"
	"resourcecentral/internal/featuredata"
	"resourcecentral/internal/fftperiod"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/sim"
	"resourcecentral/internal/store"
	"resourcecentral/internal/trace"
)

// batchLoad is a workload that is one chain of calls over a whole
// trace, repeated until the run's time is spent. An operation is one
// pass, and every pass must produce the same outputs.
type batchLoad struct {
	name string
	// units is the work of one pass: VMs, or VMs x sweep points.
	units int
	// pass runs the chain once and returns a signature of its outputs.
	pass func(c *runCtx, st *stages) (signature, error)
	// begin, if set, is called before the first timed pass: it drops
	// what the warm-up pass accumulated.
	begin func(c *runCtx)
	// finish reports the layer metrics from the stage times.
	finish  func(c *runCtx, st *stages, passes int)
	closeFn func()
}

// signature is what a pass produced, as comparable strings: hashes of
// output bytes and exact renderings of numbers.
type signature map[string]string

// prepare runs one pass untimed, so that the timed passes do not
// include growing the heap to the chain's working set.
func (b *batchLoad) prepare(c *runCtx) error {
	_, err := b.pass(c, newStages(nil, time.Now()))
	return err
}

func (b *batchLoad) close() {
	if b.closeFn != nil {
		b.closeFn()
	}
}

func (b *batchLoad) run(c *runCtx, d time.Duration) error {
	if b.begin != nil {
		b.begin(c)
	}
	base := time.Now()
	st := newStages(c.rec, base)
	var took []float64 // seconds per pass
	var first signature
	var busy time.Duration
	passes := 0
	// At least two passes, so that there is always one to compare.
	for busy < d || passes < 2 {
		start := time.Since(base)
		sig, err := b.pass(c, st)
		if err != nil {
			return fmt.Errorf("pass %d: %w", passes+1, err)
		}
		end := time.Since(base)
		st.endPass(start, end)
		took = append(took, (end - start).Seconds())
		busy += end - start
		passes++
		if first == nil {
			first = sig
			continue
		}
		for key, want := range first {
			if sig[key] != want {
				c.problem("pass %d differs from pass 1: %s = %s, was %s", passes, key, sig[key], want)
			}
		}
	}
	checkGolden(c, b.name, first)
	c.phase(phaseCounts{Name: "passes", Attempted: int64(passes), Succeeded: int64(passes), Samples: int64(passes)})
	// A pass is the operation: the median pass, and the slowest, which
	// is what the nearest-rank p99 of under a hundred samples is.
	mid := median(took)
	c.res.Metrics["op_p50_us"] = value{Value: mid * 1e6}
	c.res.Metrics["op_p99_us"] = value{Value: took[len(took)-1] * 1e6}
	c.diag("op_samples", float64(passes), "count")
	c.res.Metrics["throughput"] = value{Value: float64(b.units) / mid}
	c.diag("pass_units", float64(b.units), "count")
	c.diag("stage_share_of_wall", st.total/busy.Seconds(), "ratio")
	b.finish(c, st, passes)
	return nil
}

// azureCSV renders the trace in the public AzurePublicDataset vmtable
// schema, the format trace.TranscodeAzureVMTable reads. The dataset's
// summary columns (max, avg and p95 CPU, category) are derived from the
// parameters of each VM's utilization model, not by walking its series,
// which would cost more than the chain being measured.
func azureCSV(tr *trace.Trace) []byte {
	var b bytes.Buffer
	b.WriteString("vmid,subscriptionid,deploymentid,vmcreated,vmdeleted,maxcpu,avgcpu,p95maxcpu,vmcategory,vmcorecount,vmmemory\n")
	horizonSec := int64(tr.Horizon) * 60
	num := make([]byte, 0, 32)
	for i := range tr.VMs {
		v := &tr.VMs[i]
		deleted := horizonSec
		if v.Deleted != trace.NoEnd {
			deleted = int64(v.Deleted) * 60
		}
		m := &v.Util
		avg, p95, category := m.Base, m.Base+m.Amplitude, "Delay-insensitive"
		switch m.Kind {
		case trace.UtilDiurnal:
			avg, category = m.Base+m.Amplitude/2, "Interactive"
		case trace.UtilBursty:
			avg = m.Base + m.SpikeProb*m.Amplitude
		case trace.UtilRamp:
			avg = m.Base + m.Amplitude/2
		case trace.UtilIdle:
			p95, category = m.Base, "Unknown"
		}
		avg, p95 = math.Min(avg, 100), math.Min(p95+4, 100)
		maxCPU := math.Min(p95+m.NoiseSD, 100)
		fmt.Fprintf(&b, "vm-%d,%s,%s,%d,%d,", v.ID, v.Subscription, v.Deployment, int64(v.Created)*60, deleted)
		for _, f := range []float64{maxCPU, avg, p95} {
			num = strconv.AppendFloat(num[:0], f, 'f', 4, 64)
			b.Write(num)
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s,%d,%s\n", category, v.Cores, strconv.FormatFloat(v.MemoryGB, 'g', -1, 64))
	}
	return b.Bytes()
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// exact renders a float so that equal strings mean equal values.
func exact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ingested is the front of both offline chains: CSV bytes to RCTB bytes
// to columns.
type ingested struct {
	csv      []byte
	rows     int
	horizon  int64 // seconds
	rctbSize int
}

func newIngested(seed uint64, vms, days int) (*ingested, error) {
	tr, err := synthTrace(seed, vms, days)
	if err != nil {
		return nil, err
	}
	return &ingested{csv: azureCSV(tr), rows: len(tr.VMs), horizon: int64(tr.Horizon) * 60}, nil
}

// load transcodes and decodes, checking that no row is lost.
func (in *ingested) load(st *stages, sig signature, decode func([]byte) (*trace.Columns, error)) (*trace.Columns, error) {
	var rctb bytes.Buffer
	var n int
	err := st.do("trace.TranscodeAzureVMTable", func() (err error) {
		n, err = trace.TranscodeAzureVMTable(&rctb, bytes.NewReader(in.csv), in.horizon)
		return err
	})
	if err != nil {
		return nil, err
	}
	var cols *trace.Columns
	err = st.do("trace.DecodeColumns", func() (err error) {
		cols, err = decode(rctb.Bytes())
		return err
	})
	if err != nil {
		return nil, err
	}
	if n != in.rows || cols.Len() != in.rows {
		return nil, fmt.Errorf("CSV has %d rows, transcode wrote %d, decode read %d", in.rows, n, cols.Len())
	}
	in.rctbSize = rctb.Len()
	sig["rctb_sha256"] = sha(rctb.Bytes())
	return cols, nil
}

// codecLayers reports the two trace-codec stages as throughput.
func (in *ingested) codecLayers(c *runCtx, st *stages, passes int) {
	if s := st.secs["trace.TranscodeAzureVMTable"]; s > 0 {
		c.layer("trace.transcode_mb_per_s", float64(len(in.csv)*passes)/1e6/s)
	}
	if s := st.secs["trace.DecodeColumns"]; s > 0 {
		c.layer("trace.decode_mb_per_s", float64(in.rctbSize*passes)/1e6/s)
	}
	c.diag("csv_mb", float64(len(in.csv))/1e6, "MB")
}

// setupOfflineTrain is the ROADMAP's offline chain: Azure CSV, RCTB,
// columns, the whole pipeline with its defaults, publish, and a client
// that loads what was published.
func setupOfflineTrain(c *runCtx) (instance, error) {
	in, err := newIngested(c.seed, c.sz.TrainVMs, c.sz.TrainDays)
	if err != nil {
		return nil, err
	}
	// cmd/rctrain runs the pipeline without a registry; a traced run
	// adds one to read the pipeline's own stage times and spans.
	var reg *obs.Registry
	var cur *stages
	b := &batchLoad{name: wOfflineTrain, units: in.rows}
	b.begin = func(c *runCtx) {
		if c.rec == nil {
			return
		}
		reg = obs.NewRegistry()
		reg.OnSpanEnd(func(ev obs.SpanEvent) {
			parent := "pipeline.run"
			switch {
			case ev.Name == "pipeline.run":
				parent = "pipeline.RunColumns"
			case strings.HasPrefix(ev.Name, "pipeline.train."):
				parent = "pipeline.train"
			}
			c.rec.add(ev.Start, []span{{Name: ev.Name, End: int64(ev.Duration), Req: cur.pass, Parent: parent}})
		})
	}
	b.pass = func(c *runCtx, st *stages) (signature, error) {
		cur = st
		sig := signature{}
		cols, err := in.load(st, sig, trace.DecodeColumns)
		if err != nil {
			return nil, err
		}
		var res *pipeline.Result
		err = st.do("pipeline.RunColumns", func() (err error) {
			res, err = pipeline.RunColumns(cols, pipeline.Config{TrainCutoff: cols.Horizon * 2 / 3, Seed: c.seed, Obs: reg})
			return err
		})
		if err != nil {
			return nil, err
		}
		pub := store.New()
		if err := st.do("pipeline.Publish", func() error { return pipeline.Publish(pub, res) }); err != nil {
			return nil, err
		}
		var client *core.Client
		err = st.do("core.Client.Initialize", func() (err error) {
			if client, err = core.New(core.Config{Store: pub, Mode: core.Push}); err != nil {
				return err
			}
			return client.Initialize()
		})
		if err != nil {
			return nil, err
		}
		client.Close()
		// Table 4: prediction quality per metric on the held-out third.
		for _, m := range metric.All {
			if r := res.ByMetric[m].Report; r != nil {
				sig["accuracy."+m.String()] = exact(r.Accuracy)
			}
		}
		sig["feature_bytes"] = strconv.Itoa(res.FeatureDataBytes)
		return sig, nil
	}
	b.finish = func(c *runCtx, st *stages, passes int) {
		n := float64(passes)
		in.codecLayers(c, st, passes)
		c.layer("core.init_ms", st.secs["core.Client.Initialize"]/n*1e3)
		c.layer("store.publish_ms", st.secs["pipeline.Publish"]/n*1e3)
		if reg == nil {
			return
		}
		stage := func(name string) float64 {
			snap, _ := reg.Snapshot("rc_pipeline_stage_seconds", "stage", name)
			return snap.Sum / n
		}
		c.layer("pipeline.extract_s", stage("extract"))
		c.layer("pipeline.featuredata_s", stage("featuredata"))
		c.layer("pipeline.train_s", stage("train"))
		for _, m := range metric.All {
			snap, _ := reg.Snapshot("rc_pipeline_train_seconds", "metric", m.String())
			c.layer("pipeline.train_s."+m.String(), snap.Sum/n)
		}
		if share := stage("train") * n / st.secs["pipeline.RunColumns"]; share < 0.8 && !c.smoke {
			c.problem("pipeline.train_s is %.0f%% of the pipeline, want at least 80%%: offline.train is not training-bound", 100*share)
		}
	}
	return b, nil
}

// setupOfflineIngest is the Section 3 characterization path at dataset
// scale: the same front, then per-VM statistics and feature data, and
// no training.
func setupOfflineIngest(c *runCtx) (instance, error) {
	in, err := newIngested(c.seed, c.sz.IngestVMs, c.sz.IngestDays)
	if err != nil {
		return nil, err
	}
	workers := c.nproc
	b := &batchLoad{name: wOfflineIngest, units: in.rows}
	b.pass = func(c *runCtx, st *stages) (signature, error) {
		sig := signature{}
		cols, err := in.load(st, sig, func(data []byte) (*trace.Columns, error) {
			return trace.DecodeColumnsParallel(data, workers)
		})
		if err != nil {
			return nil, err
		}
		var stats []charz.VMStat
		err = st.do("charz.ComputeVMStatsColumns", func() (err error) {
			stats, err = charz.ComputeVMStatsColumns(cols, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(stats) != in.rows {
			return nil, fmt.Errorf("%d VM statistics for %d rows", len(stats), in.rows)
		}
		var feats map[string]*featuredata.SubscriptionFeatures
		err = st.do("featuredata.BuildColumnsParallel", func() (err error) {
			feats, err = featuredata.BuildColumnsParallel(cols, cols.Horizon*2/3, fftperiod.NewDetector(), workers)
			return err
		})
		if err != nil {
			return nil, err
		}
		var encoded []byte
		err = st.do("featuredata.EncodeSet", func() (err error) {
			encoded, err = featuredata.EncodeSet(feats)
			return err
		})
		if err != nil {
			return nil, err
		}
		var coreHours float64
		for i := range stats {
			coreHours += stats[i].CoreHours
		}
		sig["core_hours"] = exact(coreHours)
		sig["featureset_sha256"] = sha(encoded)
		return sig, nil
	}
	b.finish = func(c *runCtx, st *stages, passes int) {
		n := float64(passes)
		in.codecLayers(c, st, passes)
		c.layer("charz.vmstats_s", st.secs["charz.ComputeVMStatsColumns"]/n)
		c.layer("featuredata.build_s", st.secs["featuredata.BuildColumnsParallel"]/n)
		c.layer("featuredata.encode_ms", st.secs["featuredata.EncodeSet"]/n*1e3)
	}
	return b, nil
}

// sweepPolicies are the Section 6.2 schedulers; the last two consult
// the client once per arrival.
var sweepPolicies = []cluster.Policy{cluster.Baseline, cluster.Naive, cluster.RCSoft, cluster.RCHard}

// setupSchedSweep trains a small client on the first fifth of the trace
// and sweeps the four policies over all of it on a cluster sized to put
// the sweep in the loaded regime, as cmd/rcsched does.
func setupSchedSweep(c *runCtx) (instance, error) {
	tr, err := synthTrace(c.seed, c.sz.SweepVMs, c.sz.SweepDays)
	if err != nil {
		return nil, err
	}
	cols := trace.FromTrace(tr)
	res, err := pipeline.RunColumns(cols, pipeline.Config{
		TrainCutoff: cols.Horizon / 5, Seed: c.seed,
		ForestTrees: c.sz.SweepTrees, GBTRounds: c.sz.SweepTrees,
	})
	if err != nil {
		return nil, err
	}
	st := store.New()
	if err := pipeline.Publish(st, res); err != nil {
		return nil, err
	}
	client, err := core.New(core.Config{Store: st, Mode: core.Push})
	if err != nil {
		return nil, err
	}
	if err := client.Initialize(); err != nil {
		return nil, err
	}
	var before core.Stats

	// What the traced passes accumulate: the decorators' counts and the
	// simulator's own metrics.
	var predCalls, predNs int64
	var runSecs map[string]float64
	var ruleEvals float64
	b := &batchLoad{name: wSchedSweep, units: cols.Len() * len(sweepPolicies), closeFn: client.Close}
	b.begin = func(*runCtx) {
		predCalls, predNs, ruleEvals = 0, 0, 0
		runSecs = map[string]float64{}
		before = client.Stats()
	}
	b.pass = func(c *runCtx, stg *stages) (signature, error) {
		// Every pass starts with an empty result cache, as a fresh
		// cmd/rcsched run does; otherwise only the first would execute
		// models.
		if err := client.ForceReloadCache(); err != nil {
			return nil, err
		}
		cfgs := make([]sim.Config, len(sweepPolicies))
		predictors := make([]*tracedPredictor, len(sweepPolicies))
		for i, policy := range sweepPolicies {
			cfgs[i] = sim.Config{RunLabel: policy.String(), Cluster: cluster.Config{
				Servers: c.sz.SweepServer, CoresPerServer: 16, MemGBPerServer: 112,
				MaxOversub: 1.25, MaxUtil: 1.0, Policy: policy,
			}}
			if policy == cluster.RCSoft || policy == cluster.RCHard {
				cfgs[i].Predictor = &sim.ClientPredictor{Client: client}
			}
			if stg.rec == nil {
				continue // cmd/rcsched runs its sweep without registries
			}
			// One span per sweep point, from the simulator's own
			// sim.run span, and under it the predictor's total.
			if cfgs[i].Predictor != nil {
				predictors[i] = &tracedPredictor{inner: cfgs[i].Predictor}
				cfgs[i].Predictor = predictors[i]
			}
			cfgs[i].Obs = obs.NewRegistry()
			cfgs[i].Obs.OnSpanEnd(func(ev obs.SpanEvent) {
				name := "sim.run." + policy.String()
				spans := []span{{Name: name, End: int64(ev.Duration), Req: stg.pass, Parent: "sim.RunSweepColumns"}}
				if p := predictors[i]; p != nil {
					spans = append(spans, span{Name: "sim.Predictor", End: p.ns, Req: stg.pass, Parent: name})
				}
				stg.rec.add(ev.Start, spans)
			})
		}
		var sweep *sim.SweepResult
		err := stg.do("sim.RunSweepColumns", func() (err error) {
			sweep, err = sim.RunSweepColumns(cols, cfgs, sim.SweepOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, p := range predictors {
			if p != nil {
				predCalls += p.calls
				predNs += p.ns
			}
		}
		sig := signature{}
		for i, r := range sweep.Results {
			if r.Placed+r.Failures != r.Arrivals || r.Arrivals != cols.Len() {
				return nil, fmt.Errorf("%s: placed %d + failed %d != arrivals %d (trace has %d VMs)",
					cfgs[i].RunLabel, r.Placed, r.Failures, r.Arrivals, cols.Len())
			}
			sig[cfgs[i].RunLabel] = fmt.Sprintf("arrivals=%d placed=%d failures=%d above100=%d",
				r.Arrivals, r.Placed, r.Failures, r.ReadingsAbove100)
		}
		for _, fam := range sweep.Metrics {
			for _, s := range fam.Samples {
				switch fam.Name {
				case "rc_sim_run_seconds":
					runSecs[labelValue(s.Labels, "policy")] += s.Histogram.Sum
				case "rc_sim_rule_evaluations_total":
					ruleEvals += s.Value
				}
			}
		}
		return sig, nil
	}
	b.finish = func(c *runCtx, stg *stages, passes int) {
		n := float64(passes)
		for _, policy := range sweepPolicies {
			c.layer("sim.run_s."+policy.String(), runSecs[policy.String()]/n)
		}
		c.layer("cluster.rule_evals", ruleEvals/n)
		c.layer("sim.predictor_calls", float64(predCalls)/n)
		c.layer("sim.predictor_s", float64(predNs)/1e9/n)
		clientLayers(c, before, client.Stats())
	}
	return b, nil
}

func labelValue(labels []obs.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}
