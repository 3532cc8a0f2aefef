package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"resourcecentral/internal/core"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/model"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/store"
	"resourcecentral/internal/synth"
	"resourcecentral/internal/trace"
)

// Streams of the seeded generators, so that no two uses of the seed
// draw the same sequence.
const (
	streamSchedule = 0x5c4ed01e
	streamDraws    = 0xd4a7500d
	streamHot      = 0x407c0de5
	streamSample   = 0x5a3b1e00
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// baseSeed generates the one base trace of each size. A batch
// workload's seed then picks which four fifths of its VMs the run sees,
// so that every seed gives different inputs but the same amount of
// work: the generator's own output for two seeds can differ twofold in
// VM count and subscription mix, and run-to-run spread over seeds would
// measure that and not the system.
//
// The lookup workloads go one step further and train their system on
// the baseSeed sample whatever the run's seed, which picks the hot set,
// the draws and the arrival times: those are a server's inputs. Two
// samples train trees of different depth, and that alone moved
// client.miss's median by a tenth between seeds.
const baseSeed = 1

// synthTrace generates the base trace the way the command-line tools do
// (cli.TraceSource: paper-calibrated defaults, three knobs) and keeps a
// seeded sample of exactly four fifths of its VMs, in creation order.
func synthTrace(seed uint64, vms, days int) (*trace.Trace, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed, cfg.TargetVMs, cfg.Days = baseSeed, vms, days
	res, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	all := res.Trace.VMs
	need := len(all) * 4 / 5
	r := newRand(seed, streamSample)
	kept := make([]trace.VM, 0, need)
	for i := range all {
		// Selection sampling: each VM is kept with probability
		// (still needed) / (still to come).
		if r.IntN(len(all)-i) < need-len(kept) {
			kept = append(kept, all[i])
		}
	}
	return &trace.Trace{Horizon: res.Trace.Horizon, VMs: kept}, nil
}

// modelNames are the six model names, in Table 1 order.
var modelNames = func() []string {
	names := make([]string, len(metric.All))
	for i, m := range metric.All {
		names[i] = m.String()
	}
	return names
}()

// system is a trained, published and loaded Resource Central: what
// cmd/rcserve builds before it starts listening.
type system struct {
	tr     *trace.Trace
	res    *pipeline.Result
	st     *store.Store
	reg    *obs.Registry
	client *core.Client
	pop    *population
	initMs float64
}

// buildSystem synthesizes the trace, runs the offline pipeline on its
// first two thirds, publishes and initializes a push-mode client, all
// sharing one registry as in cmd/rcserve, and derives the lookup
// population from the trace.
func buildSystem(sz *sizes, resultCacheCap int) (*system, error) {
	tr, err := synthTrace(baseSeed, sz.ServeVMs, sz.ServeDays)
	if err != nil {
		return nil, err
	}
	s := &system{tr: tr, st: store.New(), reg: obs.NewRegistry()}
	cols := trace.FromTrace(tr)
	s.res, err = pipeline.RunColumns(cols, pipeline.Config{TrainCutoff: cols.Horizon * 2 / 3, Seed: baseSeed, Obs: s.reg})
	if err != nil {
		return nil, err
	}
	s.st.Instrument(s.reg)
	if err := pipeline.Publish(s.st, s.res, s.reg); err != nil {
		return nil, err
	}
	s.client, err = core.New(core.Config{Store: s.st, Mode: core.Push, Obs: s.reg, ResultCacheCap: resultCacheCap})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.client.Initialize(); err != nil {
		return nil, err
	}
	s.initMs = float64(time.Since(start)) / 1e6
	s.pop, err = buildPopulation(tr, func(sub string) bool { return s.res.Features[sub] != nil }, sz.UnknownShare)
	if err != nil {
		s.client.Close()
		return nil, err
	}
	return s, nil
}

func (s *system) close() { s.client.Close() }

// population is the set of distinct lookup inputs drawn from a trace:
// items[:known] belong to subscriptions with feature data, the rest are
// the same inputs under subscriptions the system has never seen, for
// which the correct answer is a no-prediction (paper Section 4.2).
type population struct {
	items []model.ClientInputs
	known int
	// want[m*len(items)+i] is the reference answer for model m, item i.
	want []core.Prediction
}

// buildPopulation derives the inputs from the trace VMs whose
// subscription is known to the trained system, keeping one per
// result-cache key, and appends unknownShare of unknown ones.
func buildPopulation(tr *trace.Trace, known func(subscription string) bool, unknownShare float64) (*population, error) {
	p := &population{}
	seen := make(map[uint64]bool, len(tr.VMs))
	for i := range tr.VMs {
		in := model.FromVM(&tr.VMs[i], 1+i%4)
		if !known(in.Subscription) {
			continue
		}
		if key := in.CacheKey(""); !seen[key] {
			seen[key] = true
			p.items = append(p.items, in)
		}
	}
	p.known = len(p.items)
	if p.known == 0 {
		return nil, fmt.Errorf("no trace VM belongs to a subscription with feature data")
	}
	unknown := int(float64(p.known) * unknownShare / (1 - unknownShare))
	for i := 0; i < unknown; i++ {
		in := p.items[i*p.known/unknown]
		in.Subscription = fmt.Sprintf("bench-unknown-%05d", i)
		p.items = append(p.items, in)
	}
	return p, nil
}

// answer computes the reference answers on a second, untimed client
// over the same store.
func (p *population) answer(st *store.Store) error {
	ref, err := core.New(core.Config{Store: st, Mode: core.Push, Obs: obs.NewNopRegistry()})
	if err != nil {
		return err
	}
	if err := ref.Initialize(); err != nil {
		return err
	}
	defer ref.Close()
	p.want = make([]core.Prediction, len(modelNames)*len(p.items))
	for m, name := range modelNames {
		for i := range p.items {
			pred, err := ref.PredictSingle(name, &p.items[i])
			if err != nil {
				return err
			}
			if pred.OK != (i < p.known) {
				return fmt.Errorf("reference %s item %d: OK=%v, want %v", name, i, pred.OK, i < p.known)
			}
			p.want[m*len(p.items)+i] = pred
		}
	}
	return nil
}

// report prints the population's size, which depends on the seed.
func (p *population) report(c *runCtx) {
	c.diag("population_inputs", float64(len(p.items)), "count")
	c.diag("population_known", float64(p.known), "count")
}

// matches reports whether got is the reference answer for (m, item).
func (p *population) matches(m uint8, item int32, got core.Prediction) bool {
	w := &p.want[int(m)*len(p.items)+int(item)]
	return got.OK == w.OK && got.Bucket == w.Bucket && got.Score == w.Score
}

// draw is one lookup: a model and an input.
type draw struct {
	item  int32
	model uint8
}

// mix describes how lookups are drawn from a population.
type mix struct {
	hot      []int32 // hot item indices; empty = no hot set
	hotShare float64
	unknown  float64 // share of cold draws from unknown subscriptions
}

func (p *population) draw(r *rand.Rand, mx *mix) draw {
	d := draw{model: uint8(r.IntN(len(modelNames)))}
	switch {
	case len(mx.hot) > 0 && r.Float64() < mx.hotShare:
		d.item = mx.hot[r.IntN(len(mx.hot))]
	case p.known < len(p.items) && r.Float64() < mx.unknown:
		d.item = int32(p.known + r.IntN(len(p.items)-p.known))
	default:
		d.item = int32(r.IntN(p.known))
	}
	return d
}

// hotItems picks n distinct known items.
func (p *population) hotItems(seed uint64, n int) []int32 {
	if n > p.known {
		n = p.known
	}
	perm := newRand(seed, streamHot).Perm(p.known)
	hot := make([]int32, n)
	for i := range hot {
		hot[i] = int32(perm[i])
	}
	return hot
}
