package main

import (
	"sync"
	"time"

	"resourcecentral/internal/core"
)

// clientLoop is client.hit and client.miss: nproc callers, each calling
// core.Client.PredictSingle again as soon as the last call returns.
type clientLoop struct {
	sys *system
	mx  mix
	// hitMin and hitMax bound core.hit_share: the mechanism the
	// workload exists to exercise, or to bypass.
	hitMin, hitMax float64
	// draws[caller] is the caller's precomputed lookup sequence, walked
	// cyclically so the timed loop does no random-number work.
	draws [][]draw
}

const drawsPerCaller = 1 << 16

func setupClientHit(c *runCtx) (instance, error) {
	sys, err := buildSystem(&c.sz, 0)
	if err != nil {
		return nil, err
	}
	l := &clientLoop{sys: sys, hitMin: 0.99, hitMax: 1}
	// Every draw comes from the hot set, which holds known items only:
	// a no-prediction is never cached, so it could not be a hit.
	l.mx = mix{hot: sys.pop.hotItems(c.seed, c.sz.HitItems), hotShare: 1}
	for m := range modelNames {
		for _, item := range l.mx.hot {
			if _, err := sys.client.PredictSingle(modelNames[m], &sys.pop.items[item]); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	return l, nil
}

func setupClientMiss(c *runCtx) (instance, error) {
	sys, err := buildSystem(&c.sz, c.sz.MissCacheCap)
	if err != nil {
		return nil, err
	}
	return &clientLoop{sys: sys, mx: mix{unknown: c.sz.UnknownShare}, hitMax: 0.05}, nil
}

func (l *clientLoop) prepare(c *runCtx) error {
	if err := l.sys.pop.answer(l.sys.st); err != nil {
		return err
	}
	l.draws = make([][]draw, c.nproc)
	for w := range l.draws {
		r := newRand(c.seed, streamDraws+uint64(w))
		l.draws[w] = make([]draw, drawsPerCaller)
		for k := range l.draws[w] {
			l.draws[w][k] = l.sys.pop.draw(r, &l.mx)
		}
	}
	return nil
}

func (l *clientLoop) close() { l.sys.close() }

// callerTally is what one closed-loop caller counted.
type callerTally struct {
	w                              *windows
	errs, nopred, wantNopred, diff int64
	spans                          []span
}

func (l *clientLoop) run(c *runCtx, d time.Duration) error {
	before := l.sys.client.Stats()
	tallies := make([]*callerTally, c.nproc)
	for w := range tallies {
		tallies[w] = &callerTally{w: newWindows(d)}
		if c.rec != nil {
			tallies[w].spans = make([]span, 0, 1<<16)
		}
	}
	var wg sync.WaitGroup
	base := time.Now()
	for w := range tallies {
		wg.Add(1)
		//rcvet:allow(the caller checks its deadline after every lookup, and a push-mode lookup never touches the store; a stop channel would add a select to a 600 ns operation)
		go func() {
			defer wg.Done()
			l.caller(tallies[w], l.draws[w], base, d, w)
		}()
	}
	wg.Wait()
	after := l.sys.client.Stats()

	total := callerTally{w: newWindows(d)}
	for _, t := range tallies {
		total.w.merge(t.w)
		total.errs += t.errs
		total.nopred += t.nopred
		total.wantNopred += t.wantNopred
		total.diff += t.diff
		if c.rec != nil {
			c.rec.add(base, t.spans)
		}
	}
	// A surplus no-prediction is an unexpected one and a failure; a
	// deficit means an unknown subscription got an answer, also wrong.
	unexpected := total.nopred - total.wantNopred
	if unexpected < 0 {
		unexpected = -unexpected
	}
	if total.diff > 0 {
		c.problem("%d sampled answers differ from the reference client", total.diff)
	}
	ops := int64(total.w.total().n)
	c.phase(phaseCounts{
		Name: "closed", Attempted: ops, Samples: ops,
		Failed:       total.errs + unexpected + total.diff,
		Succeeded:    ops - total.errs - unexpected - total.diff,
		NoPrediction: total.nopred,
	})
	c.latency(total.w)
	c.res.Metrics["throughput"] = value{Value: total.w.rate()}
	clientLayers(c, before, after)
	c.layer("core.init_ms", l.sys.initMs)
	l.sys.pop.report(c)
	if share := c.res.Layers["core.hit_share"].Value; share < l.hitMin || share > l.hitMax {
		c.problem("core.hit_share %.4f outside [%.2f, %.2f]: the workload does not exercise what it is for",
			share, l.hitMin, l.hitMax)
	}
	return nil
}

// caller is one closed-loop caller. Latency is the time between
// consecutive returns, so it has one clock read per lookup and counts
// everything the caller does, as its own caller would see it.
func (l *clientLoop) caller(t *callerTally, draws []draw, base time.Time, d time.Duration, id int) {
	client, pop := l.sys.client, l.sys.pop
	end := int64(d)
	win, h, boundary := 0, &t.w.hists[0], t.w.length
	prev := int64(time.Since(base))
	for k := 0; ; k++ {
		dr := draws[k&(drawsPerCaller-1)]
		pred, err := client.PredictSingle(modelNames[dr.model], &pop.items[dr.item])
		now := int64(time.Since(base))
		if now >= boundary && win < len(t.w.hists)-1 {
			win++
			h, boundary = &t.w.hists[win], boundary+t.w.length
		}
		h.record(now - prev)
		t.w.units[win]++
		switch {
		case err != nil:
			t.errs++
		case k&63 == 0 && !pop.matches(dr.model, dr.item, pred):
			// One answer in 64 is compared with the reference client's.
			t.diff++
		}
		if int(dr.item) >= pop.known {
			t.wantNopred++
		}
		if !pred.OK {
			t.nopred++
		}
		if t.spans != nil && k&1023 == 0 && len(t.spans) < cap(t.spans) {
			req := int64(id)<<40 | int64(k)
			t.spans = append(t.spans,
				span{Name: "bench.request", Start: prev, End: now, Req: req},
				span{Name: "core.PredictSingle", Start: prev, End: now, Req: req, Parent: "bench.request"})
		}
		prev = now
		if now >= end {
			return
		}
	}
}

// clientLayers reports the core.* counters as deltas over the timed
// phases.
func clientLayers(c *runCtx, before, after core.Stats) {
	hits := float64(after.ResultHits - before.ResultHits)
	misses := float64(after.ResultMisses - before.ResultMisses)
	if hits+misses > 0 {
		c.layer("core.hit_share", hits/(hits+misses))
	}
	c.layer("core.exec_count", float64(after.ModelExecs-before.ModelExecs))
	c.layer("core.nopred_count", float64(after.NoPredictions-before.NoPredictions))
	c.layer("core.push_updates", float64(after.PushUpdates-before.PushUpdates))
}
