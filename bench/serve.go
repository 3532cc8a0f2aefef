package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"resourcecentral/internal/core"
	"resourcecentral/internal/model"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/serve"
)

// serveLoad is serve.steady and serve.churn: an open loop of Poisson
// arrivals through serve.Tier for two thirds of the run, then a closed
// loop of SatCallers callers for the last third, which gives the tier's
// capacity. With churn a publisher republishes the set-up's own result
// on the live store while hub subscribers listen.
type serveLoad struct {
	sys   *system
	churn bool
	tier  *serve.Tier
	hub   *serve.Hub
	up    *tracedUpstream // nil with tracing off
	mx    mix

	sched *schedule
	// ptrs[k] is the input of draws[k]. With tracing off it points into
	// the population; a traced run gives every draw its own copy so the
	// upstream decorator can tell which arrival a call serves.
	ptrs []*model.ClientInputs

	tally serveTally
}

// serveTally counts lookup outcomes; the per-lookup goroutines of the
// open loop share it.
type serveTally struct {
	errs, shed, nopred, wantNopred, coalesced, diff, late atomic.Int64
}

func setupServeSteady(c *runCtx) (instance, error) { return setupServe(c, false) }
func setupServeChurn(c *runCtx) (instance, error)  { return setupServe(c, true) }

func setupServe(c *runCtx, churn bool) (instance, error) {
	sys, err := buildSystem(&c.sz, 0)
	if err != nil {
		return nil, err
	}
	s := &serveLoad{sys: sys, churn: churn}
	var upstream core.BatchPredictor = sys.client
	if c.rec != nil {
		s.up = &tracedUpstream{inner: sys.client}
		upstream = s.up
	}
	// Everything else is serve.Config's default, which is what
	// cmd/rcserve's flags default to.
	if s.tier, err = serve.New(serve.Config{Upstream: upstream, Obs: sys.reg}); err != nil {
		sys.close()
		return nil, err
	}
	if churn {
		s.hub = serve.NewHub(sys.st, c.sz.HubBuffer, sys.reg)
	}
	return s, nil
}

func (s *serveLoad) close() {
	if s.hub != nil {
		s.hub.Close()
	}
	s.tier.Close()
	s.sys.close()
}

func (s *serveLoad) prepare(c *runCtx) error {
	if err := s.sys.pop.answer(s.sys.st); err != nil {
		return err
	}
	s.mx = mix{hot: s.sys.pop.hotItems(c.seed, c.sz.HotItems), hotShare: c.sz.HotShare, unknown: c.sz.UnknownShare}
	return nil
}

// phases splits the run: two thirds open loop, one third saturation.
func phases(d time.Duration) (open, sat time.Duration) {
	open = d * 2 / 3
	return open, d - open
}

func (s *serveLoad) run(c *runCtx, d time.Duration) error {
	openDur, satDur := phases(d)
	perArrival := 1 - c.sz.BatchShare + c.sz.BatchShare*float64(c.sz.BatchSize)
	s.sched = makeSchedule(c.seed, c.sz.ServeRate/perArrival, openDur, c.sz.BatchShare, c.sz.BatchSize, s.sys.pop, &s.mx)
	s.bindInputs(c.rec != nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := s.sys.client.Stats()

	var churn *churner
	if s.churn {
		churn = startChurn(c, s.sys, s.hub)
	}
	s.openPhase(ctx, c, openDur)
	if s.up != nil {
		// The saturation phase reuses the open phase's inputs; its
		// upstream calls must not be attributed to open-loop arrivals.
		s.up.arrivalOf = nil
	}
	s.satPhase(ctx, c, satDur)
	if churn != nil {
		churn.stop(c)
	}

	clientLayers(c, before, s.sys.client.Stats())
	c.layer("core.init_ms", s.sys.initMs)
	s.sys.pop.report(c)
	if s.up != nil {
		c.layer("core.predictmany_p50_us", s.up.calls.quantile(0.5)/1e3)
		c.layer("core.predictmany_p99_us", s.up.calls.quantile(0.99)/1e3)
		c.layer("core.predictmany_calls", float64(s.up.calls.n))
		if s.up.calls.n > 0 {
			perCall := float64(s.up.items) / float64(s.up.calls.n)
			c.layer("core.predictmany_lookups_per_call", perCall)
			c.layer("serve.batch_size_mean", perCall)
		}
	}
	return nil
}

// bindInputs resolves every draw to the input pointer it is sent with.
func (s *serveLoad) bindInputs(traced bool) {
	draws := s.sched.draws
	s.ptrs = make([]*model.ClientInputs, len(draws))
	if !traced {
		for k, dr := range draws {
			s.ptrs[k] = &s.sys.pop.items[dr.item]
		}
		return
	}
	own := make([]model.ClientInputs, len(draws))
	for k, dr := range draws {
		own[k] = s.sys.pop.items[dr.item]
		s.ptrs[k] = &own[k]
	}
	n := len(s.sched.arrivals)
	s.up.arrivalOf = make(map[*model.ClientInputs]int32, n)
	s.up.upStart, s.up.upEnd = make([]int64, n), make([]int64, n)
	for i, a := range s.sched.arrivals {
		if a.n == 1 {
			s.up.arrivalOf[s.ptrs[a.first]] = int32(i)
		}
	}
}

// call sends one arrival through the tier and counts what came back.
// It returns the number of lookups the tier answered (did not shed).
func (s *serveLoad) call(ctx context.Context, a arrival) (answered int64) {
	t := &s.tally
	first := s.sched.draws[a.first]
	name := modelNames[first.model]
	if a.n == 1 {
		res, err := s.tier.Predict(ctx, name, s.ptrs[a.first])
		if err != nil {
			t.errs.Add(1)
			return 0
		}
		return s.count(first, res)
	}
	results, err := s.tier.PredictBatch(ctx, name, s.ptrs[a.first:a.first+a.n])
	if err != nil {
		t.errs.Add(int64(a.n))
		return 0
	}
	for k, res := range results {
		answered += s.count(s.sched.draws[int(a.first)+k], res)
	}
	return answered
}

// count tallies one lookup's result and returns 1 if it was answered.
func (s *serveLoad) count(dr draw, res serve.Result) int64 {
	t := &s.tally
	switch {
	case res.Degraded:
		t.shed.Add(1)
		return 0
	case !res.OK:
		t.nopred.Add(1)
	}
	if int(dr.item) >= s.sys.pop.known {
		t.wantNopred.Add(1)
	}
	if res.Coalesced {
		t.coalesced.Add(1)
	}
	if !s.sys.pop.matches(dr.model, dr.item, res.Prediction) {
		t.diff.Add(1)
	}
	return 1
}

// snapshot reads and resets the tally into the phase's counts, and
// records a problem that says which kinds of failure there were.
func (s *serveLoad) snapshot(c *runCtx, name string, lookups, samples int64) phaseCounts {
	t := &s.tally
	p := phaseCounts{Name: name, Attempted: lookups, Samples: samples,
		Shed: t.shed.Swap(0), NoPrediction: t.nopred.Swap(0)}
	// Among the lookups the tier answered, those for unknown
	// subscriptions and no others must be no-predictions. A surplus is
	// an unexpected no-prediction; a deficit means an unknown
	// subscription got an answer. Both are wrong.
	unexpected := p.NoPrediction - t.wantNopred.Swap(0)
	if unexpected < 0 {
		unexpected = -unexpected
	}
	errs, diff, late := t.errs.Swap(0), t.diff.Swap(0), t.late.Swap(0)
	p.Failed = errs + p.Shed + unexpected + diff + late
	p.Succeeded = p.Attempted - p.Failed
	if wrong := errs + unexpected + diff; wrong > 0 {
		c.problem("%s phase: %d errors, %d unexpected no-predictions, %d wrong answers", name, errs, unexpected, diff)
	}
	if p.Shed+late > 0 {
		c.warn("%s phase: %d lookups shed, %d answered past the deadline", name, p.Shed, late)
	}
	return p
}

func (s *serveLoad) openPhase(ctx context.Context, c *runCtx, d time.Duration) {
	arrivals := s.sched.arrivals
	o := &openLoop{s: s, ctx: ctx, base: time.Now(), lat: make([]int64, len(arrivals))}
	if s.up != nil {
		o.sent = make([]int64, len(arrivals))
		s.up.base = o.base
	}
	p := &o.pacer
	p.run(o.base, arrivals, func(i int) {
		o.wg.Add(1)
		go o.lookup(i)
	})
	o.wg.Wait()

	w := newWindows(d)
	deadline := int64(c.sz.DeadlineInProc)
	for i, l := range o.lat {
		w.add(arrivals[i].due, l, int64(arrivals[i].n))
		if l > deadline {
			s.tally.late.Add(int64(arrivals[i].n))
		}
	}
	coalesced := s.tally.coalesced.Swap(0)
	pc := s.snapshot(c, "open", s.sched.lookups, int64(len(o.lat)))
	c.phase(pc)
	c.latency(w)
	limit := c.sz.LateInProc
	if s.churn {
		limit = c.sz.LateChurn
	}
	p.report(c, limit)
	c.layer("serve.coalesce_share", float64(coalesced)/float64(max(pc.Attempted, 1)))
	c.layer("serve.shed_share", float64(pc.Shed)/float64(max(pc.Attempted, 1)))
	if s.up != nil {
		s.traceOpen(c, o)
	}
}

// openLoop is the state the open phase's lookups share: one goroutine
// per in-flight lookup, each writing its own slot.
type openLoop struct {
	s     *serveLoad
	ctx   context.Context
	base  time.Time
	pacer pacer
	wg    sync.WaitGroup
	lat   []int64 // answer time minus due time, per arrival
	sent  []int64 // when the call into the tier began; traced runs only
}

func (o *openLoop) lookup(i int) {
	defer o.wg.Done()
	a := o.s.sched.arrivals[i]
	if o.sent != nil {
		o.sent[i] = int64(time.Since(o.base))
	}
	o.s.call(o.ctx, a)
	o.lat[i] = int64(time.Since(o.base)) - a.due
	o.pacer.done()
}

// traceOpen derives serve.wait from the traced open phase: for each
// single lookup that led its own upstream call, the time Tier.Predict
// took minus the upstream span inside it. It also keeps up to 4096
// requests' spans for the trace file.
func (s *serveLoad) traceOpen(c *runCtx, o *openLoop) {
	base, lat, sent := o.base, o.lat, o.sent
	var wait hist
	arrivals := s.sched.arrivals
	stride := len(arrivals)/4096 + 1
	var spans []span
	for i, a := range arrivals {
		done := a.due + lat[i]
		up0, up1 := s.up.upStart[i], s.up.upEnd[i]
		led := a.n == 1 && up1 > 0
		if led {
			wait.record(done - sent[i] - (up1 - up0))
		}
		if i%stride != 0 {
			continue
		}
		req := int64(i)
		spans = append(spans,
			span{Name: "bench.request", Start: a.due, End: done, Req: req},
			span{Name: "serve.Tier.Predict", Start: sent[i], End: done, Req: req, Parent: "bench.request"})
		if led {
			spans = append(spans, span{Name: "core.PredictMany", Start: up0, End: up1, Req: req, Parent: "serve.Tier.Predict"})
		}
	}
	c.rec.add(base, spans)
	c.layer("serve.wait_p50_us", wait.quantile(0.5)/1e3)
	c.layer("serve.wait_p99_us", wait.quantile(0.99)/1e3)
}

// satPhase is the closed loop: SatCallers callers walk the open phase's
// arrival list from evenly spaced offsets, ignoring the due times.
func (s *serveLoad) satPhase(ctx context.Context, c *runCtx, d time.Duration) {
	arrivals := s.sched.arrivals
	callers := c.sz.SatCallers
	done := make([]*windows, callers) // answered lookups, per caller
	attempted := make([]int64, callers)
	var wg sync.WaitGroup
	base := time.Now()
	for k := 0; k < callers; k++ {
		done[k] = newWindows(d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k * len(arrivals) / callers; ; i = (i + 1) % len(arrivals) {
				a := arrivals[i]
				answered := s.call(ctx, a)
				now := int64(time.Since(base))
				attempted[k] += int64(a.n)
				done[k].units[done[k].index(now)] += answered
				if now >= int64(d) {
					return
				}
			}
		}()
	}
	wg.Wait()
	total := newWindows(d)
	for _, w := range done {
		total.merge(w)
	}
	var lookups int64
	for _, n := range attempted {
		lookups += n
	}
	s.tally.coalesced.Swap(0)
	pc := s.snapshot(c, "saturation", lookups, 0)
	c.phase(pc)
	c.res.Metrics["throughput"] = value{Value: total.rate()}
}

// churner is serve.churn's write side: a publisher and the hub's
// subscribers.
type churner struct {
	stopC     chan struct{}
	pubWG     sync.WaitGroup // the publisher
	subWG     sync.WaitGroup // the draining subscribers
	publishMs []float64
	puts      int
	err       error
	closing   atomic.Bool
	received  atomic.Int64 // events the draining subscribers got
	dropped   atomic.Int64 // draining subscribers the hub dropped
	stalled   *serve.Subscriber
	drainers  []*serve.Subscriber
	hub       *serve.Hub
}

func startChurn(c *runCtx, sys *system, hub *serve.Hub) *churner {
	ch := &churner{stopC: make(chan struct{}), hub: hub}
	// All but one subscriber drain their events; the last never reads,
	// and must be the only one the hub drops.
	for i := 0; i < c.sz.HubSubs-1; i++ {
		sub := hub.Subscribe()
		ch.drainers = append(ch.drainers, sub)
		ch.subWG.Add(1)
		go func() {
			defer ch.subWG.Done()
			for range sub.C {
				ch.received.Add(1)
			}
			if !ch.closing.Load() {
				ch.dropped.Add(1)
			}
		}()
	}
	ch.stalled = hub.Subscribe()
	perPublish := len(modelNames) + 1 + len(sys.res.Features)
	ch.pubWG.Add(1)
	go func() {
		defer ch.pubWG.Done()
		tick := time.NewTicker(c.sz.PublishEvery)
		defer tick.Stop()
		for {
			select {
			case <-ch.stopC:
				return
			case <-tick.C:
				start := time.Now()
				if err := pipeline.Publish(sys.st, sys.res, sys.reg); err != nil {
					ch.err = err
					return
				}
				ch.publishMs = append(ch.publishMs, float64(time.Since(start))/1e6)
				ch.puts += perPublish
			}
		}
	}()
	return ch
}

// stop ends the publisher, detaches the subscribers and checks the fan-out: every
// draining subscriber got every event, and the stalled one was dropped
// exactly when the events outgrew its buffer.
func (ch *churner) stop(c *runCtx) {
	close(ch.stopC)
	ch.pubWG.Wait()
	// The hub broadcasts on its own goroutine; give it a moment to hand
	// the last publish to the subscribers.
	drainers := int64(c.sz.HubSubs - 1)
	for wait := time.Now(); ch.received.Load() < drainers*int64(ch.puts) && time.Since(wait) < 2*time.Second; {
		time.Sleep(time.Millisecond)
	}
	// Read what the stalled subscriber was sent: its buffer, then
	// either nothing more (still attached) or the close (dropped).
	var stalledGot, stalledDropped int64
drain:
	for {
		select {
		case _, ok := <-ch.stalled.C:
			if !ok {
				stalledDropped = 1
				break drain
			}
			stalledGot++
		default:
			break drain
		}
	}
	ch.closing.Store(true)
	for _, sub := range append(ch.drainers, ch.stalled) {
		ch.hub.Unsubscribe(sub)
	}
	ch.subWG.Wait()

	if ch.err != nil {
		c.problem("republish failed: %v", ch.err)
	}
	c.layer("store.publish_ms", median(ch.publishMs))
	c.layer("store.put_count", float64(ch.puts))
	c.layer("serve.hub_sent", float64(ch.received.Load()+stalledGot))
	dropped := ch.dropped.Load() + stalledDropped
	c.layer("serve.hub_dropped", float64(dropped))

	if got, want := ch.received.Load(), drainers*int64(ch.puts); got != want {
		c.problem("hub: draining subscribers received %d events, want %d", got, want)
	}
	var wantDropped int64
	if ch.puts > c.sz.HubBuffer {
		wantDropped = 1
	}
	if dropped != wantDropped || (wantDropped == 1 && stalledDropped != 1) {
		c.problem("hub: %d subscribers dropped, want exactly %d (the one that never reads)", dropped, wantDropped)
	}
}
