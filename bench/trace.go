package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"resourcecentral/internal/core"
	"resourcecentral/internal/model"
	"resourcecentral/internal/sim"
	"resourcecentral/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent names the span of
// the same request that caused this one, so a span's self time is its
// duration minus what the spans naming it as parent cover.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// offset converts a phase's time base into the recorder's.
func (r *recorder) offset(base time.Time) int64 { return int64(base.Sub(r.epoch)) }

// add appends spans whose times are relative to base. It may be called
// from any goroutine.
func (r *recorder) add(base time.Time, spans []span) {
	off := r.offset(base)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		s.Start += off
		s.End += off
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// stages times the stage calls of one pass of a batch workload. The
// durations feed the layer metrics in every run; spans are kept only
// when tracing.
type stages struct {
	rec   *recorder
	base  time.Time
	pass  int64
	secs  map[string]float64 // per stage, over all passes
	total float64            // all stages, over all passes
	spans []span
}

func newStages(rec *recorder, base time.Time) *stages {
	return &stages{rec: rec, base: base, secs: map[string]float64{}}
}

// do runs fn as the named stage of the current pass.
func (s *stages) do(name string, fn func() error) error {
	start := time.Since(s.base)
	err := fn()
	end := time.Since(s.base)
	s.secs[name] += (end - start).Seconds()
	s.total += (end - start).Seconds()
	if s.rec != nil {
		s.spans = append(s.spans, span{Name: name, Start: int64(start), End: int64(end), Req: s.pass, Parent: "bench.pass"})
	}
	return err
}

// endPass closes the pass that began at start (since base).
func (s *stages) endPass(start, end time.Duration) {
	if s.rec != nil {
		s.spans = append(s.spans, span{Name: "bench.pass", Start: int64(start), End: int64(end), Req: s.pass})
		s.rec.add(s.base, s.spans)
		s.spans = s.spans[:0]
	}
	s.pass++
}

// tracedUpstream is the decorator a traced serving run passes as
// serve.Config.Upstream: it times every aggregated PredictMany call and
// notes which open-loop arrivals the call served.
type tracedUpstream struct {
	inner core.BatchPredictor
	base  time.Time
	// arrivalOf maps the input pointer of a traced single lookup to its
	// arrival index. It is filled before the phase and only read during
	// it.
	arrivalOf map[*model.ClientInputs]int32
	// upStart and upEnd are indexed by arrival; each entry is written by
	// the one upstream call that served that arrival's leader.
	upStart, upEnd []int64

	mu    sync.Mutex
	calls hist
	items int64
}

func (u *tracedUpstream) PredictMany(modelName string, ins []*model.ClientInputs) ([]core.Prediction, error) {
	start := int64(time.Since(u.base))
	out, err := u.inner.PredictMany(modelName, ins)
	end := int64(time.Since(u.base))
	for _, in := range ins {
		if i, ok := u.arrivalOf[in]; ok {
			u.upStart[i], u.upEnd[i] = start, end
		}
	}
	u.mu.Lock()
	u.calls.record(end - start)
	u.items += int64(len(ins))
	u.mu.Unlock()
	return out, err
}

// tracedPredictor is the decorator a traced sched.sweep passes as
// sim.Config.Predictor: it counts and times the scheduler's calls into
// the client. One instance serves one sweep point, which runs on one
// goroutine.
type tracedPredictor struct {
	inner sim.Predictor
	calls int64
	ns    int64
}

func (p *tracedPredictor) PredictP95Bucket(v *trace.VM, requestedVMs int) (int, float64, bool) {
	start := time.Now()
	bucket, score, ok := p.inner.PredictP95Bucket(v, requestedVMs)
	p.ns += int64(time.Since(start))
	p.calls++
	return bucket, score, ok
}
