package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// arrival is one scheduled call of an open loop: a single lookup
// (n == 1) or a batch of n, whose draws are draws[first:first+n].
type arrival struct {
	due   int64 // nanoseconds after the phase starts
	first int32
	n     int32
}

// schedule is an open loop's whole arrival list, computed from the seed
// before the phase starts so that the pacer only waits and fires.
type schedule struct {
	arrivals []arrival
	draws    []draw
	lookups  int64
}

// makeSchedule draws Poisson arrivals at rate per second for d. A
// batchShare of them are batches of batchSize lookups on one model. It
// is a pure function of its arguments.
func makeSchedule(seed uint64, rate float64, d time.Duration, batchShare float64, batchSize int, pop *population, mx *mix) *schedule {
	r := newRand(seed, streamSchedule)
	s := &schedule{}
	for t := r.ExpFloat64() / rate; t < d.Seconds(); t += r.ExpFloat64() / rate {
		a := arrival{due: int64(t * 1e9), first: int32(len(s.draws)), n: 1}
		if r.Float64() < batchShare {
			a.n = int32(batchSize)
		}
		for k := int32(0); k < a.n; k++ {
			dr := pop.draw(r, mx)
			if k > 0 {
				dr.model = s.draws[a.first].model
			}
			s.draws = append(s.draws, dr)
		}
		s.lookups += int64(a.n)
		s.arrivals = append(s.arrivals, a)
	}
	return s
}

// pacer fires a schedule's arrivals at their due times. It never skips
// or re-times one: when it falls behind it fires at once, and since
// latency is measured from the due time the delay counts against the
// system. How late it fired is recorded so a run whose generator could
// not keep up can be told from one whose system was slow.
type pacer struct {
	late     hist
	inflight atomic.Int64
	peak     int64
}

func (p *pacer) run(base time.Time, arrivals []arrival, fire func(i int)) {
	// The pacer waits in nanosleep on its own thread, not in the Go
	// runtime's timers: those are served by epoll_wait, whose timeout is
	// in whole milliseconds, and spinning instead would keep the
	// scheduler awake and change how the system under test behaves.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer preciseSleep()()
	for i := range arrivals {
		due := time.Duration(arrivals[i].due)
		if wait := due - time.Since(base); wait > 0 {
			sleep(wait)
		}
		p.late.record(int64(time.Since(base) - due))
		if n := p.inflight.Add(1); n > p.peak {
			p.peak = n
		}
		fire(i)
	}
}

// done is called by whatever fire started, when the arrival is answered.
func (p *pacer) done() { p.inflight.Add(-1) }

// report prints the generator's own metrics and marks the run invalid
// when its p99 lateness exceeds limit.
func (p *pacer) report(c *runCtx, limit time.Duration) {
	c.layer("gen.late_p50_us", p.late.quantile(0.5)/1e3)
	c.layer("gen.late_p99_us", p.late.quantile(0.99)/1e3)
	c.layer("gen.late_max_us", float64(p.late.max)/1e3)
	c.layer("gen.inflight_max", float64(p.peak))
	if p99 := time.Duration(p.late.quantile(0.99)); p99 > limit {
		c.res.Invalid = true
		c.warn("INVALID: the generator ran late (gen.late p99 %v exceeds %v), so the latencies measure it and not the system", p99, limit)
	}
}
