package main

import (
	"sort"
	"time"
)

// windows cuts a timed phase into windows of about a second, each with
// its own histogram and work count. What a phase reports is the median
// over its windows, so that a hiccup of the host (a burst of steal time,
// a long collection) spoils one window and not the run.
type windows struct {
	length int64 // nanoseconds per window
	hists  []hist
	units  []int64 // work completed per window: lookups
}

func newWindows(d time.Duration) *windows {
	k := max(1, int(d.Seconds()))
	return &windows{length: int64(d) / int64(k), hists: make([]hist, k), units: make([]int64, k)}
}

// index is the window of an event t nanoseconds into the phase; what
// overshoots the end belongs to the last window.
func (w *windows) index(t int64) int {
	return min(int(t/w.length), len(w.hists)-1)
}

// add records one operation of units lookups that took ns.
func (w *windows) add(t, ns, units int64) {
	i := w.index(t)
	w.hists[i].record(ns)
	w.units[i] += units
}

func (w *windows) merge(o *windows) {
	for i := range w.hists {
		w.hists[i].merge(&o.hists[i])
		w.units[i] += o.units[i]
	}
}

// total is all windows' samples in one histogram.
func (w *windows) total() *hist {
	t := &hist{}
	for i := range w.hists {
		t.merge(&w.hists[i])
	}
	return t
}

// quantile is the median over windows of each window's q-quantile.
func (w *windows) quantile(q float64) float64 {
	var vs []float64
	for i := range w.hists {
		if w.hists[i].n > 0 {
			vs = append(vs, w.hists[i].quantile(q))
		}
	}
	return median(vs)
}

// rate is the median over windows of units per second.
func (w *windows) rate() float64 {
	vs := make([]float64, len(w.units))
	for i, u := range w.units {
		vs[i] = float64(u) / (float64(w.length) / 1e9)
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}
