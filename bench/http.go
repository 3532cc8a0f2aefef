package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"resourcecentral/internal/model"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/store"
	"resourcecentral/internal/trace"
)

// httpLoad is http.mixed: the built cmd/rcserve binary as a child
// process, loaded over nproc keep-alive loopback connections with
// Poisson arrivals for two thirds of the run and a closed loop on the
// same connections for the last third.
type httpLoad struct {
	srv  *child
	base string // http://127.0.0.1:port
	tr   *trace.Trace
	pop  *population
	mx   mix
	// clients holds one keep-alive connection each, nproc of them: the
	// generator's threads and sockets are capped at the host's
	// processors.
	clients []*http.Client

	sched *schedule
	// reqs[i] is arrival i ready to send: a GET URL, or a POST URL and
	// body.
	reqs []wireRequest
}

type wireRequest struct {
	url  string
	body []byte
}

// wireResult is the part of rcserve's JSON answer the benchmark checks
// (serve.Result, whose embedded core.Prediction has no JSON tags).
type wireResult struct {
	OK       bool
	Bucket   int
	Score    float64
	Degraded bool
}

// buildRCServe compiles cmd/rcserve into the output directory. It is
// the harness's work, not the system's set-up, and is not timed.
func buildRCServe(c *runCtx) error {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	out, err := exec.Command("go", "build", "-o", rcservePath(c), "resourcecentral/cmd/rcserve").CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build cmd/rcserve: %v\n%s", err, out)
	}
	return nil
}

func rcservePath(c *runCtx) string {
	abs, err := filepath.Abs(filepath.Join(c.outDir, "rcserve"))
	if err != nil {
		return filepath.Join(c.outDir, "rcserve")
	}
	return abs
}

func setupHTTPMixed(c *runCtx) (instance, error) {
	h := &httpLoad{}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	h.base = "http://" + addr
	// The server keeps one processor less than the host so that it and
	// this process, which generates the load, do not share all of them.
	// The server trains on the trace this process generates, handed
	// over as an RCTB file.
	if h.tr, err = synthTrace(baseSeed, c.sz.HTTPVMs, c.sz.HTTPDays); err != nil {
		return nil, err
	}
	rctb, err := trace.EncodeColumns(trace.FromTrace(h.tr))
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(c.outDir, "http-trace.rctb")
	if err := os.WriteFile(tracePath, rctb, 0o644); err != nil {
		return nil, err
	}
	h.srv, err = startChild(c, max(1, c.nproc-1), rcservePath(c), "-trace", tracePath,
		"-seed", strconv.FormatUint(baseSeed, 10), "-republish", "0", "-addr", addr)
	if err != nil {
		return nil, err
	}
	// A subscription has feature data exactly when one of its VMs was
	// created in the training window; prepare checks that against the
	// reference client.
	cutoff := h.tr.Horizon * 2 / 3
	trained := make(map[string]bool)
	for i := range h.tr.VMs {
		if v := &h.tr.VMs[i]; v.Created < cutoff {
			trained[v.Subscription] = true
		}
	}
	h.pop, err = buildPopulation(h.tr, func(sub string) bool { return trained[sub] }, c.sz.UnknownShare)
	if err == nil {
		err = h.waitReady(30 * time.Second)
	}
	if err == nil {
		err = h.connect(c.nproc)
	}
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// connect opens the connections and sends a few lookups down each, so
// that the timed phase does not pay for dialing or for the server's
// first-request paths.
func (h *httpLoad) connect(n int) error {
	for w := 0; w < n; w++ {
		client := &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		h.clients = append(h.clients, client)
		for i := 0; i < 32 && i < h.pop.known; i++ {
			u := h.base + "/predict?model=" + modelNames[i%len(modelNames)] + "&" + inputQuery(&h.pop.items[i])
			if _, err := send(context.Background(), client, u, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (h *httpLoad) close() {
	for _, client := range h.clients {
		client.CloseIdleConnections()
	}
	h.srv.stop()
}

// waitReady polls /healthz until the server has trained and listens.
func (h *httpLoad) waitReady(budget time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for start := time.Now(); time.Since(start) < budget; time.Sleep(20 * time.Millisecond) {
		if h.srv.exited() {
			return fmt.Errorf("rcserve exited before it was ready; see %s", h.srv.logPath)
		}
		if _, err := send(context.Background(), client, h.base+"/healthz", nil); err == nil {
			return nil
		}
	}
	return fmt.Errorf("rcserve not ready after %v", budget)
}

// prepare computes the reference answers by running the pipeline the
// server ran (same trace, cutoff and seed, so the same models) into a
// private store, and encodes every arrival of the schedule.
func (h *httpLoad) prepare(c *runCtx) error {
	cols := trace.FromTrace(h.tr)
	res, err := pipeline.RunColumns(cols, pipeline.Config{TrainCutoff: cols.Horizon * 2 / 3, Seed: baseSeed})
	if err != nil {
		return err
	}
	st := store.New()
	if err := pipeline.Publish(st, res); err != nil {
		return err
	}
	if err := h.pop.answer(st); err != nil {
		return err
	}
	h.mx = mix{hot: h.pop.hotItems(c.seed, c.sz.HotItems), hotShare: c.sz.HotShare, unknown: c.sz.UnknownShare}
	return nil
}

func (h *httpLoad) encode() error {
	h.reqs = make([]wireRequest, len(h.sched.arrivals))
	for i, a := range h.sched.arrivals {
		draws := h.sched.draws[a.first : a.first+a.n]
		u := h.base + "/predict?model=" + modelNames[draws[0].model]
		if a.n == 1 {
			h.reqs[i].url = u + "&" + inputQuery(&h.pop.items[draws[0].item])
			continue
		}
		items := make([]map[string]any, len(draws))
		for k, dr := range draws {
			items[k] = inputItem(&h.pop.items[dr.item])
		}
		body, err := json.Marshal(items)
		if err != nil {
			return err
		}
		h.reqs[i] = wireRequest{url: u, body: body}
	}
	return nil
}

// inputQuery and inputItem are the two wire forms of one input, as
// cmd/rcserve's handlers parse them.
func inputQuery(in *model.ClientInputs) string {
	v := url.Values{}
	for key, val := range inputItem(in) {
		v.Set(key, fmt.Sprint(val))
	}
	return v.Encode()
}

func inputItem(in *model.ClientInputs) map[string]any {
	return map[string]any{
		"subscription": in.Subscription,
		"type":         in.VMType,
		"role":         in.Role,
		"os":           in.OS,
		"party":        in.Party,
		"production":   in.Production,
		"cores":        in.Cores,
		"memgb":        json.Number(strconv.FormatFloat(in.MemoryGB, 'g', -1, 64)),
		"requested":    in.RequestedVMs,
		"minute":       int64(in.CreateMinute),
	}
}

// httpTally counts one worker's outcomes.
type httpTally struct {
	errs, shed, nopred, diff, lookups, wantNopred int64
	service                                       hist // send to answer
}

func (h *httpLoad) run(c *runCtx, d time.Duration) error {
	openDur, satDur := phases(d)
	h.sched = makeSchedule(c.seed, c.sz.HTTPRate, openDur, c.sz.BatchShare, c.sz.BatchSize, h.pop, &h.mx)
	if err := h.encode(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clients := h.clients

	before, err := scrape(ctx, clients[0], h.base)
	if err != nil {
		return err
	}
	open, lat := h.openPhase(ctx, c, clients)
	after, err := scrape(ctx, clients[0], h.base)
	if err != nil {
		return err
	}
	h.serverLayers(c, before, after, &open)

	w := newWindows(openDur)
	var late int64
	for i, l := range lat {
		a := h.sched.arrivals[i]
		w.add(a.due, l, int64(a.n))
		if l > int64(c.sz.DeadlineHTTP) {
			late += int64(a.n)
		}
	}
	c.latency(w)
	c.phase(open.counts(c, "open", int64(len(lat)), late))
	h.pop.report(c)

	sat, done := h.satPhase(ctx, clients, satDur)
	c.phase(sat.counts(c, "saturation", 0, 0))
	c.res.Metrics["throughput"] = value{Value: done.rate()}
	return nil
}

// counts turns a tally into a phase's counts and records what failed.
func (t *httpTally) counts(c *runCtx, name string, samples, late int64) phaseCounts {
	p := phaseCounts{Name: name, Attempted: t.lookups, Samples: samples, Shed: t.shed, NoPrediction: t.nopred}
	unexpected := t.nopred - t.wantNopred
	if unexpected < 0 {
		unexpected = -unexpected
	}
	p.Failed = t.errs + t.shed + unexpected + t.diff + late
	p.Succeeded = p.Attempted - p.Failed
	if wrong := t.errs + unexpected + t.diff; wrong > 0 {
		c.problem("%s phase: %d errors, %d unexpected no-predictions, %d wrong answers", name, t.errs, unexpected, t.diff)
	}
	if t.shed+late > 0 {
		c.warn("%s phase: %d lookups shed, %d answered past the deadline", name, t.shed, late)
	}
	return p
}

func (t *httpTally) merge(o *httpTally) {
	t.errs += o.errs
	t.shed += o.shed
	t.nopred += o.nopred
	t.diff += o.diff
	t.lookups += o.lookups
	t.wantNopred += o.wantNopred
	t.service.merge(&o.service)
}

// openPhase paces the schedule into a queue the workers drain. A
// request waits in the queue while both connections are busy, as it
// would in a fabric controller with that many connections, and the wait
// counts because latency runs from the due time.
func (h *httpLoad) openPhase(ctx context.Context, c *runCtx, clients []*http.Client) (httpTally, []int64) {
	arrivals := h.sched.arrivals
	lat := make([]int64, len(arrivals))
	sent := make([]int64, len(arrivals))
	// Sized to the whole schedule so that the pacer's send never blocks.
	jobs := make(chan int, len(arrivals))
	tallies := make([]httpTally, len(clients))
	var p pacer
	var wg sync.WaitGroup
	base := time.Now()
	for w, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent[i] = int64(time.Since(base))
				h.do(ctx, client, &tallies[w], i)
				lat[i] = int64(time.Since(base)) - arrivals[i].due
				p.done()
			}
		}()
	}
	p.run(base, arrivals, func(i int) { jobs <- i })
	close(jobs)
	wg.Wait()
	p.report(c, c.sz.LateHTTP)
	if c.rec != nil {
		// The server's side of a request is not visible from here; its
		// share is reported from its own histograms (serverLayers).
		spans := make([]span, 0, 2*len(arrivals))
		for i, a := range arrivals {
			done := a.due + lat[i]
			spans = append(spans,
				span{Name: "bench.request", Start: a.due, End: done, Req: int64(i)},
				span{Name: "http.roundtrip", Start: sent[i], End: done, Req: int64(i), Parent: "bench.request"})
		}
		c.rec.add(base, spans)
	}
	var total httpTally
	for w := range tallies {
		total.merge(&tallies[w])
	}
	return total, lat
}

// satPhase is the closed loop: each connection sends its next request
// as soon as the last is answered.
func (h *httpLoad) satPhase(ctx context.Context, clients []*http.Client, d time.Duration) (httpTally, *windows) {
	n := len(h.sched.arrivals)
	tallies := make([]httpTally, len(clients))
	done := make([]*windows, len(clients))
	var wg sync.WaitGroup
	base := time.Now()
	for w, client := range clients {
		done[w] = newWindows(d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n / len(clients); ; i = (i + 1) % n {
				answered := h.do(ctx, client, &tallies[w], i)
				now := int64(time.Since(base))
				done[w].units[done[w].index(now)] += answered
				if now >= int64(d) {
					return
				}
			}
		}()
	}
	wg.Wait()
	var total httpTally
	all := newWindows(d)
	for w := range tallies {
		total.merge(&tallies[w])
		all.merge(done[w])
	}
	return total, all
}

// do sends arrival i and checks every answer in the response against
// the reference.
func (h *httpLoad) do(ctx context.Context, client *http.Client, t *httpTally, i int) (answered int64) {
	a := h.sched.arrivals[i]
	draws := h.sched.draws[a.first : a.first+a.n]
	t.lookups += int64(a.n)
	req := &h.reqs[i]
	start := time.Now()
	body, err := send(ctx, client, req.url, req.body)
	t.service.record(int64(time.Since(start)))
	if err != nil {
		t.errs += int64(a.n)
		return 0
	}
	results := make([]wireResult, 1, a.n)
	if req.body == nil {
		err = json.Unmarshal(body, &results[0])
	} else {
		err = json.Unmarshal(body, &results)
	}
	if err != nil || len(results) != len(draws) {
		t.errs += int64(a.n)
		return 0
	}
	for k, res := range results {
		switch {
		case res.Degraded:
			t.shed++
			continue
		case !res.OK:
			t.nopred++
		}
		answered++
		if int(draws[k].item) >= h.pop.known {
			t.wantNopred++
		}
		w := &h.pop.want[int(draws[k].model)*len(h.pop.items)+int(draws[k].item)]
		if res.OK != w.OK || res.Bucket != w.Bucket || res.Score != w.Score {
			t.diff++
		}
	}
	return answered
}

// send issues a GET, or a POST when body is not nil, and returns the
// response body of a 200.
func send(ctx context.Context, client *http.Client, u string, body []byte) ([]byte, error) {
	method, reader := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, reader = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, reader)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	return readBody(resp)
}

func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return body, nil
}

// scrape reads the server's own metrics.
func scrape(ctx context.Context, client *http.Client, base string) ([]obs.Family, error) {
	body, err := send(ctx, client, base+"/metrics?format=json", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	var fams []obs.Family
	if err := json.Unmarshal(body, &fams); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return fams, nil
}

// famSum sums the samples of the named family whose labels include
// want: a counter's value, or a histogram's observation count and sum.
func famSum(fams []obs.Family, name string, want []string) (value, count, sum float64) {
	for _, fam := range fams {
		if fam.Name != name {
			continue
		}
		for _, sample := range fam.Samples {
			switch {
			case !hasLabels(sample.Labels, want):
			case sample.Histogram != nil:
				count += float64(sample.Histogram.Count)
				sum += sample.Histogram.Sum
			default:
				value += sample.Value
			}
		}
	}
	return value, count, sum
}

// histDelta is the observations and their sum that the named histogram
// gained between two scrapes.
func histDelta(before, after []obs.Family, name string, want ...string) (count, sum float64) {
	_, n0, s0 := famSum(before, name, want)
	_, n1, s1 := famSum(after, name, want)
	return n1 - n0, s1 - s0
}

// counterDelta is what the named counter gained between two scrapes.
func counterDelta(before, after []obs.Family, name string, want ...string) float64 {
	v0, _, _ := famSum(before, name, want)
	v1, _, _ := famSum(after, name, want)
	return v1 - v0
}

func hasLabels(labels []obs.Label, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		found := false
		for _, l := range labels {
			if l.Key == want[i] && l.Value == want[i+1] {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// serverLayers splits the open phase's client-observed service time by
// the server's own histograms: time in the handler, in the batcher's
// window, in the upstream call, and the rest, which is transport.
func (h *httpLoad) serverLayers(c *runCtx, before, after []obs.Family, open *httpTally) {
	meanUs := func(name string, want ...string) float64 {
		n, s := histDelta(before, after, name, want...)
		if n == 0 {
			return 0
		}
		return s / n * 1e6
	}
	nGet, sGet := histDelta(before, after, "rc_http_request_seconds", "route", "GET /predict")
	nPost, sPost := histDelta(before, after, "rc_http_request_seconds", "route", "POST /predict")
	var handler float64
	if nGet+nPost > 0 {
		handler = (sGet + sPost) / (nGet + nPost) * 1e6
	}
	c.layer("rcserve.handler_us", handler)
	c.layer("rcserve.batch_wait_us", meanUs("rc_serve_batch_wait_seconds"))
	c.layer("rcserve.upstream_us", meanUs("rc_serve_upstream_seconds"))
	c.layer("rcserve.transport_us", open.service.mean()/1e3-handler)
	if n, size := histDelta(before, after, "rc_serve_batch_size"); n > 0 {
		c.layer("serve.batch_size_mean", size/n)
	}
	leaders := counterDelta(before, after, "rc_serve_coalesce_leaders_total")
	followers := counterDelta(before, after, "rc_serve_coalesce_followers_total")
	if leaders+followers > 0 {
		c.layer("serve.coalesce_share", followers/(leaders+followers))
	}
	c.layer("serve.shed_share", counterDelta(before, after, "rc_serve_shed_total")/float64(max(open.lookups, 1)))
	hits := counterDelta(before, after, "rc_client_result_cache_hits_total")
	misses := counterDelta(before, after, "rc_client_result_cache_misses_total")
	if hits+misses > 0 {
		c.layer("core.hit_share", hits/(hits+misses))
	}
	c.layer("core.exec_count", counterDelta(before, after, "rc_client_model_execs_total"))
	c.layer("core.nopred_count", counterDelta(before, after, "rc_client_no_predictions_total"))
	if got := int64(nGet + nPost); got != int64(len(h.sched.arrivals)) {
		c.problem("server handled %d /predict requests in the open phase, %d were sent", got, len(h.sched.arrivals))
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// child is a started process that is always reaped.
type child struct {
	cmd     *exec.Cmd
	logFile *os.File
	logPath string
	waited  chan struct{} // closed when Wait has returned
	wg      sync.WaitGroup
}

func startChild(c *runCtx, procs int, path string, args ...string) (*child, error) {
	ch := &child{logPath: filepath.Join(c.outDir, "rcserve.log"), waited: make(chan struct{})}
	var err error
	if ch.logFile, err = os.Create(ch.logPath); err != nil {
		return nil, err
	}
	ch.cmd = exec.Command(path, args...)
	ch.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	ch.cmd.Stdout, ch.cmd.Stderr = ch.logFile, ch.logFile
	if err := ch.cmd.Start(); err != nil {
		ch.logFile.Close()
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	ch.wg.Add(1)
	go func() {
		defer ch.wg.Done()
		// The exit status is not interesting: stop interrupts the
		// server, and an early exit is reported by waitReady.
		_ = ch.cmd.Wait()
		close(ch.waited)
	}()
	return ch, nil
}

func (ch *child) exited() bool {
	select {
	case <-ch.waited:
		return true
	default:
		return false
	}
}

// stop interrupts the child so that it drains and releases its port,
// kills it if it does not exit in time, and returns once it is reaped.
func (ch *child) stop() {
	if !ch.exited() {
		if err := ch.cmd.Process.Signal(syscall.SIGINT); err != nil && !errors.Is(err, os.ErrProcessDone) {
			_ = ch.cmd.Process.Kill()
		}
		select {
		case <-ch.waited:
		case <-time.After(10 * time.Second):
			_ = ch.cmd.Process.Kill()
			<-ch.waited
		}
	}
	ch.wg.Wait()
	ch.logFile.Close()
}
