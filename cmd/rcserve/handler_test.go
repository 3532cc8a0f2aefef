package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"resourcecentral/internal/core"
	"resourcecentral/internal/model"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/serve"
	"resourcecentral/internal/store"
	"resourcecentral/internal/synth"
)

var (
	srvOnce    sync.Once
	srvHandler *handlerFixture
	srvErr     error
)

type handlerFixture struct {
	client *core.Client
	tier   *serve.Tier
	hub    *serve.Hub
	st     *store.Store
	reg    *obs.Registry
	sub    string
}

// fixture trains a small pipeline once and builds the instrumented
// handler stack exactly as main does.
func fixture(t *testing.T) *handlerFixture {
	t.Helper()
	srvOnce.Do(func() {
		cfg := synth.DefaultConfig()
		cfg.Days = 9
		cfg.TargetVMs = 1500
		cfg.MaxDeploymentVMs = 150
		cfg.Seed = 5
		gen, err := synth.Generate(cfg)
		if err != nil {
			srvErr = err
			return
		}
		reg := obs.NewRegistry()
		res, err := pipeline.Run(gen.Trace, pipeline.Config{
			TrainCutoff:    gen.Trace.Horizon * 2 / 3,
			ForestTrees:    4,
			ForestMaxDepth: 6,
			GBTRounds:      4,
			Seed:           1,
			Obs:            reg,
		})
		if err != nil {
			srvErr = err
			return
		}
		st := store.New()
		st.Instrument(reg)
		if err := pipeline.Publish(st, res, reg); err != nil {
			srvErr = err
			return
		}
		client, err := core.New(core.Config{Store: st, Mode: core.Push, Obs: reg})
		if err != nil {
			srvErr = err
			return
		}
		if err := client.Initialize(); err != nil {
			srvErr = err
			return
		}
		tier, err := serve.New(serve.Config{
			Upstream: client,
			MaxBatch: 64,
			MaxDelay: 200 * time.Microsecond,
			Obs:      reg,
		})
		if err != nil {
			srvErr = err
			return
		}
		hub := serve.NewHub(st, 16, reg)
		sub := ""
		for s := range res.Features {
			sub = s
			break
		}
		srvHandler = &handlerFixture{client: client, tier: tier, hub: hub, st: st, reg: reg, sub: sub}
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvHandler
}

func (f *handlerFixture) handler() http.Handler {
	return newHandler(&server{
		client: f.client, tier: f.tier, hub: f.hub, reg: f.reg,
		start: time.Now().Add(-time.Second),
	})
}

func get(t *testing.T, f *handlerFixture, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	f.handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func post(t *testing.T, f *handlerFixture, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	f.handler().ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	f := fixture(t)
	rec := get(t, f, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
	if body["models"].(float64) != 6 {
		t.Errorf("models = %v, want 6", body["models"])
	}
	if body["uptime_seconds"].(float64) <= 0 {
		t.Errorf("uptime = %v", body["uptime_seconds"])
	}
}

// predictRequests scrapes /metrics?format=json for the GET /predict
// request counter with the given status code. The fixture's registry is
// shared by every test and every -count repetition, so callers assert
// deltas, not absolute values.
func predictRequests(t *testing.T, f *handlerFixture, code string) float64 {
	t.Helper()
	var fams []obs.Family
	if err := json.Unmarshal(get(t, f, "/metrics?format=json").Body.Bytes(), &fams); err != nil {
		t.Fatalf("json metrics: %v", err)
	}
	for _, fam := range fams {
		if fam.Name != "rc_http_requests_total" {
			continue
		}
		for _, s := range fam.Samples {
			var route, c string
			for _, l := range s.Labels {
				switch l.Key {
				case "route":
					route = l.Value
				case "code":
					c = l.Value
				}
			}
			if route == "GET /predict" && c == code {
				return s.Value
			}
		}
	}
	return 0
}

func TestPredictAndMetricsEndpoint(t *testing.T) {
	f := fixture(t)
	ok0, bad0 := predictRequests(t, f, "200"), predictRequests(t, f, "400")

	// Two identical predictions: a miss then a result-cache hit.
	for i := 0; i < 2; i++ {
		rec := get(t, f, "/predict?model=lifetime&subscription="+f.sub)
		if rec.Code != 200 {
			t.Fatalf("predict status = %d, body %s", rec.Code, rec.Body.String())
		}
	}
	rec := get(t, f, "/predict?model=lifetime") // missing subscription
	if rec.Code != 400 {
		t.Fatalf("bad request status = %d", rec.Code)
	}

	rec = get(t, f, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		// Client predict-latency histogram with hit/miss split (§6.1).
		`rc_client_predict_seconds_bucket{result="hit",le=`,
		`rc_client_predict_seconds_bucket{result="miss",le=`,
		`rc_client_model_exec_seconds_bucket{model="lifetime",le=`,
		// Store and pipeline instrumentation.
		"rc_store_puts_total",
		"rc_store_record_bytes_bucket",
		`rc_pipeline_stage_seconds_bucket{stage="run",le=`,
		// HTTP middleware, labeled by registered route pattern.
		`rc_http_requests_total{route="GET /predict",code="200"} `,
		`rc_http_requests_total{route="GET /predict",code="400"} `,
		`rc_http_request_seconds_bucket{route="GET /predict",le=`,
		// Serving-tier instrumentation.
		"rc_serve_coalesce_leaders_total",
		"rc_serve_batches_total",
		"rc_serve_batch_size_bucket",
		// Gauges.
		"rc_client_result_cache_size",
		"rc_client_models_loaded 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// JSON exposition of the same registry.
	rec = get(t, f, "/metrics?format=json")
	var fams []obs.Family
	if err := json.Unmarshal(rec.Body.Bytes(), &fams); err != nil {
		t.Fatalf("json metrics: %v", err)
	}
	if len(fams) == 0 {
		t.Error("json metrics empty")
	}
	if d := predictRequests(t, f, "200") - ok0; d != 2 {
		t.Errorf("GET /predict 200s grew by %g, want 2", d)
	}
	if d := predictRequests(t, f, "400") - bad0; d != 1 {
		t.Errorf("GET /predict 400s grew by %g, want 1", d)
	}
}

func TestStatsEndpointStillServes(t *testing.T) {
	f := fixture(t)
	rec := get(t, f, "/stats")
	if rec.Code != 200 {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var s core.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
}

func TestPredictBatchEndpoint(t *testing.T) {
	f := fixture(t)

	body := `[
		{"subscription": "` + f.sub + `", "cores": 2, "memgb": 3.5},
		{"subscription": "` + f.sub + `", "cores": 4, "memgb": 7, "production": true},
		{"subscription": "` + f.sub + `", "cores": 2, "memgb": 3.5}
	]`
	rec := post(t, f, "/predict?model=lifetime", body)
	if rec.Code != 200 {
		t.Fatalf("batch status = %d, body %s", rec.Code, rec.Body.String())
	}
	var results []serve.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		if !r.OK || r.Degraded {
			t.Errorf("result %d = %+v, want OK", i, r)
		}
	}
	if results[0].Bucket != results[2].Bucket {
		t.Errorf("identical inputs disagree: %+v vs %+v", results[0], results[2])
	}
}

func TestPredictBatchEndpointValidation(t *testing.T) {
	f := fixture(t)
	cases := []struct {
		name, path, body string
	}{
		{"missing model", "/predict", `[{"subscription":"s"}]`},
		{"empty batch", "/predict?model=lifetime", `[]`},
		{"not an array", "/predict?model=lifetime", `{"subscription":"s"}`},
		{"missing subscription", "/predict?model=lifetime", `[{"cores":2}]`},
		{"unknown field", "/predict?model=lifetime", `[{"subscription":"s","corez":2}]`},
		{"bad cores type", "/predict?model=lifetime", `[{"subscription":"s","cores":"x"}]`},
	}
	for _, tc := range cases {
		if rec := post(t, f, tc.path, tc.body); rec.Code != 400 {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
		}
	}
}

// gatedUpstream holds upstream calls until the gate opens, so tests can
// deterministically fill the admission budget.
type gatedUpstream struct {
	gate  chan struct{}
	inner core.BatchPredictor
}

func (g gatedUpstream) PredictMany(modelName string, ins []*model.ClientInputs) ([]core.Prediction, error) {
	<-g.gate
	return g.inner.PredictMany(modelName, ins)
}

// TestPredictShedsWithHeader: past the admission budget the endpoint
// answers 200 with the no-prediction flag and the degraded header — the
// paper's contract that callers always handle a no-prediction.
func TestPredictShedsWithHeader(t *testing.T) {
	f := fixture(t)
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	tier, err := serve.New(serve.Config{
		Upstream:    gatedUpstream{gate: gate, inner: f.client},
		MaxBatch:    1,
		MaxDelay:    100 * time.Microsecond,
		MaxInFlight: 1,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	h := newHandler(&server{client: f.client, tier: tier, hub: f.hub, reg: reg, start: time.Now()})

	// Hold one prediction in flight, then push a second past the budget.
	held := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/predict?model=lifetime&subscription="+f.sub, nil))
		held <- rec
	}()
	leaders := reg.Counter("rc_serve_coalesce_leaders_total", "")
	for deadline := time.Now().Add(5 * time.Second); leaders.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("held request never reached the tier")
		}
		time.Sleep(200 * time.Microsecond)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/predict?model=lifetime&subscription="+f.sub+"&cores=8", nil))
	if rec.Code != 200 {
		t.Fatalf("shed status = %d, want 200 (degraded, not an error)", rec.Code)
	}
	if got := rec.Header().Get(serve.DegradedHeader); got != "shed" {
		t.Errorf("%s = %q, want \"shed\"", serve.DegradedHeader, got)
	}
	var res serve.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.OK || !res.Degraded || res.Reason != serve.ReasonShed {
		t.Errorf("shed result = %+v", res)
	}

	close(gate)
	if rec := <-held; rec.Code != 200 {
		t.Errorf("held request status = %d, body %s", rec.Code, rec.Body.String())
	}
}

// TestSubscribeStreamsInvalidations: a store publish reaches /subscribe
// clients as an SSE invalidate event.
func TestSubscribeStreamsInvalidations(t *testing.T) {
	f := fixture(t)
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Wait for the subscriber to register, then publish.
	for deadline := time.Now().Add(5 * time.Second); f.hub.Subscribers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := f.st.Put("model/lifetime", []byte("republished")); err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var acc string
		for {
			n, err := resp.Body.Read(buf)
			acc += string(buf[:n])
			if strings.Contains(acc, "\n\n") || err != nil {
				got <- acc
				return
			}
		}
	}()
	select {
	case acc := <-got:
		if !strings.Contains(acc, "event: invalidate") || !strings.Contains(acc, `"key":"model/lifetime"`) {
			t.Errorf("SSE payload = %q", acc)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no invalidation event arrived")
	}
}
