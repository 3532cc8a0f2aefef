package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"resourcecentral/internal/metric"
	"resourcecentral/internal/model"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/store"
	"resourcecentral/internal/synth"
	"resourcecentral/internal/trace"
)

// The test fixture runs the offline pipeline once and publishes to a
// store; individual tests create clients against copies of it.
var (
	fixtureOnce   sync.Once
	fixtureResult *pipeline.Result
	fixtureTrace  *trace.Trace
	fixtureErr    error
)

func fixture(t testing.TB) (*pipeline.Result, *trace.Trace) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := synth.DefaultConfig()
		cfg.Days = 12
		cfg.TargetVMs = 4000
		cfg.MaxDeploymentVMs = 200
		cfg.Seed = 11
		res, err := synth.Generate(cfg)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureTrace = res.Trace
		fixtureResult, fixtureErr = pipeline.Run(res.Trace, pipeline.Config{
			TrainCutoff:    res.Trace.Horizon * 2 / 3,
			ForestTrees:    8,
			ForestMaxDepth: 10,
			GBTRounds:      10,
			Seed:           3,
		})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureResult, fixtureTrace
}

func publishedStore(t testing.TB) *store.Store {
	t.Helper()
	res, _ := fixture(t)
	st := store.New()
	if err := pipeline.Publish(st, res); err != nil {
		t.Fatal(err)
	}
	return st
}

// knownInputs returns client inputs for a subscription that has feature
// data.
func knownInputs(t testing.TB) *model.ClientInputs {
	t.Helper()
	res, tr := fixture(t)
	for i := range tr.VMs {
		v := &tr.VMs[i]
		if _, ok := res.Features[v.Subscription]; ok {
			in := model.FromVM(v, 1)
			return &in
		}
	}
	t.Fatal("no VM with feature data")
	return nil
}

func newPushClient(t testing.TB, st *store.Store) *Client {
	t.Helper()
	c, err := New(Config{Store: st, Mode: Push})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Initialize(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for nil store")
	}
}

func TestPredictBeforeInitialize(t *testing.T) {
	c, err := New(Config{Store: store.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictSingle("x", &model.ClientInputs{}); err == nil {
		t.Error("expected error before Initialize")
	}
}

func TestDoubleInitialize(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	if err := c.Initialize(); err == nil {
		t.Error("expected error on second Initialize")
	}
}

func TestPredictSingleAllMetrics(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	in := knownInputs(t)
	for _, m := range metric.All {
		p, err := c.PredictSingle(m.String(), in)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !p.OK {
			t.Fatalf("%s: unexpected no-prediction: %s", m, p.Reason)
		}
		if p.Bucket < 0 || p.Bucket >= m.Buckets() {
			t.Errorf("%s: bucket %d out of range", m, p.Bucket)
		}
		if p.Score <= 0 || p.Score > 1 {
			t.Errorf("%s: score %v out of range", m, p.Score)
		}
	}
}

func TestResultCacheHit(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	in := knownInputs(t)
	first, err := c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromResultCache {
		t.Error("first call should be a miss")
	}
	second, err := c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromResultCache {
		t.Error("second call should hit the result cache")
	}
	if second.Bucket != first.Bucket || second.Score != first.Score {
		t.Error("cached result differs from computed result")
	}
	s := c.Stats()
	if s.ResultHits != 1 || s.ResultMisses != 1 || s.ModelExecs != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNoPredictionUnknownSubscription(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	in := knownInputs(t)
	in.Subscription = "sub-never-seen"
	p, err := c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if p.OK {
		t.Error("expected no-prediction for unknown subscription")
	}
	if c.Stats().NoPredictions != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestNoPredictionUnknownModel(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	p, err := c.PredictSingle("no-such-model", knownInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.OK {
		t.Error("expected no-prediction for unknown model")
	}
}

func TestPredictMany(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	in := knownInputs(t)
	other := *in
	other.Cores = in.Cores * 2
	preds, err := c.PredictMany("avg-cpu-util", []*model.ClientInputs{in, &other, in})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("got %d predictions", len(preds))
	}
	if !preds[0].OK || !preds[1].OK || !preds[2].OK {
		t.Error("expected all predictions OK")
	}
	// Third request repeats the first → served from cache.
	if !preds[2].FromResultCache {
		t.Error("repeat in batch should hit the cache")
	}
}

func TestResultCacheEviction(t *testing.T) {
	st := publishedStore(t)
	c, err := New(Config{Store: st, Mode: Push, ResultCacheCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Initialize(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := knownInputs(t)
	for i := 0; i < 20; i++ {
		in := *base
		in.Cores = i + 1
		if _, err := c.PredictSingle("lifetime", &in); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.ResultCacheLen(); n > 4 {
		t.Errorf("result cache grew to %d entries, cap 4", n)
	}
}

func TestAvailableModels(t *testing.T) {
	st := publishedStore(t)
	push := newPushClient(t, st)
	if got := len(push.AvailableModels()); got != len(metric.All) {
		t.Errorf("push: %d models, want %d", got, len(metric.All))
	}
	pull, err := New(Config{Store: st, Mode: Pull})
	if err != nil {
		t.Fatal(err)
	}
	if err := pull.Initialize(); err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	if got := len(pull.AvailableModels()); got != len(metric.All) {
		t.Errorf("pull: %d models, want %d", got, len(metric.All))
	}
}

func TestPullModeFetchesOnDemand(t *testing.T) {
	st := publishedStore(t)
	c, err := New(Config{Store: st, Mode: Pull})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Initialize(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := knownInputs(t)
	p, err := c.PredictSingle("p95-cpu-util", in)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK {
		t.Fatalf("pull prediction failed: %s", p.Reason)
	}
	s := c.Stats()
	if s.StoreFetches < 2 { // model + subscription record
		t.Errorf("expected on-demand fetches, stats = %+v", s)
	}
	// Second call is served from cache without new fetches.
	before := c.Stats().StoreFetches
	if _, err := c.PredictSingle("p95-cpu-util", in); err != nil {
		t.Fatal(err)
	}
	if c.Stats().StoreFetches != before {
		t.Error("cached pull prediction touched the store")
	}
}

func TestPullAsyncEventuallyServes(t *testing.T) {
	st := publishedStore(t)
	c, err := New(Config{Store: st, Mode: PullAsync})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Initialize(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := knownInputs(t)

	// First request misses everything: no-prediction, background fetch.
	p, err := c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if p.OK {
		t.Fatal("first async-pull request should be a no-prediction")
	}
	// The background loop fills the caches; poll until served.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p, err = c.PredictSingle("lifetime", in)
		if err != nil {
			t.Fatal(err)
		}
		if p.OK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !p.OK {
		t.Fatalf("async pull never served: %s", p.Reason)
	}
	if got := len(c.AvailableModels()); got != len(metric.All) {
		t.Errorf("available models = %d", got)
	}
}

func TestPullAsyncUnknownSubscriptionStaysNoPrediction(t *testing.T) {
	st := publishedStore(t)
	c, err := New(Config{Store: st, Mode: PullAsync})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Initialize(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := knownInputs(t)
	in.Subscription = "sub-unknown-forever"
	for i := 0; i < 20; i++ {
		p, err := c.PredictSingle("lifetime", in)
		if err != nil {
			t.Fatal(err)
		}
		if p.OK {
			t.Fatal("prediction for a subscription that has no record")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPushUpdateRefreshesModel(t *testing.T) {
	res, _ := fixture(t)
	st := publishedStore(t)
	c := newPushClient(t, st)
	in := knownInputs(t)
	if _, err := c.PredictSingle("lifetime", in); err != nil {
		t.Fatal(err)
	}
	// Republish: the client should absorb the new versions via push.
	if err := pipeline.Publish(st, res); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().PushUpdates > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Stats().PushUpdates == 0 {
		t.Fatal("push update never applied")
	}
	// Result cache was invalidated by the update; prediction still works.
	p, err := c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK {
		t.Errorf("prediction after push update: %s", p.Reason)
	}
}

func TestDiskCacheFallback(t *testing.T) {
	st := publishedStore(t)
	dir := t.TempDir()
	// First client warms the disk cache.
	warm, err := New(Config{Store: st, Mode: Push, DiskCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Initialize(); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	// Store goes down; a fresh client must come up from disk.
	st.SetAvailable(false)
	cold, err := New(Config{Store: st, Mode: Push, DiskCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Initialize(); err != nil {
		t.Fatalf("initialize from disk cache: %v", err)
	}
	defer cold.Close()
	if cold.Stats().DiskHits == 0 {
		t.Error("expected disk-cache hits")
	}
	p, err := cold.PredictSingle("avg-cpu-util", knownInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK {
		t.Errorf("prediction from disk-cached state: %s", p.Reason)
	}
	st.SetAvailable(true)
}

func TestDiskCacheExpiry(t *testing.T) {
	st := publishedStore(t)
	dir := t.TempDir()
	warm, err := New(Config{Store: st, Mode: Push, DiskCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Initialize(); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	// Age the cache files beyond the expiry.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	st.SetAvailable(false)
	defer st.SetAvailable(true)
	cold, err := New(Config{Store: st, Mode: Push, DiskCacheDir: dir, DiskCacheExpiry: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Initialize(); err == nil {
		cold.Close()
		t.Fatal("expected initialization failure with expired disk cache")
	}
}

func TestFlushCacheAndReload(t *testing.T) {
	st := publishedStore(t)
	dir := t.TempDir()
	c, err := New(Config{Store: st, Mode: Push, DiskCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Initialize(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := knownInputs(t)
	if _, err := c.PredictSingle("lifetime", in); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCache(); err != nil {
		t.Fatal(err)
	}
	// After flush everything is a no-prediction.
	p, err := c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if p.OK {
		t.Error("expected no-prediction after flush")
	}
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if filepath.Ext(f.Name()) == ".bin" {
			t.Errorf("disk cache entry %s survived flush", f.Name())
		}
	}
	// ForceReloadCache restores service.
	if err := c.ForceReloadCache(); err != nil {
		t.Fatal(err)
	}
	p, err = c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK {
		t.Errorf("prediction after reload: %s", p.Reason)
	}
}

func TestConcurrentPredictions(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	base := knownInputs(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in := *base
				in.Cores = (w*100+i)%8 + 1
				if _, err := c.PredictSingle("avg-cpu-util", &in); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.ResultHits+s.ResultMisses != 800 {
		t.Errorf("request accounting off: %+v", s)
	}
}

func TestPredictSingleNilInputs(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	if _, err := c.PredictSingle("lifetime", nil); err == nil {
		t.Error("expected error for nil inputs")
	}
}

// TestPredictMissAllocations pins the model-execution path's allocation
// budget for every model: a result-cache miss allocates one featurize
// buffer sized from the spec and one probability vector, and nothing
// per tree.
func TestPredictMissAllocations(t *testing.T) {
	c := newPushClient(t, publishedStore(t))
	in := *knownInputs(t)
	for _, m := range metric.All {
		allocs := testing.AllocsPerRun(200, func() {
			in.RequestedVMs++ // a new cache key: every call executes the model
			p, err := c.PredictSingle(m.String(), &in)
			if err != nil || !p.OK || p.FromResultCache {
				t.Fatalf("%s: %+v, %v", m, p, err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s: a miss allocates %.0f times, want at most 3", m, allocs)
		}
	}
}

// TestCorruptModelKeepsPreviousServing republishes a model whose tree
// indexes a feature past the input. Decode rejects it at load, so the
// client keeps executing the model it had, with the same answers.
func TestCorruptModelKeepsPreviousServing(t *testing.T) {
	st := publishedStore(t)
	c := newPushClient(t, st)
	in := knownInputs(t)
	before, err := c.PredictSingle("lifetime", in)
	if err != nil || !before.OK {
		t.Fatalf("%+v, %v", before, err)
	}
	blob, err := st.Get("model/lifetime")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := model.Decode(blob.Data)
	if err != nil {
		t.Fatal(err)
	}
	nodes := bad.GBT.Trees[0][0].Nodes
	for i := range nodes {
		if nodes[i].Left >= 0 {
			nodes[i].Feature = 999
			break
		}
	}
	data, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("model/lifetime", data); err != nil {
		t.Fatal(err)
	}
	if err := c.loadModel("lifetime"); err == nil {
		t.Fatal("loadModel installed a model that cannot be evaluated")
	}
	c.results.clear()
	after, err := c.PredictSingle("lifetime", in)
	if err != nil {
		t.Fatal(err)
	}
	if !after.OK || after.FromResultCache || after.Bucket != before.Bucket || after.Score != before.Score {
		t.Errorf("after the rejected update: %+v, want %+v executed again", after, before)
	}
}
