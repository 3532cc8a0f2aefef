// Package core implements the Resource Central client library — the
// "client DLL" of Section 4.2. It is the only view of RC that client
// systems (VM scheduler, health manager, power manager) see. The library
// caches prediction results, models, and per-subscription feature data in
// memory, mirrors model/feature data to a local disk cache for use when
// the store is unavailable, supports push- and pull-based cache
// maintenance, and executes models locally so that no remote access sits
// on the critical path of a prediction.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resourcecentral/internal/featuredata"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/model"
	"resourcecentral/internal/obs"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/store"
)

// CacheMode selects how the model and feature caches are maintained
// (Section 4.2 "Cache management").
type CacheMode int

// Cache modes.
const (
	// Push: the store notifies the client of new versions; lookups never
	// touch the store on the prediction path. A missing model or feature
	// record yields a no-prediction.
	Push CacheMode = iota
	// Pull: missing models and feature records are fetched from the store
	// on demand, placing the interconnect on the critical path (the
	// configuration measured at 2.9 ms median in Section 6.1).
	Pull
	// PullAsync: a miss returns a no-prediction immediately and schedules
	// the fetch in the background, so remote accesses and model loads
	// never sit on the prediction path (the paper's other pull
	// configuration, for clients whose models or feature data exceed
	// memory or whose time budget is strict).
	PullAsync
)

// Config configures a client.
type Config struct {
	// Store is the highly available store the offline pipeline publishes
	// to. Required.
	Store *store.Store
	// Mode selects push- or pull-based cache maintenance.
	Mode CacheMode
	// DiskCacheDir mirrors models and feature data to the local file
	// system; empty disables the disk cache.
	DiskCacheDir string
	// DiskCacheExpiry bounds the age of usable disk-cache entries
	// (0 = 24h).
	DiskCacheExpiry time.Duration
	// ResultCacheCap bounds the number of cached prediction results
	// (0 = 1<<20). When full, an arbitrary half of the entries is evicted.
	ResultCacheCap int
	// Obs receives the client's metrics (predict latency histograms,
	// cache counters and gauges — the live Section 6.1 numbers). nil
	// creates a private registry so Stats() keeps working; pass
	// obs.NewNopRegistry() to disable recording entirely. When one
	// registry is shared by several clients the counters are shared too
	// (a process-wide view), and the cache-size gauges report the first
	// client's caches.
	Obs *obs.Registry
}

// Prediction is the result of one prediction request. When OK is false the
// client could not produce a prediction (Section 4.2's no-prediction
// flag) and Reason says why; the calling system must handle it (e.g. the
// scheduler assumes 100% utilization).
type Prediction struct {
	OK     bool
	Bucket int
	Score  float64
	Reason string
	// FromResultCache marks result-cache hits.
	FromResultCache bool
}

// Stats counts client-side events for the Section 6.1 performance
// analysis. It is a compatibility snapshot of the registry-backed
// counters in Config.Obs; the live view (including latency histograms)
// is the registry itself.
type Stats struct {
	ResultHits    uint64
	ResultMisses  uint64
	ModelExecs    uint64
	NoPredictions uint64
	StoreFetches  uint64
	PushUpdates   uint64
	DiskHits      uint64
}

// Client is the thread-safe RC client library.
type Client struct {
	cfg Config

	// mu guards the model and feature caches only; the result cache has
	// its own per-shard locks, so a prediction served from cache never
	// contends with model/feature updates.
	mu       sync.RWMutex
	models   map[string]*model.Trained
	features map[string]*featuredata.SubscriptionFeatures

	// results is the sharded prediction-result cache.
	results *resultCache

	inited atomic.Bool

	// obs holds the registry-backed atomic counters and latency
	// histograms; hot paths record without taking mu.
	obs *clientMetrics

	notif chan store.Notification
	done  chan struct{}
	wg    sync.WaitGroup

	// fetchMu guards the PullAsync background-fetch state (fetchQ and the
	// inflight dedup map). It is separate from mu so enqueueing a
	// background fetch never touches the prediction locks.
	fetchMu  sync.Mutex
	fetchQ   chan string
	inflight map[string]bool
}

// New creates a client; call Initialize before requesting predictions.
func New(cfg Config) (*Client, error) {
	if cfg.Store == nil {
		return nil, errors.New("core: Config.Store is required")
	}
	if cfg.DiskCacheExpiry <= 0 {
		cfg.DiskCacheExpiry = 24 * time.Hour
	}
	if cfg.ResultCacheCap <= 0 {
		cfg.ResultCacheCap = 1 << 20
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	c := &Client{
		cfg:      cfg,
		models:   make(map[string]*model.Trained),
		features: make(map[string]*featuredata.SubscriptionFeatures),
		results:  newResultCache(cfg.ResultCacheCap),
		done:     make(chan struct{}),
		inflight: make(map[string]bool),
		obs:      newClientMetrics(cfg.Obs),
	}
	c.registerGauges()
	return c, nil
}

// Obs returns the registry holding the client's metrics.
func (c *Client) Obs() *obs.Registry { return c.cfg.Obs }

// Initialize loads caches and, in push mode, subscribes to store updates
// (Table 2: initialize).
func (c *Client) Initialize() error {
	if !c.inited.CompareAndSwap(false, true) {
		return errors.New("core: already initialized")
	}

	switch c.cfg.Mode {
	case Push:
		if err := c.loadAll(); err != nil {
			return err
		}
		c.notif = make(chan store.Notification, 1024)
		c.cfg.Store.Subscribe(c.notif)
		c.wg.Add(1)
		go c.pushLoop()
	case PullAsync:
		// Under fetchMu: the fetch-queue-depth gauge may read c.fetchQ
		// concurrently.
		c.fetchMu.Lock()
		c.fetchQ = make(chan string, 4096)
		c.fetchMu.Unlock()
		c.wg.Add(1)
		go c.fetchLoop()
	}
	return nil
}

// fetchLoop serves PullAsync background fetches.
func (c *Client) fetchLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case key := <-c.fetchQ:
			c.backgroundFetch(key)
			c.fetchMu.Lock()
			delete(c.inflight, key)
			c.fetchMu.Unlock()
		}
	}
}

// backgroundFetch loads one key into the caches (errors are dropped; the
// next prediction request re-enqueues the key).
func (c *Client) backgroundFetch(key string) {
	switch {
	case strings.HasPrefix(key, "model/"):
		_ = c.loadModel(strings.TrimPrefix(key, "model/"))
	case strings.HasPrefix(key, "featuredata/sub/"):
		data, err := c.fetch(key)
		if err != nil {
			return
		}
		rec, err := featuredata.DecodeRecord(data)
		if err != nil {
			return
		}
		c.mu.Lock()
		c.features[rec.Subscription] = rec
		c.mu.Unlock()
	}
}

// enqueueFetch schedules a background fetch if one is not in flight. It
// only takes the small fetchMu, never the prediction locks.
func (c *Client) enqueueFetch(key string) {
	c.fetchMu.Lock()
	if c.inflight[key] {
		c.fetchMu.Unlock()
		return
	}
	c.inflight[key] = true
	c.fetchMu.Unlock()
	select {
	case c.fetchQ <- key:
	default:
		// Queue full: drop; the next miss re-enqueues.
		c.fetchMu.Lock()
		delete(c.inflight, key)
		c.fetchMu.Unlock()
	}
}

// Close stops background cache maintenance.
func (c *Client) Close() {
	if c.notif != nil {
		// Push mode registered the notification channel at Init; the
		// store would keep signaling it after the pushLoop exits.
		c.cfg.Store.Unsubscribe(c.notif)
	}
	close(c.done)
	c.wg.Wait()
}

// pushLoop applies store notifications to the in-memory caches.
func (c *Client) pushLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case n := <-c.notif:
			if err := c.applyUpdate(n.Key); err == nil {
				c.obs.pushUpdates.Inc()
			}
		}
	}
}

// applyUpdate refreshes one key from the store.
func (c *Client) applyUpdate(key string) error {
	switch {
	case strings.HasPrefix(key, "model/"):
		return c.loadModel(strings.TrimPrefix(key, "model/"))
	case key == pipeline.FeatureSetKey:
		return c.loadFeatureSet()
	default:
		return nil // per-subscription records are covered by the full set
	}
}

// loadAll fetches every model and the full feature dataset.
func (c *Client) loadAll() error {
	for _, m := range metric.All {
		if err := c.loadModel(m.String()); err != nil {
			return err
		}
	}
	return c.loadFeatureSet()
}

// loadModel fetches one model from the store (falling back to disk when
// the store is unavailable) and installs it.
func (c *Client) loadModel(name string) error {
	key := "model/" + name
	data, err := c.fetch(key)
	if err != nil {
		return err
	}
	trained, err := model.Decode(data)
	if err != nil {
		return fmt.Errorf("core: %s: %w", key, err)
	}
	c.mu.Lock()
	c.models[name] = trained
	c.mu.Unlock()
	// Only this model's cached results are stale; every other model's
	// entries survive the reload, so a Pull-mode miss storm on one model
	// cannot wipe the whole result cache.
	c.results.invalidateModel(name)
	c.obs.invalidations.Inc()
	return nil
}

// loadFeatureSet fetches the full feature dataset.
func (c *Client) loadFeatureSet() error {
	data, err := c.fetch(pipeline.FeatureSetKey)
	if err != nil {
		return err
	}
	set, err := featuredata.DecodeSet(data)
	if err != nil {
		return fmt.Errorf("core: %s: %w", pipeline.FeatureSetKey, err)
	}
	c.mu.Lock()
	c.features = set
	c.mu.Unlock()
	// Feature data feeds every model, so all cached results are stale.
	c.results.clear()
	return nil
}

// fetch reads a key from the store, mirroring successes to the disk cache
// and falling back to an unexpired disk entry when the store is
// unavailable (Section 4.2's two disk-cache cases).
func (c *Client) fetch(key string) ([]byte, error) {
	blob, err := c.cfg.Store.Get(key)
	if err == nil {
		c.obs.storeFetches.Inc()
		c.writeDisk(key, blob.Data)
		return blob.Data, nil
	}
	if errors.Is(err, store.ErrUnavailable) {
		if data, derr := c.readDisk(key); derr == nil {
			c.obs.diskHits.Inc()
			return data, nil
		}
	}
	return nil, err
}

func (c *Client) diskPath(key string) string {
	return filepath.Join(c.cfg.DiskCacheDir, strings.ReplaceAll(key, "/", "_")+".bin")
}

func (c *Client) writeDisk(key string, data []byte) {
	if c.cfg.DiskCacheDir == "" {
		return
	}
	path := c.diskPath(key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return // disk cache is best effort
	}
	_ = os.Rename(tmp, path)
}

func (c *Client) readDisk(key string) ([]byte, error) {
	if c.cfg.DiskCacheDir == "" {
		return nil, errors.New("core: disk cache disabled")
	}
	path := c.diskPath(key)
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if time.Since(info.ModTime()) > c.cfg.DiskCacheExpiry { //rcvet:allow(disk-cache expiry is wall-clock by design; seeded simulations run with in-memory stores)
		return nil, fmt.Errorf("core: disk cache entry %s expired", key)
	}
	return os.ReadFile(path)
}

// AvailableModels lists the loaded (push) or published (pull) model names
// (Table 2: get_available_models).
func (c *Client) AvailableModels() []string {
	if c.cfg.Mode != Push {
		names := make([]string, 0, len(metric.All))
		for _, key := range c.cfg.Store.Keys() {
			if strings.HasPrefix(key, "model/") {
				names = append(names, strings.TrimPrefix(key, "model/"))
			}
		}
		return names
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.models))
	for name := range c.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PredictSingle produces one prediction (Table 2: predict_single). It
// never returns an error for missing models/feature data — those become
// no-predictions, which callers must handle; errors indicate misuse.
func (c *Client) PredictSingle(modelName string, in *model.ClientInputs) (Prediction, error) {
	start := time.Now() //rcvet:allow(observational: feeds the predict-latency histograms only, never prediction results)
	if in == nil {
		return Prediction{}, errors.New("core: nil client inputs")
	}
	if !c.inited.Load() {
		return Prediction{}, errors.New("core: client not initialized")
	}
	p, key, ok := c.lookupResult(modelName, in, start)
	if ok {
		return p, nil
	}
	c.obs.resultMisses.Inc()

	c.mu.RLock()
	trained := c.models[modelName]
	sub := c.features[in.Subscription]
	c.mu.RUnlock()

	trained = c.resolveModel(trained, modelName)
	if trained == nil {
		return c.noPrediction(start, "model "+modelName+" not available"), nil
	}
	sub = c.resolveFeatures(sub, in.Subscription)
	if sub == nil {
		return c.noPrediction(start, "no feature data for subscription "+in.Subscription), nil
	}

	bucket, score, _, err := c.execute(trained, modelName, in, sub, nil)
	if err != nil {
		return Prediction{}, err
	}
	if c.results.put(key, resultEntry{bucket: bucket, score: score, model: modelName}) {
		c.obs.evictions.Inc()
	}
	c.obs.predictMiss.ObserveSince(start)
	return Prediction{OK: true, Bucket: bucket, Score: score}, nil
}

// lookupResult serves the result-cache hit path: key hash, one sharded
// read, hit metrics. This is the ~1 µs budget the paper allots a cached
// prediction, so the whole chain — CacheKey, resultCache.get, the
// metric ops — must stay off the heap; allocfree enforces that
// transitively.
//
//rcvet:hotpath
func (c *Client) lookupResult(modelName string, in *model.ClientInputs, start time.Time) (Prediction, uint64, bool) {
	key := in.CacheKey(modelName)
	entry, ok := c.results.get(key)
	if !ok {
		return Prediction{}, key, false
	}
	c.obs.resultHits.Inc()
	c.obs.predictHit.ObserveSince(start)
	return Prediction{OK: true, Bucket: entry.bucket, Score: entry.score, FromResultCache: true}, key, true
}

// resolveModel applies the cache-mode policy to a model-cache miss: Pull
// fetches it synchronously, PullAsync schedules a background fetch and
// answers no-prediction (trained stays nil), Push leaves the miss as-is.
func (c *Client) resolveModel(trained *model.Trained, modelName string) *model.Trained {
	if trained != nil {
		return trained
	}
	switch c.cfg.Mode {
	case Pull:
		if err := c.loadModel(modelName); err == nil {
			c.mu.RLock()
			trained = c.models[modelName]
			c.mu.RUnlock()
		}
	case PullAsync:
		c.enqueueFetch("model/" + modelName)
	}
	return trained
}

// resolveFeatures applies the cache-mode policy to a feature-cache miss.
func (c *Client) resolveFeatures(sub *featuredata.SubscriptionFeatures, subscription string) *featuredata.SubscriptionFeatures {
	if sub != nil {
		return sub
	}
	switch c.cfg.Mode {
	case Pull:
		if data, err := c.fetch(pipeline.SubFeatureKey(subscription)); err == nil {
			if rec, err := featuredata.DecodeRecord(data); err == nil {
				c.mu.Lock()
				c.features[subscription] = rec
				c.mu.Unlock()
				sub = rec
			}
		}
	case PullAsync:
		c.enqueueFetch(pipeline.SubFeatureKey(subscription))
	}
	return sub
}

// execute featurizes one input into scratch and runs the model, recording
// the execution metrics. scratch may be nil, in which case one buffer of
// the model's feature width is allocated; batch paths pass the returned
// buffer back in to reuse it across the batch.
func (c *Client) execute(trained *model.Trained, modelName string, in *model.ClientInputs,
	sub *featuredata.SubscriptionFeatures, scratch []float64) (int, float64, []float64, error) {
	execStart := time.Now() //rcvet:allow(observational: feeds the per-model execution histogram only, never prediction results)
	if w := trained.Spec.NumFeatures(); cap(scratch) < w {
		scratch = make([]float64, 0, w)
	}
	x := trained.Spec.Featurize(in, sub, scratch[:0])
	bucket, score, err := trained.Predict(x)
	if err != nil {
		return 0, 0, x, fmt.Errorf("core: model %s execution: %w", modelName, err)
	}
	c.obs.modelExecs.Inc()
	c.obs.execHist(modelName).ObserveSince(execStart)
	return bucket, score, x, nil
}

func (c *Client) noPrediction(start time.Time, reason string) Prediction {
	c.obs.noPredictions.Inc()
	c.obs.predictMiss.ObserveSince(start)
	return Prediction{OK: false, Reason: reason}
}

// PredictMany produces predictions for a batch of inputs (Table 2:
// predict_many). Entry i of the result corresponds to ins[i].
//
// This is a real batch path, not a loop over PredictSingle: the lookup
// and insert passes visit each cache shard at most once per batch, the
// featurize scratch buffer is shared across the whole batch, and inputs
// repeated within the batch execute the model only once (later
// occurrences are reported as result-cache hits, matching the sequential
// semantics).
func (c *Client) PredictMany(modelName string, ins []*model.ClientInputs) ([]Prediction, error) {
	start := time.Now() //rcvet:allow(observational: feeds the predict-latency histograms only, never prediction results)
	if !c.inited.Load() {
		return nil, errors.New("core: client not initialized")
	}
	out := make([]Prediction, len(ins))
	if len(ins) == 0 {
		return out, nil
	}
	keys := make([]uint64, len(ins))
	for i, in := range ins {
		if in == nil {
			return nil, fmt.Errorf("core: input %d: nil client inputs", i)
		}
		keys[i] = in.CacheKey(modelName)
	}

	// Lookup pass: each shard's lock is taken at most once for the batch.
	found := c.results.getBatch(keys, func(i int, e resultEntry) {
		out[i] = Prediction{OK: true, Bucket: e.bucket, Score: e.score, FromResultCache: true}
	})
	if found > 0 {
		c.obs.resultHits.Add(uint64(found))
		// The per-item cost of a batched hit is the batch lookup divided
		// across its hits; recording that per item keeps the hit
		// histogram's totals comparable with the single-call path.
		perHit := time.Since(start).Seconds() / float64(found) //rcvet:allow(observational: per-hit latency split for the hit histogram only)
		for i := 0; i < found; i++ {
			c.obs.predictHit.Observe(perHit)
		}
	}
	if found == len(ins) {
		return out, nil
	}

	// Miss pass: resolve the model once for the whole batch, then execute
	// each distinct missing input with a shared featurize scratch buffer.
	c.mu.RLock()
	trained := c.models[modelName]
	c.mu.RUnlock()
	trained = c.resolveModel(trained, modelName)

	var scratch []float64
	computed := make(map[uint64]resultEntry)
	var inserts []cacheInsert
	for i := range ins {
		if out[i].OK {
			continue // served by the lookup pass
		}
		key, in := keys[i], ins[i]
		if e, ok := computed[key]; ok {
			// Repeated input within the batch: the first occurrence's
			// execution serves it, exactly as if it had hit the cache.
			c.obs.resultHits.Inc()
			out[i] = Prediction{OK: true, Bucket: e.bucket, Score: e.score, FromResultCache: true}
			continue
		}
		c.obs.resultMisses.Inc()
		itemStart := time.Now() //rcvet:allow(observational: feeds the predict-latency histograms only, never prediction results)
		if trained == nil {
			out[i] = c.noPrediction(itemStart, "model "+modelName+" not available")
			continue
		}
		c.mu.RLock()
		sub := c.features[in.Subscription]
		c.mu.RUnlock()
		sub = c.resolveFeatures(sub, in.Subscription)
		if sub == nil {
			out[i] = c.noPrediction(itemStart, "no feature data for subscription "+in.Subscription)
			continue
		}
		var bucket int
		var score float64
		var err error
		bucket, score, scratch, err = c.execute(trained, modelName, in, sub, scratch)
		if err != nil {
			return nil, fmt.Errorf("core: input %d: %w", i, err)
		}
		e := resultEntry{bucket: bucket, score: score, model: modelName}
		computed[key] = e
		inserts = append(inserts, cacheInsert{key: key, entry: e})
		out[i] = Prediction{OK: true, Bucket: bucket, Score: score}
		c.obs.predictMiss.ObserveSince(itemStart)
	}

	// Insert pass: again one lock acquisition per shard.
	if evictions := c.results.putBatch(inserts); evictions > 0 {
		c.obs.evictions.Add(uint64(evictions))
	}
	return out, nil
}

// ForceReloadCache refreshes the memory and disk caches from the store
// (Table 2: force_reload_cache).
func (c *Client) ForceReloadCache() error {
	return c.loadAll()
}

// FlushCache drops the memory caches and removes disk-cache entries
// (Table 2: flush_cache).
func (c *Client) FlushCache() error {
	c.mu.Lock()
	c.models = make(map[string]*model.Trained)
	c.features = make(map[string]*featuredata.SubscriptionFeatures)
	c.mu.Unlock()
	c.results.clear()
	if c.cfg.DiskCacheDir != "" {
		entries, err := os.ReadDir(c.cfg.DiskCacheDir)
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".bin") {
				if err := os.Remove(filepath.Join(c.cfg.DiskCacheDir, e.Name())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Stats returns a race-safe snapshot of the client counters. It is a
// compatibility shim over the registry-backed atomics; each field is
// loaded independently, so the snapshot is weakly consistent under
// concurrent predictions.
func (c *Client) Stats() Stats {
	return Stats{
		ResultHits:    c.obs.resultHits.Value(),
		ResultMisses:  c.obs.resultMisses.Value(),
		ModelExecs:    c.obs.modelExecs.Value(),
		NoPredictions: c.obs.noPredictions.Value(),
		StoreFetches:  c.obs.storeFetches.Value(),
		PushUpdates:   c.obs.pushUpdates.Value(),
		DiskHits:      c.obs.diskHits.Value(),
	}
}

// ResultCacheLen reports the number of cached prediction results (the
// Section 6.1 result cache stays small: ~25 MB for a month of requests).
// The count sums the shards one at a time, so it is weakly consistent
// under concurrent predictions.
func (c *Client) ResultCacheLen() int {
	return c.results.len()
}
