// Package model defines Resource Central's model specifications: the
// client inputs each model accepts, the featurization that combines client
// inputs with per-subscription feature data (shared verbatim between
// offline training and online prediction, which is what makes the client
// DLL's model execution correct), and the serialized form models are
// published to the store in.
package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"resourcecentral/internal/featuredata"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/ml/feature"
	"resourcecentral/internal/ml/forest"
	"resourcecentral/internal/ml/gbt"
	"resourcecentral/internal/trace"
)

// ClientInputs is the information a client system (VM scheduler, health
// manager, ...) passes with a prediction request (Section 4.2). All fields
// are known at VM deployment time.
type ClientInputs struct {
	Subscription string
	VMType       string // "IaaS" or "PaaS"
	Role         string
	OS           string
	Party        string // "first" or "third"
	Production   bool
	Cores        int
	MemoryGB     float64
	// CreateMinute is the deployment time as minutes from trace start;
	// only its hour-of-day and day-of-week reach the feature vector.
	CreateMinute trace.Minutes
	// RequestedVMs is the size of the initial deployment request.
	RequestedVMs int
}

// FNV-64a parameters (hash/fnv), inlined so CacheKey hashes without heap
// allocation or interface dispatch — it sits on the prediction fast path,
// where the paper budgets ~1 µs for a whole result-cache hit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds s plus a 0-byte separator into an FNV-64a state.
//
//rcvet:hotpath
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64 // separator byte 0: h ^ 0 == h
}

// CacheKey hashes the model name and client inputs for the result cache.
// Identical inputs always produce identical keys. The hash is FNV-64a
// over the same byte sequence the fnv-package implementation consumed,
// computed allocation-free — the //rcvet:hotpath contract makes that a
// build-time guarantee, not a benchmark-day observation.
//
//rcvet:hotpath
func (c *ClientInputs) CacheKey(modelName string) uint64 {
	var num [32]byte
	h := uint64(fnvOffset64)
	h = fnvString(h, modelName)
	h = fnvString(h, c.Subscription)
	h = fnvString(h, c.VMType)
	h = fnvString(h, c.Role)
	h = fnvString(h, c.OS)
	h = fnvString(h, c.Party)
	if c.Production {
		h = fnvString(h, "true")
	} else {
		h = fnvString(h, "false")
	}
	h = fnvString(h, string(strconv.AppendInt(num[:0], int64(c.Cores), 10)))
	h = fnvString(h, string(strconv.AppendFloat(num[:0], c.MemoryGB, 'g', -1, 64)))
	h = fnvString(h, string(strconv.AppendInt(num[:0], int64(c.CreateMinute/60), 10))) // hour granularity
	h = fnvString(h, string(strconv.AppendInt(num[:0], int64(c.RequestedVMs), 10)))
	return h
}

// FromVM derives client inputs from a trace VM record plus the size of its
// deployment request.
func FromVM(v *trace.VM, requestedVMs int) ClientInputs {
	return ClientInputs{
		Subscription: v.Subscription,
		VMType:       v.Type.String(),
		Role:         v.Role,
		OS:           v.OS,
		Party:        v.Party.String(),
		Production:   v.Production,
		Cores:        v.Cores,
		MemoryGB:     v.MemoryGB,
		CreateMinute: v.Created,
		RequestedVMs: requestedVMs,
	}
}

// Spec describes one model's inputs: which metric it predicts and the
// fitted categorical encoders. It fully determines the feature layout.
type Spec struct {
	Metric  metric.Metric
	RoleEnc *feature.OneHot
	OSEnc   *feature.OneHot
	// TrainedAt records the feature-data cutoff used in training.
	TrainedAt trace.Minutes
	// Version is the published model version.
	Version int
}

// NewSpec fits the categorical encoders over the training population.
func NewSpec(m metric.Metric, roles, oses []string) (*Spec, error) {
	roleEnc, err := feature.FitOneHot("role", roles, 8)
	if err != nil {
		return nil, err
	}
	osEnc, err := feature.FitOneHot("os", oses, 6)
	if err != nil {
		return nil, err
	}
	return &Spec{Metric: m, RoleEnc: roleEnc, OSEnc: osEnc}, nil
}

// FeatureNames lists the feature layout, in Featurize order.
func (s *Spec) FeatureNames() []string {
	names := []string{
		"cores", "log2-memgb", "production", "is-iaas", "is-third-party",
		"hour-sin", "hour-cos", "day-of-week", "is-weekend",
		"log-requested-vms",
	}
	names = append(names, s.RoleEnc.FeatureNames()...)
	names = append(names, s.OSEnc.FeatureNames()...)
	names = append(names, "sub-known", "log-sub-vms", "log-sub-deploys",
		"sub-mean-cores", "sub-mean-memgb", "sub-iaas-frac", "sub-prod-frac",
		"sub-mean-lifetime", "sub-mean-avg-util", "sub-mean-p95-util")
	for _, m := range metric.All {
		for b := 0; b < m.Buckets(); b++ {
			names = append(names, fmt.Sprintf("sub-%s-b%d", m, b+1))
		}
	}
	return names
}

// NumFeatures returns the feature dimensionality, len(FeatureNames()),
// counted without building the names so the prediction path can size its
// featurize buffer once: 10 client-input features, the two one-hot
// groups, 10 subscription aggregates, and one bucket share per bucket of
// every metric.
func (s *Spec) NumFeatures() int {
	n := 10 + s.RoleEnc.Width + s.OSEnc.Width + 10
	for _, m := range metric.All {
		n += m.Buckets()
	}
	return n
}

// validate rejects a decoded spec that Featurize or FeatureNames could
// not run on: an unknown metric, a missing encoder, or one that is not
// shaped as feature.FitOneHot builds it (one slot per vocabulary entry
// plus "other"), which would index outside its width or size the
// feature vector from a number instead of from decoded data.
func (s *Spec) validate() error {
	if s.Metric < metric.AvgCPU || s.Metric > metric.WorkloadClass {
		return fmt.Errorf("unknown metric %d", int(s.Metric))
	}
	for _, enc := range []*feature.OneHot{s.RoleEnc, s.OSEnc} {
		if enc == nil {
			return errors.New("missing one-hot encoder")
		}
		if enc.Width != len(enc.Index)+1 {
			return fmt.Errorf("one-hot %q has width %d for %d values", enc.Name, enc.Width, len(enc.Index))
		}
		for v, i := range enc.Index {
			if i < 0 || i >= enc.Width-1 {
				return fmt.Errorf("one-hot %q maps %q to slot %d of %d", enc.Name, v, i, enc.Width)
			}
		}
	}
	return nil
}

// Featurize builds the model input vector from client inputs and the
// subscription's feature data (sub may be nil for an unknown
// subscription; the sub-known flag tells the model). dst is appended to
// and returned, so callers can reuse buffers.
func (s *Spec) Featurize(in *ClientInputs, sub *featuredata.SubscriptionFeatures, dst []float64) []float64 {
	hour := float64((in.CreateMinute / 60) % 24)
	day := float64((in.CreateMinute / (24 * 60)) % 7)
	isWeekend := 0.0
	if day == 5 || day == 6 {
		isWeekend = 1
	}
	isIaaS := 0.0
	if in.VMType == trace.IaaS.String() {
		isIaaS = 1
	}
	isThird := 0.0
	if in.Party == trace.ThirdParty.String() {
		isThird = 1
	}
	prod := 0.0
	if in.Production {
		prod = 1
	}
	dst = append(dst,
		float64(in.Cores),
		math.Log2(math.Max(in.MemoryGB, 0.25)),
		prod, isIaaS, isThird,
		math.Sin(2*math.Pi*hour/24),
		math.Cos(2*math.Pi*hour/24),
		day, isWeekend,
		math.Log1p(float64(in.RequestedVMs)),
	)
	dst = s.RoleEnc.Encode(dst, in.Role)
	dst = s.OSEnc.Encode(dst, in.OS)

	if sub == nil {
		sub = &featuredata.SubscriptionFeatures{}
		dst = append(dst, 0) // sub-known
	} else {
		dst = append(dst, 1)
	}
	dst = append(dst,
		math.Log1p(float64(sub.VMCount)),
		math.Log1p(float64(sub.DeployCount)),
		sub.MeanCores, sub.MeanMemoryGB, sub.IaaSFrac, sub.ProdFrac,
		math.Log1p(sub.MeanLifetimeMin), sub.MeanAvgUtil, sub.MeanP95Util,
	)
	for _, m := range metric.All {
		fr := sub.BucketFracs(m)
		dst = append(dst, fr...)
	}
	return dst
}

// Classifier is the prediction interface both learner families satisfy.
type Classifier interface {
	PredictProba(x []float64) ([]float64, error)
	SizeBytes() int
}

// Trained couples a spec with its fitted classifier. Exactly one of Forest
// and GBT is non-nil; the union keeps gob serialization simple and
// explicit.
type Trained struct {
	Spec   Spec
	Forest *forest.Forest
	GBT    *gbt.Model
}

// Name returns the model's store name.
func (t *Trained) Name() string { return t.Spec.Metric.String() }

// Classifier returns the fitted learner.
func (t *Trained) Classifier() (Classifier, error) {
	switch {
	case t.Forest != nil && t.GBT != nil:
		return nil, errors.New("model: both learners set")
	case t.Forest != nil:
		return t.Forest, nil
	case t.GBT != nil:
		return t.GBT, nil
	default:
		return nil, errors.New("model: no learner set")
	}
}

// PredictProba runs the model on a featurized input.
func (t *Trained) PredictProba(x []float64) ([]float64, error) {
	c, err := t.Classifier()
	if err != nil {
		return nil, err
	}
	return c.PredictProba(x)
}

// Predict returns the most likely bucket and its confidence score.
func (t *Trained) Predict(x []float64) (int, float64, error) {
	probs, err := t.PredictProba(x)
	if err != nil {
		return 0, 0, err
	}
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	return best, probs[best], nil
}

// SizeBytes reports the learner size (Table 1).
func (t *Trained) SizeBytes() int {
	c, err := t.Classifier()
	if err != nil {
		return 0
	}
	return c.SizeBytes()
}

// FeatureImportance pairs a feature name with its normalized importance.
type FeatureImportance struct {
	Name       string
	Importance float64
}

// TopFeatures returns the k most important features, most important first
// (the paper reports that the per-subscription bucket history dominates).
func (t *Trained) TopFeatures(k int) []FeatureImportance {
	var imp []float64
	switch {
	case t.Forest != nil:
		imp = t.Forest.Importance()
	case t.GBT != nil:
		imp = t.GBT.Importance()
	}
	names := t.Spec.FeatureNames()
	if len(imp) != len(names) {
		return nil
	}
	out := make([]FeatureImportance, len(names))
	for i := range names {
		out[i] = FeatureImportance{Name: names[i], Importance: imp[i]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Importance > out[j].Importance })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// SanityCheck verifies the model produces valid distributions on a probe
// input, the check RC applies before publishing models (Section 4.2).
func (t *Trained) SanityCheck() error {
	probe := t.Spec.Featurize(&ClientInputs{
		Subscription: "sanity", VMType: "IaaS", Role: "IaaS", OS: "linux",
		Party: "third", Cores: 2, MemoryGB: 3.5,
	}, nil, nil)
	probs, err := t.PredictProba(probe)
	if err != nil {
		return fmt.Errorf("model %s: probe failed: %w", t.Name(), err)
	}
	if len(probs) != t.Spec.Metric.Buckets() {
		return fmt.Errorf("model %s: %d outputs for %d buckets", t.Name(), len(probs), t.Spec.Metric.Buckets())
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("model %s: invalid probability %v", t.Name(), p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("model %s: probabilities sum to %v", t.Name(), sum)
	}
	return nil
}

// Encode serializes the model for publication to the store.
func (t *Trained) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(t); err != nil {
		return nil, fmt.Errorf("model: encode %s: %w", t.Name(), err)
	}
	return buf.Bytes(), nil
}

// Decode parses a model published by Encode and compiles its learner. It
// rejects a model that cannot be evaluated on its spec's feature vectors
// (see compile), so a corrupt publication fails here, where the client
// keeps serving the previous model, instead of panicking or looping on
// the prediction path.
func Decode(data []byte) (*Trained, error) {
	var t Trained
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&t); err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	if err := t.compile(); err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	return &t, nil
}

// compile validates the spec and compiles the learner (forest.Compile,
// gbt.Compile), then checks that the learner takes the spec's feature
// vector and answers with one probability per bucket of its metric.
func (t *Trained) compile() error {
	if err := t.Spec.validate(); err != nil {
		return err
	}
	var width, classes int
	switch {
	case t.Forest != nil && t.GBT != nil:
		return errors.New("both learners set")
	case t.Forest != nil:
		if err := t.Forest.Compile(); err != nil {
			return err
		}
		width, classes = t.Forest.Trees[0].NumFeatures, t.Forest.NumClasses
	case t.GBT != nil:
		if err := t.GBT.Compile(); err != nil {
			return err
		}
		width, classes = t.GBT.NumFeatures, t.GBT.NumClasses
	default:
		return errors.New("no learner set")
	}
	if want := t.Spec.NumFeatures(); width != want {
		return fmt.Errorf("%s learner takes %d features, spec builds %d", t.Name(), width, want)
	}
	if want := t.Spec.Metric.Buckets(); classes != want {
		return fmt.Errorf("%s learner has %d classes for %d buckets", t.Name(), classes, want)
	}
	return nil
}
