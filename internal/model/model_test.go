package model

import (
	"math"
	"testing"

	"resourcecentral/internal/featuredata"
	"resourcecentral/internal/metric"
	"resourcecentral/internal/ml/feature"
	"resourcecentral/internal/ml/forest"
	"resourcecentral/internal/ml/gbt"
)

func testSpec(t testing.TB, m metric.Metric) *Spec {
	t.Helper()
	s, err := NewSpec(m, []string{"IaaS", "WebRole", "WorkerRole"}, []string{"linux", "windows"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleInputs() *ClientInputs {
	return &ClientInputs{
		Subscription: "sub-1",
		VMType:       "IaaS",
		Role:         "IaaS",
		OS:           "linux",
		Party:        "third",
		Production:   true,
		Cores:        2,
		MemoryGB:     3.5,
		CreateMinute: 3 * 24 * 60,
		RequestedVMs: 4,
	}
}

func TestFeaturizeLayoutMatchesNames(t *testing.T) {
	s := testSpec(t, metric.AvgCPU)
	x := s.Featurize(sampleInputs(), nil, nil)
	if len(x) != s.NumFeatures() || len(s.FeatureNames()) != s.NumFeatures() {
		t.Errorf("featurize produced %d values and %d names for NumFeatures %d",
			len(x), len(s.FeatureNames()), s.NumFeatures())
	}
	// The feature count should be substantial (the paper's util models use
	// 127 features derived from a smaller number of attributes).
	if s.NumFeatures() < 40 {
		t.Errorf("only %d features; expected a rich feature space", s.NumFeatures())
	}
}

func TestFeaturizeUnknownSubscriptionFlag(t *testing.T) {
	s := testSpec(t, metric.Lifetime)
	names := s.FeatureNames()
	knownIdx := -1
	for i, n := range names {
		if n == "sub-known" {
			knownIdx = i
		}
	}
	if knownIdx < 0 {
		t.Fatal("no sub-known feature")
	}
	without := s.Featurize(sampleInputs(), nil, nil)
	if without[knownIdx] != 0 {
		t.Error("sub-known should be 0 without feature data")
	}
	with := s.Featurize(sampleInputs(), &featuredata.SubscriptionFeatures{VMCount: 5}, nil)
	if with[knownIdx] != 1 {
		t.Error("sub-known should be 1 with feature data")
	}
}

func TestFeaturizeDeterministic(t *testing.T) {
	s := testSpec(t, metric.P95CPU)
	sub := &featuredata.SubscriptionFeatures{VMCount: 10, MeanCores: 2}
	a := s.Featurize(sampleInputs(), sub, nil)
	b := s.Featurize(sampleInputs(), sub, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("featurize not deterministic")
		}
	}
}

func TestFeaturizeAppendsToDst(t *testing.T) {
	s := testSpec(t, metric.AvgCPU)
	dst := []float64{42}
	out := s.Featurize(sampleInputs(), nil, dst)
	if out[0] != 42 || len(out) != 1+s.NumFeatures() {
		t.Error("featurize did not append to dst")
	}
}

func TestCacheKeyStableAndSensitive(t *testing.T) {
	a := sampleInputs()
	b := sampleInputs()
	if a.CacheKey("m") != b.CacheKey("m") {
		t.Error("identical inputs hash differently")
	}
	if a.CacheKey("m") == a.CacheKey("other-model") {
		t.Error("model name not in key")
	}
	b.Cores = 4
	if a.CacheKey("m") == b.CacheKey("m") {
		t.Error("cores change not reflected in key")
	}
	c := sampleInputs()
	c.Subscription = "sub-2"
	if a.CacheKey("m") == c.CacheKey("m") {
		t.Error("subscription change not reflected in key")
	}
}

// trainTinyModel fits a trivially learnable dataset through the spec
// featurizer so the whole model path is exercised.
func trainTinyModel(t testing.TB, useForest bool) *Trained {
	t.Helper()
	s := testSpec(t, metric.AvgCPU)
	ds := &feature.Dataset{NumClasses: 4, Names: s.FeatureNames()}
	for i := 0; i < 200; i++ {
		in := sampleInputs()
		in.Cores = 1 + i%4 // label equals cores-1, perfectly learnable
		x := s.Featurize(in, nil, nil)
		ds.Add(x, i%4)
	}
	tr := &Trained{Spec: *s}
	if useForest {
		f, err := forest.Train(ds, forest.Config{Trees: 10, MaxDepth: 6, MaxFeatures: s.NumFeatures(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr.Forest = f
	} else {
		g, err := gbt.Train(ds, gbt.Config{Rounds: 15, MaxDepth: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr.GBT = g
	}
	return tr
}

func TestTrainedPredictBothLearners(t *testing.T) {
	for _, useForest := range []bool{true, false} {
		tr := trainTinyModel(t, useForest)
		in := sampleInputs()
		in.Cores = 3
		x := tr.Spec.Featurize(in, nil, nil)
		cls, score, err := tr.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if cls != 2 {
			t.Errorf("forest=%v: predicted %d, want 2", useForest, cls)
		}
		if score < 0.5 {
			t.Errorf("forest=%v: low confidence %v on clean data", useForest, score)
		}
	}
}

func TestTrainedEncodeDecodeRoundTrip(t *testing.T) {
	for _, useForest := range []bool{true, false} {
		tr := trainTinyModel(t, useForest)
		data, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		x := got.Spec.Featurize(sampleInputs(), nil, nil)
		p1, err := tr.PredictProba(x)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := got.PredictProba(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p1 {
			if math.Abs(p1[i]-p2[i]) > 1e-12 {
				t.Fatalf("decoded model differs: %v vs %v", p1, p2)
			}
		}
		if got.Name() != tr.Name() {
			t.Error("name lost in round trip")
		}
	}
}

func TestClassifierUnionValidation(t *testing.T) {
	bad := &Trained{}
	if _, err := bad.Classifier(); err == nil {
		t.Error("expected error for empty union")
	}
	tr := trainTinyModel(t, true)
	tr.GBT = trainTinyModel(t, false).GBT
	if _, err := tr.Classifier(); err == nil {
		t.Error("expected error for double union")
	}
}

func TestSanityCheck(t *testing.T) {
	tr := trainTinyModel(t, true)
	if err := tr.SanityCheck(); err != nil {
		t.Errorf("sane model failed check: %v", err)
	}
	// Wrong bucket count: an AvgCPU spec with a 2-class model.
	s := testSpec(t, metric.AvgCPU)
	ds := &feature.Dataset{NumClasses: 2, Names: s.FeatureNames()}
	for i := 0; i < 50; i++ {
		ds.Add(s.Featurize(sampleInputs(), nil, nil), i%2)
	}
	g, err := gbt.Train(ds, gbt.Config{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	mismatched := &Trained{Spec: *s, GBT: g}
	if err := mismatched.SanityCheck(); err == nil {
		t.Error("expected sanity failure for bucket-count mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("expected error on empty data")
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("expected error on garbage")
	}
}

func TestSizeBytes(t *testing.T) {
	tr := trainTinyModel(t, true)
	if tr.SizeBytes() <= 0 {
		t.Error("size should be positive")
	}
	empty := &Trained{}
	if empty.SizeBytes() != 0 {
		t.Error("empty model size should be 0")
	}
}

// TestDecodeRejectsUnevaluableTrees damages the root split of the first
// tree of a trained model. Each damage reached the prediction path before
// Decode compiled models: a feature index past the input panicked with
// index out of range, and a node that is its own child looped forever.
func TestDecodeRejectsUnevaluableTrees(t *testing.T) {
	corruptions := []struct {
		name  string
		apply func(feature, left, right *int32)
	}{
		{"feature-out-of-range", func(feature, _, _ *int32) { *feature = 999 }},
		{"negative-feature", func(feature, _, _ *int32) { *feature = -2 }},
		{"left-self-loop", func(_, left, _ *int32) { *left = 0 }},
		{"right-self-loop", func(_, _, right *int32) { *right = 0 }},
		{"right-past-end", func(_, _, right *int32) { *right = 1 << 20 }},
	}
	for _, useForest := range []bool{true, false} {
		for _, c := range corruptions {
			tr := trainTinyModel(t, useForest)
			if useForest {
				root := &tr.Forest.Trees[0].Nodes[0]
				if root.Left < 0 {
					t.Fatal("forest tree 0 is a single leaf")
				}
				c.apply(&root.Feature, &root.Left, &root.Right)
			} else {
				root := &tr.GBT.Trees[0][0].Nodes[0]
				if root.Left < 0 {
					t.Fatal("boosted tree 0 is a single leaf")
				}
				c.apply(&root.Feature, &root.Left, &root.Right)
			}
			data, err := tr.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(data); err == nil {
				t.Errorf("forest=%v %s: Decode accepted the model", useForest, c.name)
			}
		}
	}
}

func TestDecodeRejectsMisshapenEnsembles(t *testing.T) {
	cases := []struct {
		name      string
		useForest bool
		damage    func(*Trained)
	}{
		{"forest leaf class count", true, func(tr *Trained) {
			for i := range tr.Forest.Trees[0].Nodes {
				if n := &tr.Forest.Trees[0].Nodes[i]; n.Left < 0 {
					n.Probs = n.Probs[:1]
					return
				}
			}
		}},
		{"forest tree width", true, func(tr *Trained) { tr.Forest.Trees[1].NumFeatures++ }},
		{"forest no trees", true, func(tr *Trained) { tr.Forest.Trees = nil }},
		{"gbt round tree count", false, func(tr *Trained) { tr.GBT.Trees[0] = tr.GBT.Trees[0][:2] }},
		{"gbt empty tree", false, func(tr *Trained) { tr.GBT.Trees[0][1].Nodes = nil }},
		{"gbt base prior", false, func(tr *Trained) { tr.GBT.BasePrior = tr.GBT.BasePrior[:1] }},
		{"gbt width vs spec", false, func(tr *Trained) { tr.GBT.NumFeatures++ }},
		{"class count vs metric", false, func(tr *Trained) { tr.Spec.Metric = metric.WorkloadClass }},
		{"one-hot slot past width", true, func(tr *Trained) { tr.Spec.OSEnc.Index["linux"] = 40 }},
		{"one-hot width past vocabulary", true, func(tr *Trained) { tr.Spec.RoleEnc.Width = 1 << 40 }},
		{"missing encoder", false, func(tr *Trained) { tr.Spec.OSEnc = nil }},
		{"unknown metric", true, func(tr *Trained) { tr.Spec.Metric = 17 }},
	}
	for _, c := range cases {
		tr := trainTinyModel(t, c.useForest)
		c.damage(tr)
		data, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted the model", c.name)
		}
	}
}

// FuzzModelDecode feeds Decode mutations of real encoded models: it must
// either reject the bytes or return a model whose prediction returns.
// Fuzz it under a memory limit (e.g. `ulimit -v 4000000`): encoding/gob
// preallocates a map of whatever length the stream declares, so a
// mutated model declaring billions of entries (one declared about 19
// billion) makes the runtime die with a fatal out-of-memory error that
// no Decode check can catch.
func FuzzModelDecode(f *testing.F) {
	for _, useForest := range []bool{true, false} {
		data, err := trainTinyModel(f, useForest).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		x := tr.Spec.Featurize(sampleInputs(), nil, nil)
		if _, _, err := tr.Predict(x); err != nil {
			t.Errorf("decoded model failed to predict: %v", err)
		}
	})
}
