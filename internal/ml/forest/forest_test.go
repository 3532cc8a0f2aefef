package forest

import (
	"math"
	"math/rand/v2"
	"testing"

	"resourcecentral/internal/ml/dtree"
	"resourcecentral/internal/ml/feature"
)

// noisyBlobs builds a 3-class gaussian-blob dataset with label noise.
func noisyBlobs(n int, seed uint64) *feature.Dataset {
	r := rand.New(rand.NewPCG(seed, 1))
	centers := [][]float64{{0, 0}, {4, 0}, {2, 4}}
	d := &feature.Dataset{NumClasses: 3, Names: []string{"x", "y"}}
	for i := 0; i < n; i++ {
		c := i % 3
		x := centers[c][0] + r.NormFloat64()
		y := centers[c][1] + r.NormFloat64()
		label := c
		if r.Float64() < 0.05 {
			label = r.IntN(3)
		}
		d.Add([]float64{x, y}, label)
	}
	return d
}

func forestAccuracy(t *testing.T, f *Forest, ds *feature.Dataset) float64 {
	t.Helper()
	correct := 0
	for i := range ds.X {
		pred, _, err := f.Predict(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

func TestForestLearnsBlobs(t *testing.T) {
	train := noisyBlobs(900, 1)
	test := noisyBlobs(300, 2)
	f, err := Train(train, Config{Trees: 30, MaxDepth: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := forestAccuracy(t, f, test); acc < 0.85 {
		t.Errorf("blob accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestForestBeatsSingleShallowTree(t *testing.T) {
	train := noisyBlobs(600, 4)
	test := noisyBlobs(300, 5)
	f, err := Train(train, Config{Trees: 40, MaxDepth: 6, MaxFeatures: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	single, err := dtree.Train(train, dtree.Config{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A one-tree forest predicts exactly that tree's distribution.
	one := &Forest{Trees: []*dtree.Tree{single}, NumClasses: 3}
	if err := one.Compile(); err != nil {
		t.Fatal(err)
	}
	singleAcc := forestAccuracy(t, one, test)
	if facc := forestAccuracy(t, f, test); facc <= singleAcc-0.02 {
		t.Errorf("forest %.3f not better than shallow tree %.3f", facc, singleAcc)
	}
}

func TestForestDeterministicDespiteConcurrency(t *testing.T) {
	train := noisyBlobs(300, 7)
	cfg := Config{Trees: 16, MaxDepth: 5, Seed: 11, Workers: 4}
	a, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{2, 2}
	pa, _ := a.PredictProba(probe)
	pb, _ := b.PredictProba(probe)
	for c := range pa {
		if pa[c] != pb[c] {
			t.Fatalf("concurrency changed results: %v vs %v", pa, pb)
		}
	}
}

func TestForestDefaults(t *testing.T) {
	train := noisyBlobs(150, 8)
	f, err := Train(train, Config{Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Trees) != 5 {
		t.Errorf("trees = %d", len(f.Trees))
	}
	// Default MaxFeatures = sqrt(2) = 1; just ensure it trained.
	probs, err := f.PredictProba([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum = %v", sum)
	}
}

func TestForestErrors(t *testing.T) {
	if _, err := Train(&feature.Dataset{NumClasses: 2}, Config{}); err == nil {
		t.Error("expected error on empty dataset")
	}
	empty := &Forest{NumClasses: 2}
	if _, err := empty.PredictProba([]float64{1}); err == nil {
		t.Error("expected error on empty forest")
	}
	f, _ := Train(noisyBlobs(60, 9), Config{Trees: 2})
	if _, _, err := f.Predict([]float64{1}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestForestScoreIsConfidence(t *testing.T) {
	train := noisyBlobs(600, 10)
	f, err := Train(train, Config{Trees: 25, MaxDepth: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Deep inside a cluster the confidence should be high; between
	// clusters it should be lower.
	_, confident, _ := f.Predict([]float64{0, 0})
	_, uncertain, _ := f.Predict([]float64{2, 1.3})
	if confident < uncertain {
		t.Errorf("center confidence %.3f < boundary confidence %.3f", confident, uncertain)
	}
	if confident < 0.6 {
		t.Errorf("cluster-center confidence %.3f unexpectedly low", confident)
	}
}

func TestForestSizeBytes(t *testing.T) {
	f, _ := Train(noisyBlobs(100, 13), Config{Trees: 3})
	if f.SizeBytes() <= 0 {
		t.Error("size should be positive")
	}
}
