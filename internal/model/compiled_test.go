package model_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"resourcecentral/internal/metric"
	"resourcecentral/internal/ml/dtree"
	"resourcecentral/internal/ml/forest"
	"resourcecentral/internal/ml/gbt"
	"resourcecentral/internal/model"
	"resourcecentral/internal/pipeline"
	"resourcecentral/internal/synth"
	"resourcecentral/internal/trace"
)

// refForest evaluates a forest by walking each tree's stored nodes and
// averaging the leaf distributions, summed in tree order: the reference
// the compiled evaluator must match bit for bit.
func refForest(f *forest.Forest, x []float64) []float64 {
	acc := make([]float64, f.NumClasses)
	for _, t := range f.Trees {
		i := int32(0)
		for t.Nodes[i].Left >= 0 {
			if n := &t.Nodes[i]; x[n.Feature] <= n.Threshold {
				i = n.Left
			} else {
				i = n.Right
			}
		}
		for c, p := range t.Nodes[i].Probs {
			acc[c] += float64(p)
		}
	}
	for c := range acc {
		acc[c] /= float64(len(f.Trees))
	}
	return acc
}

// refGBT evaluates a boosted model by walking each tree's stored nodes,
// adding the shrunken leaf values to the class priors round by round,
// then taking a softmax: the reference the compiled evaluator must match
// bit for bit.
func refGBT(m *gbt.Model, x []float64) []float64 {
	scores := make([]float64, m.NumClasses)
	copy(scores, m.BasePrior)
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.3
	}
	for _, round := range m.Trees {
		for c, t := range round {
			i := int32(0)
			for t.Nodes[i].Left >= 0 {
				if n := &t.Nodes[i]; x[n.Feature] <= n.Threshold {
					i = n.Left
				} else {
					i = n.Right
				}
			}
			scores[c] += lr * t.Nodes[i].Value
		}
	}
	hi := scores[0]
	for _, s := range scores[1:] {
		if s > hi {
			hi = s
		}
	}
	out := make([]float64, len(scores))
	sum := 0.0
	for i, s := range scores {
		out[i] = math.Exp(s - hi)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d probabilities, want %d", what, len(got), len(want))
	}
	for c := range got {
		if got[c] != want[c] {
			t.Fatalf("%s: class %d: compiled %v, reference %v", what, c, got[c], want[c])
		}
	}
}

// shape is one node of a random preorder tree; left < 0 marks a leaf.
type shape struct{ left, right int32 }

// randomShape grows a preorder tree whose leftmost path reaches exactly
// depth (0 is a single leaf); every other node splits with probability
// 0.55 while above depth.
func randomShape(r *rand.Rand, depth int) []shape {
	var s []shape
	var grow func(d int, spine bool) int32
	grow = func(d int, spine bool) int32 {
		i := int32(len(s))
		s = append(s, shape{-1, -1})
		if d < depth && (spine || r.Float64() < 0.55) {
			l := grow(d+1, spine)
			s[i] = shape{l, grow(d+1, false)}
		}
		return i
	}
	grow(0, true)
	return s
}

// randomValue is mostly a standard normal, sometimes NaN or ±Inf.
func randomValue(r *rand.Rand) float64 {
	switch u := r.Float64(); {
	case u < 0.08:
		return math.NaN()
	case u < 0.12:
		return math.Inf(1)
	case u < 0.16:
		return math.Inf(-1)
	}
	return r.NormFloat64()
}

func randomInputs(r *rand.Rand, n, width int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, width)
		for j := range xs[i] {
			xs[i][j] = randomValue(r)
		}
	}
	return xs
}

func TestCompiledForestMatchesReferenceWalk(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 150; trial++ {
		k, width := 2+r.IntN(9), 1+r.IntN(20)
		f := &forest.Forest{NumClasses: k}
		for range 1 + r.IntN(6) {
			tree := &dtree.Tree{NumClasses: k, NumFeatures: width}
			for _, s := range randomShape(r, r.IntN(15)) {
				n := dtree.Node{Left: s.left, Right: s.right}
				if s.left < 0 {
					n.Probs = make([]float32, k)
					for c := range n.Probs {
						n.Probs[c] = r.Float32()
					}
				} else {
					n.Feature, n.Threshold = int32(r.IntN(width)), randomValue(r)
				}
				tree.Nodes = append(tree.Nodes, n)
			}
			f.Trees = append(f.Trees, tree)
		}
		if err := f.Compile(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, x := range randomInputs(r, 40, width) {
			got, err := f.PredictProba(x)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "random forest", got, refForest(f, x))
		}
	}
}

func TestCompiledGBTMatchesReferenceWalk(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 150; trial++ {
		k, width := 2+r.IntN(9), 1+r.IntN(20)
		m := &gbt.Model{NumClasses: k, NumFeatures: width, BasePrior: make([]float64, k)}
		if r.IntN(4) > 0 { // else the 0.3 default shrinkage applies
			m.LearningRate = r.Float64()
		}
		for c := range m.BasePrior {
			m.BasePrior[c] = r.NormFloat64()
		}
		for range r.IntN(5) {
			round := make([]*gbt.RegTree, k)
			for c := range round {
				round[c] = &gbt.RegTree{}
				for _, s := range randomShape(r, r.IntN(15)) {
					n := gbt.RegNode{Left: s.left, Right: s.right}
					if s.left < 0 {
						n.Value = r.NormFloat64()
					} else {
						n.Feature, n.Threshold = int32(r.IntN(width)), randomValue(r)
					}
					round[c].Nodes = append(round[c].Nodes, n)
				}
			}
			m.Trees = append(m.Trees, round)
		}
		if err := m.Compile(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, x := range randomInputs(r, 40, width) {
			got, err := m.PredictProba(x)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "random boosted model", got, refGBT(m, x))
		}
	}
}

// TestCompiledPipelineModelsMatchReferenceWalk checks the six models the
// offline pipeline trains, as published and decoded, on inputs from VMs
// created after the training cutoff.
func TestCompiledPipelineModelsMatchReferenceWalk(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Days = 10
	cfg.TargetVMs = 3000
	cfg.MaxDeploymentVMs = 200
	cfg.Seed = 5
	gen, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Trace
	cutoff := tr.Horizon * 2 / 3
	res, err := pipeline.RunColumns(trace.FromTrace(tr), pipeline.Config{TrainCutoff: cutoff, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metric.All {
		data, err := res.ByMetric[m].Model.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := model.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		var x []float64
		for i := range tr.VMs {
			v := &tr.VMs[i]
			if v.Created < cutoff {
				continue
			}
			in := model.FromVM(v, 1+i%7)
			x = decoded.Spec.Featurize(&in, res.Features[v.Subscription], x[:0])
			got, err := decoded.PredictProba(x)
			if err != nil {
				t.Fatal(err)
			}
			var want []float64
			if decoded.Forest != nil {
				want = refForest(decoded.Forest, x)
			} else {
				want = refGBT(decoded.GBT, x)
			}
			sameBits(t, m.String(), got, want)
			checked++
		}
		if checked < 100 {
			t.Fatalf("%s: only %d held-out inputs", m, checked)
		}
	}
}
