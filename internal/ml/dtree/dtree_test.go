package dtree

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"resourcecentral/internal/ml/feature"
)

// refProba walks the tree's stored nodes, following Left and Right, and
// returns the leaf distribution: the reference these tests predict with
// and check Flatten and Descend against.
func (t *Tree) refProba(x []float64) ([]float64, error) {
	if len(x) != t.NumFeatures {
		return nil, fmt.Errorf("dtree: input has %d features, want %d", len(x), t.NumFeatures)
	}
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Left < 0 {
			out := make([]float64, len(n.Probs))
			for c, p := range n.Probs {
				out[c] = float64(p)
			}
			return out, nil
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// refPredict returns refProba's most likely class and its probability.
func (t *Tree) refPredict(x []float64) (int, float64, error) {
	probs, err := t.refProba(x)
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

// xorDataset is a classic non-linearly-separable problem a depth-2 tree
// solves exactly.
func xorDataset(n int, seed uint64) *feature.Dataset {
	r := rand.New(rand.NewPCG(seed, 1))
	d := &feature.Dataset{NumClasses: 2, Names: []string{"x", "y"}}
	for i := 0; i < n; i++ {
		x := r.Float64()
		y := r.Float64()
		label := 0
		if (x > 0.5) != (y > 0.5) {
			label = 1
		}
		d.Add([]float64{x, y}, label)
	}
	return d
}

func accuracy(t *testing.T, tree *Tree, ds *feature.Dataset) float64 {
	t.Helper()
	correct := 0
	for i := range ds.X {
		pred, _, err := tree.refPredict(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

func TestTrainSolvesXOR(t *testing.T) {
	train := xorDataset(600, 1)
	test := xorDataset(200, 2)
	tree, err := Train(train, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(t, tree, test); acc < 0.97 {
		t.Errorf("XOR accuracy = %.3f, want >= 0.97", acc)
	}
}

func TestTrainBothCriteria(t *testing.T) {
	train := xorDataset(400, 3)
	for _, crit := range []Criterion{Gini, Entropy} {
		tree, err := Train(train, Config{MaxDepth: 4, Criterion: crit})
		if err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
		if acc := accuracy(t, tree, train); acc < 0.97 {
			t.Errorf("%v train accuracy = %.3f", crit, acc)
		}
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Error("criterion names wrong")
	}
}

func TestMaxDepthLimitsTree(t *testing.T) {
	train := xorDataset(500, 4)
	tree, err := Train(train, Config{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 1 {
		t.Errorf("depth = %d, want <= 1", d)
	}
}

func TestMinLeafRespected(t *testing.T) {
	train := xorDataset(200, 5)
	tree, err := Train(train, Config{MaxDepth: 10, MinLeaf: 50})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 50 on 200 samples, at most 4 leaves are possible.
	if l := tree.NumLeaves(); l > 4 {
		t.Errorf("leaves = %d, want <= 4", l)
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	d := &feature.Dataset{NumClasses: 2}
	for i := 0; i < 20; i++ {
		d.Add([]float64{float64(i)}, 0) // single class
	}
	tree, err := Train(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 || tree.Nodes[0].Left != -1 {
		t.Errorf("pure dataset should produce a single leaf, got %d nodes", len(tree.Nodes))
	}
	probs, err := tree.refProba([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] != 1 {
		t.Errorf("probs = %v", probs)
	}
}

func TestConstantFeaturesBecomeLeaf(t *testing.T) {
	d := &feature.Dataset{NumClasses: 2}
	for i := 0; i < 10; i++ {
		d.Add([]float64{7}, i%2) // unseparable
	}
	tree, err := Train(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 {
		t.Errorf("constant features should yield a leaf, got %d nodes", len(tree.Nodes))
	}
	probs, _ := tree.refProba([]float64{7})
	if math.Abs(probs[0]-0.5) > 1e-9 {
		t.Errorf("probs = %v, want [0.5 0.5]", probs)
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	tree, err := Train(xorDataset(50, 6), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.refProba([]float64{1}); err == nil {
		t.Error("expected dimension error")
	}
	if _, _, err := tree.refPredict([]float64{1, 2, 3}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestTrainRejectsBadDataset(t *testing.T) {
	if _, err := Train(&feature.Dataset{NumClasses: 2}, Config{}); err == nil {
		t.Error("expected error on empty dataset")
	}
	bad := &feature.Dataset{NumClasses: 2, X: [][]float64{{1}}, Y: []int{5}}
	if _, err := Train(bad, Config{}); err == nil {
		t.Error("expected error on invalid labels")
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := xorDataset(300, 7)
	t1, err := Train(train, Config{MaxFeatures: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Train(train, Config{MaxFeatures: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Nodes) != len(t2.Nodes) {
		t.Fatal("node counts differ")
	}
	for i := range t1.Nodes {
		if t1.Nodes[i].Feature != t2.Nodes[i].Feature || t1.Nodes[i].Threshold != t2.Nodes[i].Threshold {
			t.Fatal("trees differ")
		}
	}
}

func TestSizeBytesPositive(t *testing.T) {
	tree, _ := Train(xorDataset(100, 8), Config{})
	if tree.SizeBytes() <= 0 {
		t.Error("size should be positive")
	}
}

// Property: predicted distributions are valid probabilities summing to 1.
func TestQuickProbsSumToOne(t *testing.T) {
	tree, err := Train(xorDataset(300, 10), Config{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		probs, err := tree.refProba([]float64{x, y})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range probs {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Predict agrees with the argmax of PredictProba.
func TestQuickPredictIsArgmax(t *testing.T) {
	tree, err := Train(xorDataset(300, 11), Config{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		probs, err := tree.refProba([]float64{x, y})
		if err != nil {
			return false
		}
		cls, score, err := tree.refPredict([]float64{x, y})
		if err != nil {
			return false
		}
		return probs[cls] == score && score >= probs[1-cls]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFlattenMatchesReferenceWalk flattens two trained trees into one
// ensemble and checks that Descend from each root reaches the leaf whose
// distribution refProba returns.
func TestFlattenMatchesReferenceWalk(t *testing.T) {
	var nodes []FlatNode
	var leaves []float32
	var trees []*Tree
	var roots []int32
	for seed := uint64(20); seed < 22; seed++ {
		tree, err := Train(xorDataset(300, seed), Config{MaxDepth: 6, MaxFeatures: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, int32(len(nodes)))
		if nodes, leaves, err = tree.Flatten(nodes, leaves, 2); err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	r := rand.New(rand.NewPCG(23, 1))
	for i := 0; i < 500; i++ {
		x := []float64{r.Float64(), r.Float64()}
		for k, tree := range trees {
			want, err := tree.refProba(x)
			if err != nil {
				t.Fatal(err)
			}
			off := Descend(nodes, roots[k], x).Right
			for c := range want {
				if got := float64(leaves[int(off)+c]); got != want[c] {
					t.Fatalf("tree %d, x %v: class %d = %v, want %v", k, x, c, got, want[c])
				}
			}
		}
	}
}

func TestFlattenRejectsUnevaluableTrees(t *testing.T) {
	leaf := Node{Left: -1, Right: -1, Probs: []float32{0.5, 0.5}}
	cases := map[string]*Tree{
		"no nodes":           {NumFeatures: 2},
		"leaf class count":   {NumFeatures: 2, Nodes: []Node{{Left: -1, Probs: []float32{1}}}},
		"feature past width": {NumFeatures: 2, Nodes: []Node{{Feature: 2, Left: 1, Right: 2}, leaf, leaf}},
		"negative feature":   {NumFeatures: 2, Nodes: []Node{{Feature: -3, Left: 1, Right: 2}, leaf, leaf}},
		"left not next":      {NumFeatures: 2, Nodes: []Node{{Left: 2, Right: 1}, leaf, leaf}},
		"left self loop":     {NumFeatures: 2, Nodes: []Node{{Left: 0, Right: 1}, leaf}},
		"right self loop":    {NumFeatures: 2, Nodes: []Node{{Left: 1, Right: 0}, leaf}},
		"right past end":     {NumFeatures: 2, Nodes: []Node{{Left: 1, Right: 3}, leaf, leaf}},
		"last node not leaf": {NumFeatures: 2, Nodes: []Node{{Left: 1, Right: 2}, leaf, {Left: 3, Right: 4}}},
	}
	for name, tree := range cases {
		if _, _, err := tree.Flatten(nil, nil, 2); err == nil {
			t.Errorf("%s: Flatten accepted the tree", name)
		}
	}
}
