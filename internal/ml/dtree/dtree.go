// Package dtree implements CART-style classification decision trees — the
// base learner of the random forests used by Resource Central's
// utilization models (Table 1).
package dtree

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"

	"resourcecentral/internal/ml/feature"
)

// Criterion selects the impurity measure used to score splits.
type Criterion int

// Impurity criteria.
const (
	Gini Criterion = iota
	Entropy
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	if c == Entropy {
		return "entropy"
	}
	return "gini"
}

// Config controls tree induction. The zero value trains a fully grown gini
// tree on all features.
type Config struct {
	// MaxDepth limits tree depth (0 = 64).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (0 = 1).
	MinLeaf int
	// MinSplit is the minimum samples required to attempt a split (0 = 2).
	MinSplit int
	// MaxFeatures is the number of features examined per split (0 = all);
	// random forests use sqrt(#features).
	MaxFeatures int
	// Criterion selects gini or entropy.
	Criterion Criterion
	// Seed drives feature subsampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 64
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MinSplit < 2 {
		c.MinSplit = 2
	}
	return c
}

// Node is one tree node. Leaves have Left == -1 and carry the class
// distribution; internal nodes route on X[Feature] <= Threshold.
type Node struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Probs     []float32
}

// Tree is a trained classification tree.
type Tree struct {
	Nodes       []Node
	NumClasses  int
	NumFeatures int
	// Importance accumulates each feature's total impurity decrease,
	// weighted by the fraction of samples reaching the split (the paper
	// reports which attributes matter most per metric).
	Importance []float64
}

// Train grows a tree on ds.
func Train(ds *feature.Dataset, cfg Config) (*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, errors.New("dtree: empty dataset")
	}
	cfg = cfg.withDefaults()
	t := &Tree{
		NumClasses:  ds.NumClasses,
		NumFeatures: ds.NumFeatures(),
		Importance:  make([]float64, ds.NumFeatures()),
	}
	b := &builder{
		ds:  ds,
		cfg: cfg,
		t:   t,
		r:   rand.New(rand.NewPCG(cfg.Seed, 0x7ee5)),
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	b.total = ds.Len()
	b.grow(idx, 0)
	return t, nil
}

type builder struct {
	ds    *feature.Dataset
	cfg   Config
	t     *Tree
	r     *rand.Rand
	total int
}

// grow builds the subtree over idx and returns its node index.
func (b *builder) grow(idx []int, depth int) int32 {
	counts := make([]int, b.ds.NumClasses)
	for _, i := range idx {
		counts[b.ds.Y[i]]++
	}
	nodeIdx := int32(len(b.t.Nodes))
	b.t.Nodes = append(b.t.Nodes, Node{Left: -1, Right: -1})

	pure := false
	for _, c := range counts {
		if c == len(idx) {
			pure = true
		}
	}
	if pure || depth >= b.cfg.MaxDepth || len(idx) < b.cfg.MinSplit {
		b.t.Nodes[nodeIdx].Probs = probsFromCounts(counts)
		return nodeIdx
	}

	f, thr, gain, ok := b.bestSplit(idx, counts)
	if !ok {
		b.t.Nodes[nodeIdx].Probs = probsFromCounts(counts)
		return nodeIdx
	}
	b.t.Importance[f] += gain * float64(len(idx)) / float64(b.total)

	var left, right []int
	for _, i := range idx {
		if b.ds.X[i][f] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		b.t.Nodes[nodeIdx].Probs = probsFromCounts(counts)
		return nodeIdx
	}

	b.t.Nodes[nodeIdx].Feature = int32(f)
	b.t.Nodes[nodeIdx].Threshold = thr
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.t.Nodes[nodeIdx].Left = l
	b.t.Nodes[nodeIdx].Right = r
	return nodeIdx
}

// bestSplit searches (a subset of) features for the impurity-minimizing
// threshold.
func (b *builder) bestSplit(idx []int, parentCounts []int) (feat int, thr, bestGain float64, ok bool) {
	nf := b.ds.NumFeatures()
	feats := make([]int, nf)
	for i := range feats {
		feats[i] = i
	}
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < nf {
		b.r.Shuffle(nf, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:b.cfg.MaxFeatures]
	}

	parent := b.impurity(parentCounts, len(idx))
	bestGain = 1e-12
	n := float64(len(idx))

	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, len(idx))
	leftCounts := make([]int, b.ds.NumClasses)
	rightCounts := make([]int, b.ds.NumClasses)

	for _, f := range feats {
		for i, s := range idx {
			pairs[i] = pair{b.ds.X[s][f], b.ds.Y[s]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue // constant feature in this node
		}
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = parentCounts[c]
		}
		for i := 0; i < len(pairs)-1; i++ {
			leftCounts[pairs[i].y]++
			rightCounts[pairs[i].y]--
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nl := i + 1
			nr := len(pairs) - nl
			if nl < b.cfg.MinLeaf || nr < b.cfg.MinLeaf {
				continue
			}
			gain := parent -
				(float64(nl)/n)*b.impurity(leftCounts, nl) -
				(float64(nr)/n)*b.impurity(rightCounts, nr)
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = (pairs[i].v + pairs[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}

func (b *builder) impurity(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	switch b.cfg.Criterion {
	case Entropy:
		h := 0.0
		for _, c := range counts {
			if c > 0 {
				p := float64(c) / float64(n)
				h -= p * math.Log2(p)
			}
		}
		return h
	default: // Gini
		g := 1.0
		for _, c := range counts {
			p := float64(c) / float64(n)
			g -= p * p
		}
		return g
	}
}

func probsFromCounts(counts []int) []float32 {
	total := 0
	for _, c := range counts {
		total += c
	}
	probs := make([]float32, len(counts))
	if total == 0 {
		return probs
	}
	for i, c := range counts {
		probs[i] = float32(c) / float32(total)
	}
	return probs
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var walk func(i int32, d int) int
	walk = func(i int32, d int) int {
		n := &t.Nodes[i]
		if n.Left < 0 {
			return d
		}
		l := walk(n.Left, d+1)
		r := walk(n.Right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}

// NumLeaves counts leaf nodes.
func (t *Tree) NumLeaves() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Left < 0 {
			n++
		}
	}
	return n
}

// SizeBytes estimates the in-memory model size (Table 1 reports model
// sizes in the hundreds of kilobytes).
func (t *Tree) SizeBytes() int {
	size := 0
	for i := range t.Nodes {
		size += 8 + 4 + 4 + 4 + 4*len(t.Nodes[i].Probs) // threshold + ids + probs
	}
	return size
}
