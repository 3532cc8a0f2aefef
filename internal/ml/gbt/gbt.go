// Package gbt implements extreme-gradient-boosted tree classifiers
// (multi-class softmax objective, XGBoost-style second-order splits) — the
// modelling approach the paper uses for deployment size, lifetime, and
// workload class (Table 1).
package gbt

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"resourcecentral/internal/ml/dtree"
	"resourcecentral/internal/ml/feature"
)

// Config controls boosting.
type Config struct {
	// Rounds is the number of boosting iterations (0 = 100). Each round
	// adds one tree per class.
	Rounds int
	// MaxDepth limits each regression tree (0 = 4).
	MaxDepth int
	// LearningRate is the shrinkage factor (0 = 0.3).
	LearningRate float64
	// Lambda is the L2 regularization on leaf weights (0 = 1).
	Lambda float64
	// MinChildWeight is the minimum hessian sum in a child (0 = 1).
	MinChildWeight float64
	// Subsample is the row-sampling fraction per round (0 = 1).
	Subsample float64
	// ColSample is the feature-sampling fraction per tree (0 = 1).
	ColSample float64
	// Seed makes training reproducible.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.3
	}
	if c.Lambda <= 0 {
		c.Lambda = 1
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.ColSample <= 0 || c.ColSample > 1 {
		c.ColSample = 1
	}
	return c
}

// RegNode is one node of a boosted regression tree. Leaves have Left == -1
// and carry the leaf weight.
type RegNode struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Value     float64
}

// RegTree is one boosted regression tree.
type RegTree struct {
	Nodes []RegNode
}

// eval walks the tree for x. Training uses it to update the scores after
// each round; prediction runs the compiled form (see Model.Compile).
func (t *RegTree) eval(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Left < 0 {
			return n.Value
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Model is a trained gradient-boosted classifier. Trees[m][k] is the
// round-m tree for class k.
type Model struct {
	Trees       [][]*RegTree
	NumClasses  int
	NumFeatures int
	// BasePrior holds the initial per-class log-odds.
	BasePrior []float64
	// LearningRate is the shrinkage applied to each tree's output; it is
	// serialized with the model so prediction matches training.
	LearningRate float64
	// GainImportance accumulates each feature's total structure-score gain
	// across all splits of all trees.
	GainImportance []float64

	// flat is the compiled evaluator Compile derives from Trees; gob
	// skips it, so it never reaches the serialized form.
	flat *compiled
}

// compiled is every tree of a model in one preorder node array, round by
// round and class by class; a leaf's Threshold holds its value.
type compiled struct {
	nodes []dtree.FlatNode
	// roots[r*NumClasses+c] is the index of Trees[r][c]'s root in nodes.
	roots []int32
	// lr is the shrinkage PredictProba applies (LearningRate, or its
	// default when unset).
	lr float64
}

// Train fits the boosted ensemble.
func Train(ds *feature.Dataset, cfg Config) (*Model, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := ds.Len()
	if n == 0 {
		return nil, errors.New("gbt: empty dataset")
	}
	cfg = cfg.withDefaults()
	k := ds.NumClasses
	r := rand.New(rand.NewPCG(cfg.Seed, 0x6b7))

	m := &Model{
		NumClasses:     k,
		NumFeatures:    ds.NumFeatures(),
		BasePrior:      make([]float64, k),
		LearningRate:   cfg.LearningRate,
		GainImportance: make([]float64, ds.NumFeatures()),
	}
	// Initialize scores with class log-priors (smoothed).
	counts := ds.ClassCounts()
	for c := 0; c < k; c++ {
		m.BasePrior[c] = math.Log((float64(counts[c]) + 1) / float64(n+k))
	}

	// F[i*k+c] is the current score of sample i for class c.
	F := make([]float64, n*k)
	for i := 0; i < n; i++ {
		copy(F[i*k:(i+1)*k], m.BasePrior)
	}
	probs := make([]float64, n*k)
	grad := make([]float64, n)
	hess := make([]float64, n)

	for round := 0; round < cfg.Rounds; round++ {
		// Softmax over current scores.
		for i := 0; i < n; i++ {
			softmaxInto(F[i*k:(i+1)*k], probs[i*k:(i+1)*k])
		}
		// Row subsample for this round.
		rows := make([]int, 0, n)
		if cfg.Subsample < 1 {
			for i := 0; i < n; i++ {
				if r.Float64() < cfg.Subsample {
					rows = append(rows, i)
				}
			}
			if len(rows) < 2 {
				for i := 0; i < n; i++ {
					rows = append(rows, i)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				rows = append(rows, i)
			}
		}

		// Feature subset for this round's trees.
		var cols []int
		nf := ds.NumFeatures()
		if cfg.ColSample < 1 && nf > 1 {
			nCols := int(cfg.ColSample * float64(nf))
			if nCols < 1 {
				nCols = 1
			}
			perm := r.Perm(nf)
			cols = perm[:nCols]
		}

		roundTrees := make([]*RegTree, k)
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				p := probs[i*k+c]
				y := 0.0
				if ds.Y[i] == c {
					y = 1
				}
				grad[i] = p - y
				hess[i] = p * (1 - p)
				if hess[i] < 1e-16 {
					hess[i] = 1e-16
				}
			}
			tb := &regBuilder{ds: ds, grad: grad, hess: hess, cfg: cfg, cols: cols, importance: m.GainImportance}
			tree := &RegTree{}
			tb.t = tree
			tb.grow(rows, 0)
			roundTrees[c] = tree
			for i := 0; i < n; i++ {
				F[i*k+c] += cfg.LearningRate * tree.eval(ds.X[i])
			}
		}
		m.Trees = append(m.Trees, roundTrees)
	}
	if err := m.Compile(); err != nil {
		return nil, err
	}
	return m, nil
}

// Compile builds the flat evaluator PredictProba runs from Trees. Train
// calls it, and so must whoever assembles or decodes a Model; it rejects
// a model that cannot be evaluated: a round without NumClasses trees, a
// BasePrior without NumClasses entries, an empty tree, or a split that
// dtree.CheckSplit rejects.
func (m *Model) Compile() error {
	k := m.NumClasses
	if k < 1 {
		return fmt.Errorf("gbt: %d classes", k)
	}
	if len(m.BasePrior) != k {
		return fmt.Errorf("gbt: %d base priors for %d classes", len(m.BasePrior), k)
	}
	c := &compiled{roots: make([]int32, 0, len(m.Trees)*k), lr: m.LearningRate}
	if c.lr <= 0 {
		c.lr = 0.3
	}
	for r, round := range m.Trees {
		if len(round) != k {
			return fmt.Errorf("gbt: round %d has %d trees for %d classes", r, len(round), k)
		}
		for cls, t := range round {
			if t == nil || len(t.Nodes) == 0 {
				return fmt.Errorf("gbt: round %d class %d: empty tree", r, cls)
			}
			if err := dtree.CheckSize(len(c.nodes), len(t.Nodes)); err != nil {
				return fmt.Errorf("gbt: %w", err)
			}
			base := int32(len(c.nodes))
			c.roots = append(c.roots, base)
			for i := range t.Nodes {
				n := &t.Nodes[i]
				if n.Left < 0 {
					c.nodes = append(c.nodes, dtree.FlatNode{Threshold: n.Value, Feature: -1})
					continue
				}
				if err := dtree.CheckSplit(i, len(t.Nodes), n.Feature, n.Left, n.Right, m.NumFeatures); err != nil {
					return fmt.Errorf("gbt: round %d class %d: %w", r, cls, err)
				}
				c.nodes = append(c.nodes, dtree.FlatNode{Threshold: n.Threshold, Feature: n.Feature, Right: base + n.Right})
			}
		}
	}
	m.flat = c
	return nil
}

// softmaxInto writes softmax(scores) to out, which may be scores itself.
func softmaxInto(scores, out []float64) {
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	sum := 0.0
	for i, s := range scores {
		out[i] = math.Exp(s - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// regBuilder grows one XGBoost-style regression tree on (grad, hess).
type regBuilder struct {
	ds   *feature.Dataset
	grad []float64
	hess []float64
	cfg  Config
	t    *RegTree
	// cols restricts split search to a feature subset (nil = all).
	cols []int
	// importance accumulates split gains per feature (shared with the
	// model).
	importance []float64
}

func (b *regBuilder) grow(rows []int, depth int) int32 {
	var G, H float64
	for _, i := range rows {
		G += b.grad[i]
		H += b.hess[i]
	}
	nodeIdx := int32(len(b.t.Nodes))
	b.t.Nodes = append(b.t.Nodes, RegNode{Left: -1, Right: -1})

	leafValue := -G / (H + b.cfg.Lambda)
	if depth >= b.cfg.MaxDepth || len(rows) < 2 {
		b.t.Nodes[nodeIdx].Value = leafValue
		return nodeIdx
	}

	f, thr, gain, ok := b.bestSplit(rows, G, H)
	if !ok {
		b.t.Nodes[nodeIdx].Value = leafValue
		return nodeIdx
	}
	if b.importance != nil {
		b.importance[f] += gain
	}
	var left, right []int
	for _, i := range rows {
		if b.ds.X[i][f] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		b.t.Nodes[nodeIdx].Value = leafValue
		return nodeIdx
	}
	b.t.Nodes[nodeIdx].Feature = int32(f)
	b.t.Nodes[nodeIdx].Threshold = thr
	l := b.grow(left, depth+1)
	rr := b.grow(right, depth+1)
	b.t.Nodes[nodeIdx].Left = l
	b.t.Nodes[nodeIdx].Right = rr
	return nodeIdx
}

// bestSplit maximizes the structure-score gain
// GL^2/(HL+λ) + GR^2/(HR+λ) − G^2/(H+λ).
func (b *regBuilder) bestSplit(rows []int, G, H float64) (feat int, thr, bestGain float64, ok bool) {
	lambda := b.cfg.Lambda
	parent := G * G / (H + lambda)
	bestGain = 1e-9

	entries := make([]entry, len(rows))
	feats := b.cols
	if feats == nil {
		feats = make([]int, b.ds.NumFeatures())
		for i := range feats {
			feats[i] = i
		}
	}
	for _, f := range feats {
		for i, s := range rows {
			entries[i] = entry{b.ds.X[s][f], b.grad[s], b.hess[s]}
		}
		sortEntries(entries)
		if entries[0].v == entries[len(entries)-1].v {
			continue
		}
		var gl, hl float64
		for i := 0; i < len(entries)-1; i++ {
			gl += entries[i].g
			hl += entries[i].h
			if entries[i].v == entries[i+1].v {
				continue
			}
			gr := G - gl
			hr := H - hl
			if hl < b.cfg.MinChildWeight || hr < b.cfg.MinChildWeight {
				continue
			}
			gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = (entries[i].v + entries[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}

// Importance returns the gain-based feature importances normalized to sum
// to 1 (all zeros if no split happened).
func (m *Model) Importance() []float64 {
	out := make([]float64, len(m.GainImportance))
	copy(out, m.GainImportance)
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// PredictProba returns softmax class probabilities for x.
func (m *Model) PredictProba(x []float64) ([]float64, error) {
	c := m.flat
	if c == nil {
		return nil, errors.New("gbt: not compiled")
	}
	if len(x) != m.NumFeatures {
		return nil, fmt.Errorf("gbt: input has %d features, want %d", len(x), m.NumFeatures)
	}
	scores := make([]float64, m.NumClasses)
	copy(scores, m.BasePrior)
	c.accumulate(x, scores)
	softmaxInto(scores, scores)
	return scores, nil
}

// accumulate adds each tree's shrunken leaf value for x into its class's
// score, round by round and class by class: the order and arithmetic of a
// node-by-node walk of Trees, so the scores are bit-identical to that
// walk's (the reference in internal/model's tests).
//
//rcvet:hotpath
func (c *compiled) accumulate(x, scores []float64) {
	k := len(scores)
	for r := 0; r+k <= len(c.roots); r += k {
		for cls, root := range c.roots[r : r+k] {
			scores[cls] += c.lr * dtree.Descend(c.nodes, root, x).Threshold
		}
	}
}

// Predict returns the most likely class and its probability.
func (m *Model) Predict(x []float64) (int, float64, error) {
	probs, err := m.PredictProba(x)
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

// SizeBytes estimates in-memory model size.
func (m *Model) SizeBytes() int {
	size := 8 * len(m.BasePrior)
	for _, round := range m.Trees {
		for _, t := range round {
			size += len(t.Nodes) * (8 + 8 + 4 + 4 + 4)
		}
	}
	return size
}

// entry is one (feature value, gradient, hessian) triple used during split
// search.
type entry struct {
	v    float64
	g, h float64
}

// sortEntries sorts by value ascending with an allocation-free quicksort,
// avoiding interface-based sort overhead on this hot path.
func sortEntries(es []entry) {
	// Simple three-way quicksort avoiding interface-based sort.Slice
	// overhead on this hot path.
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for hi-lo > 12 {
			mid := lo + (hi-lo)/2
			if es[mid].v < es[lo].v {
				es[mid], es[lo] = es[lo], es[mid]
			}
			if es[hi].v < es[lo].v {
				es[hi], es[lo] = es[lo], es[hi]
			}
			if es[hi].v < es[mid].v {
				es[hi], es[mid] = es[mid], es[hi]
			}
			pivot := es[mid].v
			i, j := lo, hi
			for i <= j {
				for es[i].v < pivot {
					i++
				}
				for es[j].v > pivot {
					j--
				}
				if i <= j {
					es[i], es[j] = es[j], es[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				qs(lo, j)
				lo = i
			} else {
				qs(i, hi)
				hi = j
			}
		}
		// Insertion sort for small ranges.
		for i := lo + 1; i <= hi; i++ {
			for j := i; j > lo && es[j].v < es[j-1].v; j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
	}
	if len(es) > 1 {
		qs(0, len(es)-1)
	}
}
