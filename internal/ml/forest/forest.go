// Package forest implements random-forest classifiers (bootstrap
// aggregation of CART trees with per-split feature subsampling) — the
// modelling approach the paper uses for the average and P95 CPU
// utilization metrics (Table 1).
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"resourcecentral/internal/ml/dtree"
	"resourcecentral/internal/ml/feature"
)

// Config controls forest training.
type Config struct {
	// Trees is the ensemble size (0 = 100).
	Trees int
	// MaxDepth limits each tree (0 = 64).
	MaxDepth int
	// MinLeaf is the per-tree minimum leaf size (0 = 1).
	MinLeaf int
	// MaxFeatures examined per split (0 = sqrt of feature count).
	MaxFeatures int
	// Criterion is the split impurity measure.
	Criterion dtree.Criterion
	// Seed makes training reproducible.
	Seed uint64
	// Workers bounds training parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults(numFeatures int) Config {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = int(math.Sqrt(float64(numFeatures)))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Forest is a trained random forest.
type Forest struct {
	Trees      []*dtree.Tree
	NumClasses int

	// flat is the compiled evaluator Compile derives from Trees; gob
	// skips it, so the serialized form is Trees and NumClasses alone.
	flat *compiled
}

// compiled is every tree of a forest in one preorder node array, with
// all leaf distributions in one flat slice.
type compiled struct {
	nodes []dtree.FlatNode
	// leaves holds NumClasses probabilities per leaf; a leaf node's Right
	// is its offset here.
	leaves []float32
	// roots[t] is the index of tree t's root in nodes.
	roots       []int32
	numFeatures int
}

// Train fits the ensemble. Trees are trained concurrently but the result
// is deterministic for a given Config.Seed.
func Train(ds *feature.Dataset, cfg Config) (*Forest, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, errors.New("forest: empty dataset")
	}
	cfg = cfg.withDefaults(ds.NumFeatures())

	f := &Forest{
		Trees:      make([]*dtree.Tree, cfg.Trees),
		NumClasses: ds.NumClasses,
	}
	// Pre-derive one seed per tree so concurrency cannot affect results.
	seeds := make([]uint64, cfg.Trees)
	seedGen := rand.New(rand.NewPCG(cfg.Seed, 0xf0125))
	for i := range seeds {
		seeds[i] = seedGen.Uint64()
	}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Trees)
	sem := make(chan struct{}, cfg.Workers)
	for i := 0; i < cfg.Trees; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := rand.New(rand.NewPCG(seeds[i], 0xb001))
			boot := bootstrap(ds, r)
			tree, err := dtree.Train(boot, dtree.Config{
				MaxDepth:    cfg.MaxDepth,
				MinLeaf:     cfg.MinLeaf,
				MaxFeatures: cfg.MaxFeatures,
				Criterion:   cfg.Criterion,
				Seed:        seeds[i] ^ 0x51ee7,
			})
			if err != nil {
				errs[i] = err
				return
			}
			f.Trees[i] = tree
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("forest: tree training: %w", err)
		}
	}
	if err := f.Compile(); err != nil {
		return nil, err
	}
	return f, nil
}

// Compile builds the flat evaluator PredictProba runs from Trees. Train
// calls it, and so must whoever assembles or decodes a Forest; it
// rejects a forest that cannot be evaluated: no trees, trees that
// disagree on the feature count, or a tree dtree.Tree.Flatten rejects.
func (f *Forest) Compile() error {
	if len(f.Trees) == 0 {
		return errors.New("forest: no trees")
	}
	if f.NumClasses < 1 {
		return fmt.Errorf("forest: %d classes", f.NumClasses)
	}
	c := &compiled{roots: make([]int32, len(f.Trees))}
	for i, t := range f.Trees {
		if t == nil {
			return fmt.Errorf("forest: tree %d is nil", i)
		}
		if i == 0 {
			c.numFeatures = t.NumFeatures
		} else if t.NumFeatures != c.numFeatures {
			return fmt.Errorf("forest: tree %d has %d features, tree 0 has %d", i, t.NumFeatures, c.numFeatures)
		}
		c.roots[i] = int32(len(c.nodes))
		var err error
		c.nodes, c.leaves, err = t.Flatten(c.nodes, c.leaves, f.NumClasses)
		if err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
	}
	f.flat = c
	return nil
}

// bootstrap draws n samples with replacement (rows shared, not copied).
func bootstrap(ds *feature.Dataset, r *rand.Rand) *feature.Dataset {
	n := ds.Len()
	out := &feature.Dataset{
		Names:      ds.Names,
		NumClasses: ds.NumClasses,
		X:          make([][]float64, n),
		Y:          make([]int, n),
	}
	for i := 0; i < n; i++ {
		j := r.IntN(n)
		out.X[i] = ds.X[j]
		out.Y[i] = ds.Y[j]
	}
	return out
}

// PredictProba averages the trees' class distributions.
func (f *Forest) PredictProba(x []float64) ([]float64, error) {
	c := f.flat
	if c == nil {
		return nil, errors.New("forest: not compiled")
	}
	if len(x) != c.numFeatures {
		return nil, fmt.Errorf("forest: input has %d features, want %d", len(x), c.numFeatures)
	}
	acc := make([]float64, f.NumClasses)
	c.accumulate(x, acc)
	for k := range acc {
		acc[k] /= float64(len(c.roots))
	}
	return acc, nil
}

// accumulate adds each tree's leaf distribution for x into acc, tree by
// tree and class by class: the order of a node-by-node walk of Trees, so
// the probabilities are bit-identical to that walk's (the reference in
// internal/model's tests).
//
//rcvet:hotpath
func (c *compiled) accumulate(x, acc []float64) {
	k := int32(len(acc))
	for _, root := range c.roots {
		off := dtree.Descend(c.nodes, root, x).Right
		for i, p := range c.leaves[off : off+k] {
			acc[i] += float64(p)
		}
	}
}

// Predict returns the most likely class and its averaged probability,
// which serves as the prediction confidence score.
func (f *Forest) Predict(x []float64) (int, float64, error) {
	probs, err := f.PredictProba(x)
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

// Importance averages the trees' impurity-decrease feature importances,
// normalized to sum to 1 (all zeros if the forest never split).
func (f *Forest) Importance() []float64 {
	if len(f.Trees) == 0 {
		return nil
	}
	out := make([]float64, f.Trees[0].NumFeatures)
	for _, t := range f.Trees {
		for i, v := range t.Importance {
			out[i] += v
		}
	}
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

// SizeBytes estimates the in-memory model size.
func (f *Forest) SizeBytes() int {
	size := 0
	for _, t := range f.Trees {
		size += t.SizeBytes()
	}
	return size
}
