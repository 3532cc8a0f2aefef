package dtree

import (
	"errors"
	"fmt"
	"math"
)

// FlatNode is one node of a compiled tree ensemble (forest.Forest and
// gbt.Model each keep all their trees in one []FlatNode). Nodes are in
// preorder, as grow appends them, so a split's left child is always the
// next node and only the right child's index is stored: 16 bytes a node.
// The compiled form is derived when a model is trained or decoded and is
// never serialized.
type FlatNode struct {
	// Threshold routes x[Feature] <= Threshold to the left child. A
	// boosted-tree leaf stores its value here.
	Threshold float64
	// Feature is the split feature; a negative value marks a leaf.
	Feature int32
	// Right is a split's right-child index. A classification leaf stores
	// the offset of its class distribution here.
	Right int32
}

// Descend walks the compiled tree rooted at nodes[root] for x and returns
// the leaf it reaches. CheckSplit has guaranteed that every step moves to
// a strictly larger in-range index and reads an in-range feature, so the
// walk ends within len(nodes) steps.
//
//rcvet:hotpath
func Descend(nodes []FlatNode, root int32, x []float64) *FlatNode {
	n := &nodes[root]
	for n.Feature >= 0 {
		if x[n.Feature] <= n.Threshold {
			root++
		} else {
			root = n.Right
		}
		n = &nodes[root]
	}
	return n
}

// CheckSplit rejects split node i of an n-node tree unless it is in
// preorder (left child i+1, i < right < n) and splits on one of
// numFeatures features: a tree built by grow always is, and a decoded one
// that is not would index out of range or loop forever.
func CheckSplit(i, n int, feature, left, right int32, numFeatures int) error {
	if int(left) != i+1 || int(right) <= i || int(right) >= n {
		return fmt.Errorf("node %d: children (%d, %d) are not in preorder", i, left, right)
	}
	if feature < 0 || int(feature) >= numFeatures {
		return fmt.Errorf("node %d: feature %d outside [0, %d)", i, feature, numFeatures)
	}
	return nil
}

// CheckSize rejects an ensemble whose nodes (or leaf values) could not be
// addressed by a FlatNode's int32 index once n more are appended to have.
func CheckSize(have, n int) error {
	if n > math.MaxInt32-have {
		return errors.New("compiled ensemble exceeds 2^31 entries")
	}
	return nil
}

// Flatten appends t to a compiled ensemble: its nodes to nodes, with
// child indices rebased, and each leaf's distribution to leaves, which
// the leaf's Right then indexes. It rejects a tree that cannot be
// evaluated: no nodes, a split that fails CheckSplit, or a leaf without
// numClasses probabilities.
func (t *Tree) Flatten(nodes []FlatNode, leaves []float32, numClasses int) ([]FlatNode, []float32, error) {
	if len(t.Nodes) == 0 {
		return nodes, leaves, errors.New("tree has no nodes")
	}
	if err := CheckSize(len(nodes), len(t.Nodes)); err != nil {
		return nodes, leaves, err
	}
	base := int32(len(nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Left < 0 {
			if len(n.Probs) != numClasses {
				return nodes, leaves, fmt.Errorf("node %d: leaf has %d probabilities, want %d", i, len(n.Probs), numClasses)
			}
			if err := CheckSize(len(leaves), numClasses); err != nil {
				return nodes, leaves, err
			}
			nodes = append(nodes, FlatNode{Feature: -1, Right: int32(len(leaves))})
			leaves = append(leaves, n.Probs...)
			continue
		}
		if err := CheckSplit(i, len(t.Nodes), n.Feature, n.Left, n.Right, t.NumFeatures); err != nil {
			return nodes, leaves, err
		}
		nodes = append(nodes, FlatNode{Threshold: n.Threshold, Feature: n.Feature, Right: base + n.Right})
	}
	return nodes, leaves, nil
}
