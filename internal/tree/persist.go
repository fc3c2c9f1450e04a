package tree

import (
	"encoding/json"
	"fmt"
	"io"
)

// forestState is the serialized form of a trained forest. Node is
// already an exported recursive struct, so trees serialize directly.
type forestState struct {
	NumTrees      int     `json:"num_trees"`
	VoteThreshold float64 `json:"vote_threshold,omitempty"`
	Roots         []*Node `json:"roots"`
}

// SaveJSON writes the trained forest structure for later reuse.
func (f *Forest) SaveJSON(w io.Writer) error {
	st := forestState{NumTrees: f.NumTrees, VoteThreshold: f.VoteThreshold,
		Roots: make([]*Node, 0, len(f.trees))}
	for _, t := range f.trees {
		st.Roots = append(st.Roots, t.Root)
	}
	if err := json.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("tree: encoding forest: %w", err)
	}
	return nil
}

// LoadJSON reads a forest written by SaveJSON.
func LoadJSON(r io.Reader) (*Forest, error) {
	var st forestState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("tree: decoding forest: %w", err)
	}
	f := NewForest(st.NumTrees, 0)
	f.VoteThreshold = st.VoteThreshold
	for _, root := range st.Roots {
		if err := validateNode(root); err != nil {
			return nil, fmt.Errorf("tree: decoding forest: %w", err)
		}
		f.trees = append(f.trees, &Tree{Root: root})
	}
	return f, nil
}

// validateNode rejects structurally broken trees (an internal node must
// have both children and split on a non-negative feature index) so a
// corrupted file cannot panic Predict.
func validateNode(n *Node) error {
	if n == nil {
		return fmt.Errorf("nil node")
	}
	if n.Leaf {
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("internal node missing a child")
	}
	if n.Feature < 0 {
		return fmt.Errorf("internal node splits on negative feature %d", n.Feature)
	}
	if err := validateNode(n.Left); err != nil {
		return err
	}
	return validateNode(n.Right)
}
