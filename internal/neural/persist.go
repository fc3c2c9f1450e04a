package neural

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
)

// netState is the serialized form of a trained network, including the
// batch-norm running statistics inference depends on.
type netState struct {
	Hidden  int         `json:"hidden"`
	Dim     int         `json:"dim"`
	W1      [][]float64 `json:"w1"`
	B1      []float64   `json:"b1"`
	Gamma   []float64   `json:"gamma"`
	Beta    []float64   `json:"beta"`
	RunMean []float64   `json:"run_mean"`
	RunVar  []float64   `json:"run_var"`
	W2      []float64   `json:"w2"`
	B2      float64     `json:"b2"`
}

// SaveJSON writes the trained network for later reuse.
func (n *Net) SaveJSON(w io.Writer) error {
	if !n.trained {
		return fmt.Errorf("neural: cannot save an untrained network")
	}
	st := netState{
		Hidden: n.Hidden, Dim: n.dim,
		W1: n.w1, B1: n.b1,
		Gamma: n.gamma, Beta: n.beta,
		RunMean: n.runMean, RunVar: n.runVar,
		W2: n.w2, B2: n.b2,
	}
	if err := json.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("neural: encoding network: %w", err)
	}
	return nil
}

// LoadJSON reads a network written by SaveJSON. The loaded network
// predicts immediately; retraining reinitializes it.
func LoadJSON(r io.Reader) (*Net, error) {
	var st netState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("neural: decoding network: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("neural: decoding network: %w", err)
	}
	n := NewNet(st.Hidden, 0)
	n.dim = st.Dim
	// Rows cut from one exact-capacity backing, as init lays them out:
	// Margin's row slicing then panics on a vector wider than the net,
	// never reading past a decoded row's length.
	n.w1 = matrix[float64](st.Hidden, st.Dim)
	for h, row := range st.W1 {
		copy(n.w1[h], row)
	}
	n.b1 = st.B1
	n.gamma, n.beta = st.Gamma, st.Beta
	n.runMean, n.runVar = st.RunMean, st.RunVar
	n.w2, n.b2 = st.W2, st.B2
	n.rand = rand.New(rand.NewSource(0))
	n.trained = true
	return n, nil
}

// validate rejects a state whose layer sizes disagree with its declared
// widths, so a corrupted file cannot panic Margin.
func (st *netState) validate() error {
	if st.Hidden < 1 || st.Dim < 1 {
		return fmt.Errorf("hidden width %d and input width %d must both be positive", st.Hidden, st.Dim)
	}
	if len(st.W1) != st.Hidden {
		return fmt.Errorf("w1 has %d rows, want hidden width %d", len(st.W1), st.Hidden)
	}
	for h, row := range st.W1 {
		if len(row) != st.Dim {
			return fmt.Errorf("w1 row %d has %d weights, want input width %d", h, len(row), st.Dim)
		}
	}
	for _, v := range []struct {
		name string
		vals []float64
	}{
		{"b1", st.B1}, {"gamma", st.Gamma}, {"beta", st.Beta},
		{"run_mean", st.RunMean}, {"run_var", st.RunVar}, {"w2", st.W2},
	} {
		if len(v.vals) != st.Hidden {
			return fmt.Errorf("%s has %d values, want hidden width %d", v.name, len(v.vals), st.Hidden)
		}
	}
	return nil
}
