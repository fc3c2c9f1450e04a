package linear

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
)

// svmState is the serialized form of a trained SVM.
type svmState struct {
	Lambda    float64   `json:"lambda"`
	Epochs    int       `json:"epochs"`
	PosWeight float64   `json:"pos_weight,omitempty"`
	Weights   []float64 `json:"weights"`
	Bias      float64   `json:"bias"`
}

// SaveJSON writes the trained model (hyper-parameters, weights, bias) so
// it can be reused without relearning — the "reusable EM model" the
// paper's §2 motivates active learning with.
func (s *SVM) SaveJSON(w io.Writer) error {
	st := svmState{Lambda: s.Lambda, Epochs: s.Epochs, PosWeight: s.PosWeight, Weights: s.w, Bias: s.b}
	if err := json.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("linear: encoding SVM: %w", err)
	}
	return nil
}

// LoadJSON reads a model written by SaveJSON. The loaded model predicts
// immediately; retraining reinitializes it, so LoadJSON rejects
// hyper-parameters that cannot retrain: a lambda that is not positive
// (the step size is 1/lambda) and fewer than one epoch.
func LoadJSON(r io.Reader) (*SVM, error) {
	var st svmState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("linear: decoding SVM: %w", err)
	}
	if !(st.Lambda > 0) {
		return nil, fmt.Errorf("linear: SVM lambda %v is not positive", st.Lambda)
	}
	if st.Epochs < 1 {
		return nil, fmt.Errorf("linear: SVM epochs %d is less than 1", st.Epochs)
	}
	s := NewSVM(0)
	s.Lambda, s.Epochs, s.PosWeight = st.Lambda, st.Epochs, st.PosWeight
	s.w, s.b = st.Weights, st.Bias
	s.rand = rand.New(rand.NewSource(0))
	return s, nil
}
