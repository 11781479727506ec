package svm

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Model persistence: a trained classifier serializes to a stream so the
// expensive training step (SMO over the full labeled set) runs once and
// deployments load the result. The format is Go gob of an exported
// surrogate; kernels serialize by name and parameters.

// modelWire is the serialized form of Model.
type modelWire struct {
	KernelName string
	Gamma      float64
	SVX        [][]float64
	SVCoef     []float64
	B          float64
}

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	wire := modelWire{
		SVX:    m.svX,
		SVCoef: m.svCoef,
		B:      m.b,
	}
	switch k := m.kernel.(type) {
	case RBF:
		wire.KernelName = "rbf"
		wire.Gamma = k.Gamma
	case Linear:
		wire.KernelName = "linear"
	default:
		return fmt.Errorf("svm: kernel %s is not serializable", m.kernel.Name())
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("svm: encoding model: %w", err)
	}
	return nil
}

// LoadModel reads a model written by Save.
func LoadModel(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("svm: decoding model: %w", err)
	}
	m := &Model{svX: wire.SVX, svCoef: wire.SVCoef, b: wire.B}
	switch wire.KernelName {
	case "rbf":
		m.kernel = RBF{Gamma: wire.Gamma}
	case "linear":
		m.kernel = Linear{}
	default:
		return nil, fmt.Errorf("svm: unknown kernel %q in stream", wire.KernelName)
	}
	if len(m.svX) != len(m.svCoef) {
		return nil, fmt.Errorf("svm: corrupt model: %d SVs vs %d coefficients",
			len(m.svX), len(m.svCoef))
	}
	for i, sv := range m.svX {
		if len(sv) != len(m.svX[0]) {
			return nil, fmt.Errorf("svm: corrupt model: support vector %d has dimension %d, the first %d",
				i, len(sv), len(m.svX[0]))
		}
	}
	m.initFastPath()
	return m, nil
}
