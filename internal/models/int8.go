package models

// Int8 operating mode for a built model: per-channel weight quantization
// across all Front and Back blocks. The levels-entry fast path the Conv
// worker uses to feed decoded wire payloads straight into the first
// convolution's int8 activation buffer is the front plan's RunLevels.

import "adcnn/internal/nn"

// QuantizeInt8 snapshots int8 weights on every Conv2D and Linear in the
// model, enabling quantized inference. It walks Front, Boundary and Back
// directly (not Net: the FDSP wrapper is opaque to the layer walker) —
// the containers share layer objects, so Net picks up the snapshots too.
// Call after loading trained parameters; re-call if parameters change.
// Returns the number of quantized layers. On error the model is rolled
// back to pure f32 execution.
func (m *Model) QuantizeInt8() (int, error) {
	total := 0
	for _, root := range []*nn.Sequential{m.Front, m.Boundary, m.Back} {
		n, err := nn.QuantizeInt8(root)
		if err != nil {
			m.ClearInt8()
			return 0, err
		}
		total += n
	}
	return total, nil
}

// ClearInt8 drops every int8 snapshot, restoring f32 inference.
func (m *Model) ClearInt8() {
	nn.ClearInt8(m.Front)
	nn.ClearInt8(m.Boundary)
	nn.ClearInt8(m.Back)
}

// frontEntryConv returns the first convolution of the first Front block
// when the block opens with a plain Conv2D. Residual-entry fronts (the
// projection shortcut consumes the same input as the body) return false:
// those models still run int8 inside each conv but cannot consume a
// quantized input tile directly.
func (m *Model) frontEntryConv() (*nn.Conv2D, bool) {
	if len(m.Front.Layers) == 0 {
		return nil, false
	}
	block, ok := m.Front.Layers[0].(*nn.Sequential)
	if !ok || len(block.Layers) == 0 {
		return nil, false
	}
	conv, ok := block.Layers[0].(*nn.Conv2D)
	return conv, ok
}

// Int8InputOK reports whether the model can consume quantized input
// tiles through the front plan's levels entry (nn.Plan.RunLevels): the
// front must open with a plain Conv2D that has an int8 snapshot.
func (m *Model) Int8InputOK() bool {
	conv, ok := m.frontEntryConv()
	return ok && conv.Int8()
}
