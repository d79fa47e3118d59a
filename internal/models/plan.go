package models

import "adcnn/internal/nn"

// FrontPlan compiles the Conv node's per-tile program for input tiles of
// shape tile ([1, C, h, w]): the Front blocks, then the boundary's
// clipped ReLU when the model clips. The boundary quantizer is not part
// of it; the worker's codec quantizes while encoding. Compile after
// LoadParams and QuantizeInt8, so the plan sees the final layer set; it
// reads parameter values at run time.
func (m *Model) FrontPlan(tile []int) (*nn.Plan, error) {
	layers := []nn.Layer{m.Front}
	if m.Opt.Clipped() {
		layers = append(layers, m.Boundary.Layers[0])
	}
	return nn.Compile(tile, layers...)
}

// BackPlan compiles the Central's back stage for the reassembled Front
// output of one image ([1, FrontOutputShape()...]).
func (m *Model) BackPlan() (*nn.Plan, error) {
	return nn.Compile(append([]int{1}, m.FrontOutputShape()...), m.Back)
}
