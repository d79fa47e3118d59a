package nn

import (
	"fmt"

	"adcnn/internal/tensor"
)

// Residual implements the ResNet shortcut block (paper Figure 2(b,c)):
// y = ReLU(body(x) + shortcut(x)). The shortcut is the identity when the
// body preserves shape, or a projection (1×1 conv + BN) when it does not.
type Residual struct {
	label    string
	Body     *Sequential
	Shortcut *Sequential // nil means identity
	relu     *ReLU
}

// NewResidual creates a residual block; pass shortcut=nil for identity.
func NewResidual(label string, body *Sequential, shortcut *Sequential) *Residual {
	return &Residual{label: label, Body: body, Shortcut: shortcut, relu: NewReLU(label + ".relu")}
}

// Forward computes ReLU(body(x) + shortcut(x)).
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.Body.Forward(x, train)
	var skip *tensor.Tensor
	if r.Shortcut != nil {
		skip = r.Shortcut.Forward(x, train)
	} else {
		skip = x
	}
	if !main.SameShape(skip) {
		panic(fmt.Sprintf("nn: %s shape mismatch body %v vs shortcut %v", r.label, main.Shape, skip.Shape))
	}
	if !train {
		y := tensor.New(main.Shape...)
		joinRelu(y.Data, main.Data, skip.Data)
		return y
	}
	sum := main.Clone().Add(skip)
	return r.relu.Forward(sum, train)
}

// joinRelu is the residual join's inference kernel, shared with the
// compiled plan: dst = ReLU(main + skip). dst may alias main.
func joinRelu(dst, main, skip []float32) {
	for i, v := range skip {
		dst[i] = main[i] + v
	}
	reluInto(dst, dst)
}

// Backward propagates through the ReLU, the body, and the shortcut,
// summing the two input gradients.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := r.relu.Backward(grad)
	dxBody := r.Body.Backward(g.Clone())
	if r.Shortcut != nil {
		dxSkip := r.Shortcut.Backward(g)
		return dxBody.Add(dxSkip)
	}
	return dxBody.Add(g)
}

// Params returns body and shortcut parameters.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// Name returns the block label.
func (r *Residual) Name() string { return r.label }
