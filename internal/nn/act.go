package nn

import (
	"math/rand"

	"adcnn/internal/tensor"
)

// ReLU is the standard rectified linear unit.
type ReLU struct {
	label string
	mask  []bool
}

// NewReLU creates a ReLU activation layer.
func NewReLU(label string) *ReLU { return &ReLU{label: label} }

// Forward computes max(0, x).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	reluInto(y.Data, x.Data)
	if train {
		r.mask = make([]bool, len(x.Data))
		for i, v := range x.Data {
			r.mask[i] = v > 0
		}
	}
	return y
}

// reluInto is the ReLU inference kernel, shared with the compiled plan's
// epilogue. dst may alias src.
func reluInto(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// Backward zeroes the gradient where the forward input was non-positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward(train=true)")
	}
	dx := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = v
		}
	}
	r.mask = nil
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Name returns the layer label.
func (r *ReLU) Name() string { return r.label }

// ClippedReLU is the paper's ReLU[a,b] (Section 4.1):
//
//	y = b-a  if x > b
//	y = x-a  if a <= x <= b
//	y = 0    if x < a
//
// The lower bound a prunes small activations to exact zeros (raising
// sparsity for the RLE stage) and the upper bound b caps the dynamic
// range so a fixed-point quantizer covers it with few bits.
type ClippedReLU struct {
	label string
	Lo    float32 // a
	Hi    float32 // b
	mask  []bool  // true where gradient passes (a <= x <= b)
}

// NewClippedReLU creates a clipped ReLU with bounds [lo, hi].
func NewClippedReLU(label string, lo, hi float32) *ClippedReLU {
	if hi <= lo {
		panic("nn: ClippedReLU requires hi > lo")
	}
	return &ClippedReLU{label: label, Lo: lo, Hi: hi}
}

// Range returns the output dynamic range b-a.
func (c *ClippedReLU) Range() float32 { return c.Hi - c.Lo }

// Forward applies the clipped rectifier.
func (c *ClippedReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	clipInto(y.Data, x.Data, c.Lo, c.Hi)
	if train {
		c.mask = make([]bool, len(x.Data))
		for i, v := range x.Data {
			c.mask[i] = v >= c.Lo && v <= c.Hi
		}
	}
	return y
}

// clipInto is the clipped-ReLU inference kernel, shared with the
// compiled plan's epilogue. dst may alias src.
func clipInto(dst, src []float32, lo, hi float32) {
	top := hi - lo
	for i, v := range src {
		switch {
		case v > hi:
			dst[i] = top
		case v >= lo:
			dst[i] = v - lo
		default:
			dst[i] = 0
		}
	}
}

// Backward passes gradient only through the linear region.
func (c *ClippedReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.mask == nil {
		panic("nn: ClippedReLU.Backward before Forward(train=true)")
	}
	dx := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		if c.mask[i] {
			dx.Data[i] = v
		}
	}
	c.mask = nil
	return dx
}

// Params returns nil; the bounds are hyperparameters, not learned.
func (c *ClippedReLU) Params() []*Param { return nil }

// Name returns the layer label.
func (c *ClippedReLU) Name() string { return c.label }

// Dropout randomly zeroes activations during training (inverted dropout,
// so inference is the identity).
type Dropout struct {
	label string
	P     float32
	rng   *rand.Rand
	mask  []float32
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(label string, p float32, rng *rand.Rand) *Dropout {
	return &Dropout{label: label, P: p, rng: rng}
}

// Forward applies the dropout mask in training mode; identity otherwise.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		return x.Clone()
	}
	y := tensor.New(x.Shape...)
	d.mask = make([]float32, len(x.Data))
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float32() >= d.P {
			d.mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		// Dropout was a no-op (P==0); pass gradient through.
		return grad.Clone()
	}
	dx := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		dx.Data[i] = v * d.mask[i]
	}
	d.mask = nil
	return dx
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Name returns the layer label.
func (d *Dropout) Name() string { return d.label }
