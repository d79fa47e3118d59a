package nn

import (
	"fmt"
	"math"

	"adcnn/internal/tensor"
)

// MaxPool2D applies max pooling with a square window. The paper keeps
// pooling receptive fields entirely inside each FDSP tile, so this layer
// never needs cross-tile data.
type MaxPool2D struct {
	label  string
	K      int // window size
	Stride int

	inShape []int
	argmax  []int // flat input index chosen per output element
}

// NewMaxPool2D creates a max-pooling layer (window k, stride s).
func NewMaxPool2D(label string, k, s int) *MaxPool2D {
	return &MaxPool2D{label: label, K: k, Stride: s}
}

// OutShape returns the output NCHW shape for an input NCHW shape.
func (p *MaxPool2D) OutShape(in []int) []int {
	oh := (in[2]-p.K)/p.Stride + 1
	ow := (in[3]-p.K)/p.Stride + 1
	return []int{in[0], in[1], oh, ow}
}

// Forward computes the max over each window, caching argmax for Backward.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", p.label, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	if h < p.K || w < p.K {
		panic(fmt.Sprintf("nn: %s window %d too large for input %v", p.label, p.K, x.Shape))
	}
	y := tensor.New(n, c, oh, ow)
	var argmax []int
	if train {
		p.inShape = []int{n, c, h, w}
		p.argmax = make([]int, n*c*oh*ow)
		argmax = p.argmax
	}
	p.forwardInto(y, x, argmax)
	return y
}

// forwardInto is the max-pooling kernel: y must have the output shape.
// A non-nil argmax records each winner's flat input index for Backward.
// The compiled plan runs it with argmax nil.
func (p *MaxPool2D) forwardInto(y, x *tensor.Tensor, argmax []int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(i*c+ch)*h*w:]
			dstBase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bi := -1
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride + kx
							v := src[iy*w+ix]
							if v > best {
								best, bi = v, iy*w+ix
							}
						}
					}
					y.Data[dstBase+oy*ow+ox] = best
					if argmax != nil {
						argmax[dstBase+oy*ow+ox] = (i*c+ch)*h*w + bi
					}
				}
			}
		}
	}
}

// Backward scatters each output gradient to the input position that won
// the max.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward before Forward(train=true)")
	}
	dx := tensor.New(p.inShape...)
	for i, v := range grad.Data {
		dx.Data[p.argmax[i]] += v
	}
	p.argmax = nil
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// Name returns the layer label.
func (p *MaxPool2D) Name() string { return p.label }

// AvgPool2D applies average pooling with a square window.
type AvgPool2D struct {
	label  string
	K      int
	Stride int

	inShape []int
}

// NewAvgPool2D creates an average-pooling layer (window k, stride s).
func NewAvgPool2D(label string, k, s int) *AvgPool2D {
	return &AvgPool2D{label: label, K: k, Stride: s}
}

// Forward computes the mean over each window.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	y := tensor.New(n, c, oh, ow)
	if train {
		p.inShape = []int{n, c, h, w}
	}
	inv := 1 / float32(p.K*p.K)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(i*c+ch)*h*w:]
			dstBase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							s += src[iy*w+ox*p.Stride+kx]
						}
					}
					y.Data[dstBase+oy*ow+ox] = s * inv
				}
			}
		}
	}
	return y
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: AvgPool2D.Backward before Forward(train=true)")
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	dx := tensor.New(p.inShape...)
	inv := 1 / float32(p.K*p.K)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			dst := dx.Data[(i*c+ch)*h*w:]
			srcBase := (i*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := grad.Data[srcBase+oy*ow+ox] * inv
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							dst[iy*w+ox*p.Stride+kx] += g
						}
					}
				}
			}
		}
	}
	p.inShape = nil
	return dx
}

// Params returns nil.
func (p *AvgPool2D) Params() []*Param { return nil }

// Name returns the layer label.
func (p *AvgPool2D) Name() string { return p.label }

// GlobalAvgPool2D averages each channel's full spatial plane, producing a
// [N, C] activation (used by ResNet-style heads).
type GlobalAvgPool2D struct {
	label   string
	inShape []int
}

// NewGlobalAvgPool2D creates a global average pooling layer.
func NewGlobalAvgPool2D(label string) *GlobalAvgPool2D {
	return &GlobalAvgPool2D{label: label}
}

// Forward averages over H×W per channel.
func (p *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := tensor.New(n, c)
	globalAvgInto(y, x)
	if train {
		p.inShape = []int{n, c, h, w}
	}
	return y
}

// globalAvgInto is the global-average-pooling kernel: y is [N, C].
func globalAvgInto(y, x *tensor.Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			var s float32
			for _, v := range src {
				s += v
			}
			y.Data[i*c+ch] = s * inv
		}
	}
}

// Backward spreads the gradient uniformly across the plane.
func (p *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: GlobalAvgPool2D.Backward before Forward(train=true)")
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	dx := tensor.New(p.inShape...)
	inv := 1 / float32(h*w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data[i*c+ch] * inv
			dst := dx.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for j := range dst {
				dst[j] = g
			}
		}
	}
	p.inShape = nil
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool2D) Params() []*Param { return nil }

// Name returns the layer label.
func (p *GlobalAvgPool2D) Name() string { return p.label }
