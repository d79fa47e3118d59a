package nn

import (
	"fmt"
	"slices"

	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// Plan is an inference-only program for one layer chain at one input
// shape, compiled once and run many times without allocating. Compile
// infers every activation's shape up front and places the activations in
// a liveness-planned arena: chains ping-pong between two slots, and a
// residual unit holds its input in one extra slot while the body runs.
// Elementwise layers (BatchNorm2D, ReLU, ClippedReLU) that follow a
// producing layer become its epilogue, run per output channel row right
// after the producer writes it.
//
// A plan runs the same kernels as Layer.Forward(x, false) — each layer's
// Forward allocates its output and calls the kernel the plan calls — so
// plan output is bit-identical to Sequential.Forward. BatchNorm is
// deliberately not folded into the convolution weights or the int8
// requantize scales: folding reorders the float arithmetic and changes
// the rounding.
//
// The plan captures layer structure and shapes, not parameter values:
// weights, biases, BatchNorm statistics and int8 snapshots are read at
// each run. A Plan is not safe for concurrent use; give each goroutine
// (a Conv node session, a Central's back stage) its own.
type Plan struct {
	steps []planStep
	in    *tensor.Tensor // view of the input slot
	out   *tensor.Tensor // view of the output slot
	// entry is the first step's convolution when it alone reads the plan
	// input, so RunLevels can feed it uint8 levels.
	entry *Conv2D
}

// planStep is one kernel call on arena views fixed at compile time. The
// layer's type selects the kernel: a Residual step is its join, y =
// ReLU(y + skip); an elementwise layer with no producer to fuse into is
// a step that runs only its epilogue, in place.
type planStep struct {
	layer         Layer
	x, y, skip    *tensor.Tensor
	xv, yv, skipV value // compile-time slots and shapes behind the views
	epi           epilogue
}

// rowOp is one elementwise layer fused into a step's epilogue.
type rowOp struct {
	bn   *BatchNorm2D
	a, b []float32 // bn's per-channel affine, refreshed every run
	clip *ClippedReLU
	// neither bn nor clip: ReLU
}

// epilogue is the elementwise tail of a step, applied in order to each
// output channel row with the layers' own inference kernels.
type epilogue []rowOp

// refresh recomputes the BatchNorm affines from the current statistics.
func (e epilogue) refresh() {
	for i := range e {
		if bn := e[i].bn; bn != nil {
			for ch := range e[i].a {
				e[i].a[ch], e[i].b[ch] = bn.affine(ch)
			}
		}
	}
}

// apply runs the epilogue on one row of channel ch.
func (e epilogue) apply(ch int, row []float32) {
	for i := range e {
		op := &e[i]
		switch {
		case op.bn != nil:
			bnRow(row, row, op.a[ch], op.b[ch])
		case op.clip != nil:
			clipInto(row, row, op.clip.Lo, op.clip.Hi)
		default:
			reluInto(row, row)
		}
	}
}

// applyAll runs the epilogue over a whole activation: per channel plane
// for NCHW, as one row otherwise (only channel-free ops compile there).
func (e epilogue) applyAll(t *tensor.Tensor) {
	if len(e) == 0 {
		return
	}
	if t.Rank() != 4 {
		e.apply(0, t.Data)
		return
	}
	c, plane := t.Shape[1], t.Shape[2]*t.Shape[3]
	for r := 0; r < t.Shape[0]*c; r++ {
		e.apply(r%c, t.Data[r*plane:(r+1)*plane])
	}
}

// Compile builds the plan for running layers in order on an input of
// shape in. It supports the layer types the model zoo builds:
// Sequential, Residual, Conv2D (f32 or int8), BatchNorm2D, ReLU,
// ClippedReLU, MaxPool2D, MaxPoolRect, Flatten, Linear, GlobalAvgPool2D
// and Upsample2D; anything else, or a shape a layer cannot take, is an
// error.
func Compile(in []int, layers ...Layer) (*Plan, error) {
	for _, d := range in {
		if d <= 0 {
			return nil, fmt.Errorf("nn: plan input shape %v", in)
		}
	}
	c := &compiler{}
	v := value{slot: c.alloc(tensor.Volume(in)), shape: append([]int(nil), in...)}
	inSlot := v.slot
	flat := flattenLayers(layers, nil)
	out, err := c.chain(flat, v)
	if err != nil {
		return nil, err
	}
	arena := make([][]float32, len(c.size))
	for s, n := range c.size {
		arena[s] = make([]float32, n)
	}
	view := func(slot int, shape []int) *tensor.Tensor {
		return &tensor.Tensor{Shape: shape, Data: arena[slot][:tensor.Volume(shape)]}
	}
	p := &Plan{steps: c.steps, in: view(inSlot, v.shape), out: view(out.slot, out.shape)}
	for i := range p.steps {
		s := &p.steps[i]
		s.x, s.y = view(s.xv.slot, s.xv.shape), view(s.yv.slot, s.yv.shape)
		if s.skipV.shape != nil {
			s.skip = view(s.skipV.slot, s.skipV.shape)
		}
	}
	if len(flat) > 0 {
		if conv, ok := flat[0].(*Conv2D); ok {
			p.entry = conv
		}
	}
	return p, nil
}

// Input returns the plan's input buffer: fill it, then call Run. It is
// plan-owned storage, valid for the plan's lifetime.
func (p *Plan) Input() *tensor.Tensor { return p.in }

// Run executes the plan on the contents of Input and returns the output,
// a view of plan-owned storage that the next run overwrites.
func (p *Plan) Run() *tensor.Tensor {
	for i := range p.steps {
		p.steps[i].run()
	}
	return p.out
}

// Forward copies x into the input buffer and runs the plan. x must have
// the compiled input shape.
func (p *Plan) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !x.SameShape(p.in) {
		panic(fmt.Sprintf("nn: plan compiled for %v, got %v", p.in.Shape, x.Shape))
	}
	copy(p.in.Data, x.Data)
	return p.Run()
}

// LevelsOK reports whether RunLevels can run: the plan opens with an
// int8-enabled convolution that is the only reader of the input.
func (p *Plan) LevelsOK() bool { return p.entry != nil && p.entry.Int8() }

// RunLevels runs the plan on input given as uint8 affine levels (a
// decoded quantized wire payload) of the compiled input shape: the entry
// convolution gathers the levels straight into its int8 GEMM, as
// Conv2D.ForwardLevelsInto does, and the rest of the plan runs as usual.
// Requires LevelsOK and a batch of one.
func (p *Plan) RunLevels(levels []uint8, af quant.Affine) *tensor.Tensor {
	if !p.LevelsOK() {
		panic("nn: plan has no int8 levels entry")
	}
	if len(levels) != p.in.Len() || p.in.Shape[0] != 1 {
		panic(fmt.Sprintf("nn: plan levels entry got %d levels for input %v", len(levels), p.in.Shape))
	}
	s := &p.steps[0]
	s.epi.refresh()
	p.entry.forwardLevelsInto(s.y, levels, p.in.Shape[2], p.in.Shape[3], af, s.epi)
	for i := 1; i < len(p.steps); i++ {
		p.steps[i].run()
	}
	return p.out
}

func (s *planStep) run() {
	s.epi.refresh()
	switch l := s.layer.(type) {
	case *Conv2D:
		l.forwardInto(s.y, s.x, false, s.epi)
		return // the epilogue ran inside the kernel
	case *MaxPool2D:
		l.forwardInto(s.y, s.x, nil)
	case *MaxPoolRect:
		l.forwardInto(s.y, s.x, nil)
	case *GlobalAvgPool2D:
		globalAvgInto(s.y, s.x)
	case *Linear:
		l.ForwardInto(s.y, s.x, false)
	case *Upsample2D:
		l.forwardInto(s.y, s.x)
	case *Residual:
		joinRelu(s.y.Data, s.y.Data, s.skip.Data)
	}
	s.epi.applyAll(s.y)
}

// flattenLayers inlines nested Sequentials into one layer list.
func flattenLayers(layers []Layer, out []Layer) []Layer {
	for _, l := range layers {
		if s, ok := l.(*Sequential); ok {
			out = flattenLayers(s.Layers, out)
		} else {
			out = append(out, l)
		}
	}
	return out
}

// value is an activation during compilation: the arena slot holding it
// and its shape.
type value struct {
	slot  int
	shape []int
}

// compiler assigns arena slots by reference counting: a slot is free
// again once every step that reads its value has been emitted.
type compiler struct {
	steps []planStep
	size  []int // per-slot capacity (max volume placed there)
	refs  []int // live readers per slot
}

func (c *compiler) alloc(n int) int {
	for s, r := range c.refs {
		if r == 0 {
			c.refs[s] = 1
			c.size[s] = max(c.size[s], n)
			return s
		}
	}
	c.refs = append(c.refs, 1)
	c.size = append(c.size, n)
	return len(c.refs) - 1
}

func (c *compiler) release(s int) { c.refs[s]-- }

// produce emits a kernel step reading v into a fresh slot of shape out,
// then frees v's slot if this was its last reader.
func (c *compiler) produce(l Layer, v value, out []int) value {
	y := value{slot: c.alloc(tensor.Volume(out)), shape: out}
	c.steps = append(c.steps, planStep{layer: l, xv: v, yv: y})
	c.release(v.slot)
	return y
}

// chain compiles a flat layer list applied to v.
func (c *compiler) chain(flat []Layer, v value) (value, error) {
	for i := 0; i < len(flat); {
		l := flat[i]
		i++
		var err error
		switch l := l.(type) {
		case *BatchNorm2D, *ReLU, *ClippedReLU:
			// An elementwise op with no producer to fuse into runs in
			// place, which is only sound on an unshared value.
			if c.refs[v.slot] > 1 {
				return v, fmt.Errorf("nn: plan: %s would overwrite a value the residual skip still reads", l.Name())
			}
			c.steps = append(c.steps, planStep{layer: l, xv: v, yv: v})
			i--
		case *Conv2D:
			if len(v.shape) != 4 || v.shape[1] != l.InC {
				return v, fmt.Errorf("nn: plan: %s expects [N %d H W], got %v", l.Name(), l.InC, v.shape)
			}
			oh, ow := l.Geom.OutSize(v.shape[2], v.shape[3])
			if oh < 1 || ow < 1 {
				return v, fmt.Errorf("nn: plan: %s input %v too small", l.Name(), v.shape)
			}
			v = c.produce(l, v, []int{v.shape[0], l.OutC, oh, ow})
		case *MaxPool2D:
			if len(v.shape) != 4 {
				return v, fmt.Errorf("nn: plan: %s expects NCHW, got %v", l.Name(), v.shape)
			}
			if v.shape[2] < l.K || v.shape[3] < l.K {
				return v, fmt.Errorf("nn: plan: %s window %d too large for %v", l.Name(), l.K, v.shape)
			}
			v = c.produce(l, v, l.OutShape(v.shape))
		case *MaxPoolRect:
			if len(v.shape) != 4 {
				return v, fmt.Errorf("nn: plan: %s expects NCHW, got %v", l.Name(), v.shape)
			}
			if v.shape[2] < l.KH || v.shape[3] < l.KW {
				return v, fmt.Errorf("nn: plan: %s window too large for %v", l.Name(), v.shape)
			}
			oh, ow := (v.shape[2]-l.KH)/l.SH+1, (v.shape[3]-l.KW)/l.SW+1
			v = c.produce(l, v, []int{v.shape[0], v.shape[1], oh, ow})
		case *GlobalAvgPool2D:
			if len(v.shape) != 4 {
				return v, fmt.Errorf("nn: plan: %s expects NCHW, got %v", l.Name(), v.shape)
			}
			v = c.produce(l, v, []int{v.shape[0], v.shape[1]})
		case *Upsample2D:
			if len(v.shape) != 4 {
				return v, fmt.Errorf("nn: plan: %s expects NCHW, got %v", l.Name(), v.shape)
			}
			f := l.Factor
			v = c.produce(l, v, []int{v.shape[0], v.shape[1], v.shape[2] * f, v.shape[3] * f})
		case *Linear:
			if len(v.shape) != 2 || v.shape[1] != l.In {
				return v, fmt.Errorf("nn: plan: %s expects [N %d], got %v", l.Name(), l.In, v.shape)
			}
			v = c.produce(l, v, []int{v.shape[0], l.Out})
		case *Flatten:
			// A view: same slot, new shape, no step.
			v.shape = []int{v.shape[0], tensor.Volume(v.shape) / v.shape[0]}
			continue
		case *Residual:
			v, err = c.residual(l, v)
			if err != nil {
				return v, err
			}
		default:
			return v, fmt.Errorf("nn: plan: unsupported layer %s (%T)", l.Name(), l)
		}
		// Fold the elementwise layers that follow into this step.
		last := &c.steps[len(c.steps)-1]
		for ; i < len(flat); i++ {
			op, ok, err := fuse(flat[i], v.shape)
			if err != nil {
				return v, err
			}
			if !ok {
				break
			}
			last.epi = append(last.epi, op)
		}
	}
	return v, nil
}

// fuse returns l as an epilogue op on an activation of the given shape,
// or ok=false when l is not elementwise.
func fuse(l Layer, shape []int) (rowOp, bool, error) {
	switch l := l.(type) {
	case *BatchNorm2D:
		if len(shape) != 4 || shape[1] != l.C {
			return rowOp{}, false, fmt.Errorf("nn: plan: %s expects NCHW with C=%d, got %v", l.Name(), l.C, shape)
		}
		return rowOp{bn: l, a: make([]float32, l.C), b: make([]float32, l.C)}, true, nil
	case *ReLU:
		return rowOp{}, true, nil
	case *ClippedReLU:
		return rowOp{clip: l}, true, nil
	}
	return rowOp{}, false, nil
}

// residual compiles ReLU(body(v) + shortcut(v)). v stays live until both
// branches have read it; the join runs in place on the body's output.
func (c *compiler) residual(r *Residual, v value) (value, error) {
	c.refs[v.slot]++
	main, err := c.chain(flattenLayers(r.Body.Layers, nil), v)
	if err != nil {
		return v, err
	}
	skip := v
	if r.Shortcut != nil {
		if skip, err = c.chain(flattenLayers(r.Shortcut.Layers, nil), v); err != nil {
			return v, err
		}
	}
	if !slices.Equal(main.shape, skip.shape) || main.slot == skip.slot {
		return v, fmt.Errorf("nn: plan: %s body %v vs shortcut %v", r.Name(), main.shape, skip.shape)
	}
	c.steps = append(c.steps, planStep{layer: r, xv: main, yv: main, skipV: skip})
	c.release(skip.slot)
	return main, nil
}
