package models

import (
	"math"
	"math/rand"
	"testing"

	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// TestModelQuantizeInt8 quantizes a full zoo model, checks the quantized
// forward stays close to f32, and that ClearInt8 restores bit-exact f32.
func TestModelQuantizeInt8(t *testing.T) {
	m, err := Build(VGGSim(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 32, 32)
	x.RandU(rand.New(rand.NewSource(7)), -1, 1)
	before := m.Net.Forward(x, false).Clone()

	n, err := m.QuantizeInt8()
	if err != nil {
		t.Fatal(err)
	}
	// VGGSim: 9 convs + 2 FC head layers.
	if n != 11 {
		t.Fatalf("quantized %d layers, want 11", n)
	}
	if !m.Int8InputOK() {
		t.Fatal("VGGSim front opens with a plain conv; Int8InputOK must be true")
	}
	after := m.Net.Forward(x, false)
	var diff float64
	for i := range before.Data {
		diff += math.Abs(float64(after.Data[i] - before.Data[i]))
	}
	if diff == 0 {
		t.Fatal("int8 forward identical to f32 — quantized path likely not taken")
	}

	m.ClearInt8()
	if m.Int8InputOK() {
		t.Fatal("Int8InputOK true after ClearInt8")
	}
	restored := m.Net.Forward(x, false)
	for i := range before.Data {
		if restored.Data[i] != before.Data[i] {
			t.Fatalf("ClearInt8 did not restore f32 execution at %d", i)
		}
	}
}

// TestForwardFrontLevels: the front plan's levels entry (what the Conv
// worker runs on a quantized tile) is bit-identical to the public-kernel
// chain it replaces — Conv2D.ForwardLevelsInto on the entry conv, then
// every later layer's Forward — and stays within the input quantization
// error of dequantize-then-plan. That second comparison cannot be exact:
// the f32 path re-derives the affine from the dequantized tile's range,
// which may shift the grid by one step.
func TestForwardFrontLevels(t *testing.T) {
	m, err := Build(VGGSim(), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	randomizeStats(m, rand.New(rand.NewSource(5)))
	if _, err := m.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 32, 32)
	x.RandU(rand.New(rand.NewSource(11)), -1, 1)

	mn, mx := tensor.MinMax(x.Data)
	af, err := quant.AffineFor(mn, mx)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]uint8, x.Len())
	tensor.QuantizeAffineSlice(levels, x.Data, af.InvScale(), af.Zero)

	plan, err := m.FrontPlan(x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.LevelsOK() {
		t.Fatal("plan refused the levels entry of a plain-conv-entry model")
	}
	if _, err := m.FrontPlan([]int{1, 4, 32, 32}); err == nil {
		t.Fatal("FrontPlan accepted a channel-count mismatch")
	}
	got := plan.RunLevels(levels, af).Clone()

	// Reference: the levels entry through public per-layer calls.
	block0 := m.Front.Layers[0].(*nn.Sequential)
	conv := block0.Layers[0].(*nn.Conv2D)
	ref := tensor.New(1, conv.OutC, 32, 32)
	conv.ForwardLevelsInto(ref, levels, 32, 32, af)
	for _, l := range block0.Layers[1:] {
		ref = l.Forward(ref, false)
	}
	for _, l := range m.Front.Layers[1:] {
		ref = l.Forward(ref, false)
	}
	assertBitEqual(t, "levels entry vs per-layer chain", got, ref)

	xd := tensor.New(1, 3, 32, 32)
	tensor.DequantizeAffineSlice(xd.Data, levels, af.Scale, af.Zero)
	want := plan.Forward(xd)
	if got.Len() != want.Len() {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 2e-2 {
			t.Fatalf("levels front diverges at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestForwardFrontLevelsResidualEntry: residual-entry models cannot take
// the levels fast path (ResNetSim opens with a plain stem conv, so build
// a front that starts at a residual block instead): the projection
// shortcut reads the same input as the body.
func TestForwardFrontLevelsResidualEntry(t *testing.T) {
	cfg := ResNetSim()
	// Drop the stem so the first separable block is residual.
	cfg.Blocks = cfg.Blocks[1:]
	cfg.InputC = 12
	cfg.Separable = 2
	m, err := Build(cfg, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QuantizeInt8(); err != nil {
		t.Fatal(err)
	}
	if m.Int8InputOK() {
		t.Fatal("residual-entry front must not report Int8InputOK")
	}
	plan, err := m.FrontPlan([]int{1, 12, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if plan.LevelsOK() {
		t.Fatal("residual-entry front plan must refuse the levels entry")
	}
}
