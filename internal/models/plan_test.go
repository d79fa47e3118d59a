package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adcnn/internal/fdsp"
	"adcnn/internal/nn"
	"adcnn/internal/tensor"
)

// planGrids are the grids the plan is checked and benchmarked on; the
// N×1 grids cover CharCNN-sim, whose 64×1 input admits no 2×2 or 4×4
// split. A grid a model cannot take is skipped.
var planGrids = []fdsp.Grid{{Rows: 2, Cols: 2}, {Rows: 4, Cols: 4}, {Rows: 2, Cols: 1}, {Rows: 4, Cols: 1}}

// planOptions is the boundary operating point of the live benchmarks, so
// the front plan ends in the clipped ReLU.
func planOptions(g fdsp.Grid) Options {
	return Options{Grid: g, ClipLo: 0.05, ClipHi: 2.5, QuantBits: 4}
}

// randomizeStats gives every BatchNorm random running statistics, γ and
// β, and every bias random values. Build's identity statistics (mean 0,
// variance 1, γ 1, β 0) would hide an epilogue that drops or reorders
// the affine.
func randomizeStats(m *Model, rng *rand.Rand) {
	var walk func(l nn.Layer)
	walk = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Sequential:
			for _, s := range v.Layers {
				walk(s)
			}
		case *nn.Residual:
			walk(v.Body)
			if v.Shortcut != nil {
				walk(v.Shortcut)
			}
		case *nn.BatchNorm2D:
			v.RunningMean.RandU(rng, -0.5, 0.5)
			v.RunningVar.RandU(rng, 0.2, 2)
			v.Gamma.Value.RandU(rng, 0.5, 1.5)
			v.Beta.Value.RandU(rng, -0.3, 0.3)
		case *nn.Conv2D:
			v.Bias.Value.RandU(rng, -0.2, 0.2)
		case *nn.Linear:
			v.Bias.Value.RandU(rng, -0.2, 0.2)
		}
	}
	walk(m.Front)
	walk(m.Back)
}

func assertBitEqual(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g, want %g (eps 0)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// tileShape is the per-tile input shape of cfg on grid g.
func tileShape(cfg Config, g fdsp.Grid) []int {
	return []int{1, cfg.InputC, cfg.InputH / g.Rows, cfg.InputW / g.Cols}
}

// TestPlanMatchesForward: for every sim zoo model and grid, in f32 and
// int8, the compiled Front (+ boundary clip) and Back plans reproduce
// Sequential.Forward bit for bit, on two runs of the same plan (the
// second catches state leaking between runs through the arena).
func TestPlanMatchesForward(t *testing.T) {
	for _, cfg := range SimScale() {
		for _, g := range planGrids {
			m, err := Build(cfg, planOptions(g), 1)
			if err != nil {
				continue // grid does not divide this model's input
			}
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, g), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(cfg.Name)*10 + g.Rows)))
				randomizeStats(m, rng)
				tile := tileShape(cfg, g)
				front, err := m.FrontPlan(tile)
				if err != nil {
					t.Fatal(err)
				}
				back, err := m.BackPlan()
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []string{"f32", "int8"} {
					if mode == "int8" {
						if _, err := m.QuantizeInt8(); err != nil {
							t.Fatal(err)
						}
					}
					for run := 0; run < 2; run++ {
						x := tensor.New(tile...)
						x.RandU(rng, -1, 1)
						want := m.Boundary.Layers[0].Forward(m.Front.Forward(x, false), false)
						assertBitEqual(t, mode+" front", front.Forward(x), want)

						z := tensor.New(back.Input().Shape...)
						z.RandU(rng, 0, 2.45)
						assertBitEqual(t, mode+" back", back.Forward(z), m.Back.Forward(z, false))
					}
				}
			})
		}
	}
}

// TestPlanRejectsBadShapes: a shape a layer cannot take, or a layer type
// the plan has no kernel for, is a compile error, not a panic at run
// time.
func TestPlanRejectsBadShapes(t *testing.T) {
	if _, err := nn.Compile([]int{1, 3, 8, 8}, nn.NewSigmoid("s")); err == nil {
		t.Error("Compile accepted a layer type without a plan kernel")
	}
	m, err := Build(VGGSim(), planOptions(fdsp.Grid{Rows: 4, Cols: 4}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][]int{{1, 4, 8, 8}, {1, 3, 8}, {1, 3, 0, 8}, {1, 3, 1, 1}} {
		if _, err := m.FrontPlan(shape); err == nil {
			t.Errorf("FrontPlan(%v) compiled", shape)
		}
	}
}

// BenchmarkFrontTile measures the per-tile fixed cost of the Conv node's
// compute: Sequential.Forward (Front, then the boundary clip) against
// the compiled plan, f32, at each sim model's tile shape per grid.
func BenchmarkFrontTile(b *testing.B) {
	for _, cfg := range SimScale() {
		for _, g := range planGrids {
			if g.Cols == 1 && cfg.InputW > 1 {
				continue // N×1 grids stand in for CharCNN-sim's square ones only
			}
			m, err := Build(cfg, planOptions(g), 1)
			if err != nil {
				continue
			}
			tile := tileShape(cfg, g)
			x := tensor.New(tile...)
			x.RandU(rand.New(rand.NewSource(1)), -1, 1)
			plan, err := m.FrontPlan(tile)
			if err != nil {
				b.Fatal(err)
			}
			clip := m.Boundary.Layers[0]
			b.Run(fmt.Sprintf("%s/%s/forward", cfg.Name, g), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clip.Forward(m.Front.Forward(x, false), false)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/plan", cfg.Name, g), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					plan.Forward(x)
				}
			})
		}
	}
}
