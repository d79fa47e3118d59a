package core

import (
	"math/rand"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// TestWorkerComputeEncodeZeroAlloc: in steady state a Conv node's
// compute+encode of one tile — the session's cached Front plan, the
// boundary clip as its last step, then the encoder into the reused
// buffer — allocates nothing, in f32 and in int8 (levels entry), with
// the boundary codec and with the levels-native downlink.
func TestWorkerComputeEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	codec := func(g fdsp.Grid, int8 bool) models.Options {
		return models.Options{Grid: g, ClipLo: 0.05, ClipHi: 2.5, QuantBits: 4, Int8: int8}
	}
	for _, tc := range []struct {
		name string
		cfg  models.Config
		opt  models.Options
	}{
		{"vgg-f32-codec", models.VGGSim(), codec(fdsp.Grid{Rows: 4, Cols: 4}, false)},
		{"resnet-int8-codec", models.ResNetSim(), codec(fdsp.Grid{Rows: 2, Cols: 2}, true)},
		{"vgg-int8-levels-downlink", models.VGGSim(), models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}, Int8: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := models.Build(tc.cfg, tc.opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.opt.Int8 {
				if _, err := m.QuantizeInt8(); err != nil {
					t.Fatal(err)
				}
			}
			s := &workerSession{ns: NewNodeServer(NewWorker(1, m), 0), plans: make(map[[4]int]*nn.Plan)}
			g := tc.opt.Grid
			x := tensor.New(1, tc.cfg.InputC, tc.cfg.InputH/g.Rows, tc.cfg.InputW/g.Cols)
			x.RandU(rand.New(rand.NewSource(2)), -1, 1)
			var q QuantTile
			if tc.opt.Int8 {
				mn, mx := tensor.MinMax(x.Data)
				af, err := quant.AffineFor(mn, mx)
				if err != nil {
					t.Fatal(err)
				}
				if err := DecodeQuantTensorInto(&q, AppendQuantTensor(nil, x, af)); err != nil {
					t.Fatal(err)
				}
			}
			var buf []byte
			var tm ConvTiming
			tile := func() {
				var out []byte
				var err error
				if tc.opt.Int8 {
					out, _, _, err = s.computeEncodeLevels(&q, &tm, buf)
				} else {
					out, _, _, err = s.computeEncode(x, &tm, buf)
				}
				if err != nil {
					t.Fatal(err)
				}
				buf = out
			}
			tile() // compile the plan and size the encode buffer
			if allocs := testing.AllocsPerRun(50, tile); allocs >= 0.5 {
				t.Fatalf("compute+encode allocates %.1f times per tile, want 0", allocs)
			}
		})
	}
}

// TestCentralBackStageAllocatesOnlyOutput: the Central's back stage
// (reassemble into the back plan's input, run the plan, copy the output
// out) allocates no more than the copy of the output it returns, and
// that output equals Back.Forward on the reassembled tiles exactly.
func TestCentralBackStageAllocatesOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	g := fdsp.Grid{Rows: 4, Cols: 4}
	m, err := models.Build(models.VGGSim(), models.Options{Grid: g, ClipLo: 0.05, ClipHi: 2.5, QuantBits: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pipe()
	defer b.Close()
	c, err := NewCentral(m, []Conn{a}, time.Second, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	rng := rand.New(rand.NewSource(3))
	src := make([]*tensor.Tensor, g.Tiles())
	for i := range src {
		src[i] = tensor.New(c.tileShape...)
		src[i].RandU(rng, 0, 2.45)
	}
	tiles := make([]*tensor.Tensor, g.Tiles())
	refill := func() {
		for i := range tiles {
			if tiles[i] == nil {
				tiles[i] = tensor.GetTensor(c.tileShape...)
			} else {
				tiles[i].Data = tensor.GetBuf(len(src[i].Data))
			}
			copy(tiles[i].Data, src[i].Data)
		}
	}
	want := m.Back.Forward(fdsp.Reassemble(src, g), false)
	var out *tensor.Tensor
	back := func() {
		refill()
		if out, err = c.backForward(tiles, nil); err != nil {
			t.Fatal(err)
		}
	}
	back()
	if !out.Equal(want, 0) {
		t.Fatal("back stage diverges from Back.Forward")
	}
	outAllocs := testing.AllocsPerRun(50, func() { _ = want.Clone() })
	if allocs := testing.AllocsPerRun(50, back); allocs > outAllocs+0.5 {
		t.Fatalf("back stage allocates %.1f times per image, the output copy alone %.1f", allocs, outAllocs)
	}
}
