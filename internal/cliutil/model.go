package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"adcnn/internal/compress"
	"adcnn/internal/models"
)

// OperatingPoint holds the flags that define the model a Central and
// its Conv nodes must agree on: every daemon registers the same eight
// with the same defaults, so one flag set describes both ends.
type OperatingPoint struct {
	Model     string
	Grid      string
	Seed      int64
	Weights   string
	ClipLo    float64
	ClipHi    float64
	Quant     int
	Quantized bool
}

// RegisterOperatingPoint adds -model, -grid, -seed, -weights, -clip-lo,
// -clip-hi, -quant and -quantized to fs. Call before fs.Parse.
func RegisterOperatingPoint(fs *flag.FlagSet) *OperatingPoint {
	op := &OperatingPoint{}
	fs.StringVar(&op.Model, "model", "vgg-sim", "model: vgg-sim|resnet-sim|yolo-sim|fcn-sim|charcnn-sim")
	fs.StringVar(&op.Grid, "grid", "4x4", "FDSP partition, e.g. 4x4")
	fs.Int64Var(&op.Seed, "seed", 42, "weight seed shared by the central and conv nodes")
	fs.StringVar(&op.Weights, "weights", "", "optional weight snapshot (nn.SaveParams format) for the full net")
	fs.Float64Var(&op.ClipLo, "clip-lo", 0, "clipped ReLU lower bound (0 with hi=0 disables)")
	fs.Float64Var(&op.ClipHi, "clip-hi", 0, "clipped ReLU upper bound")
	fs.IntVar(&op.Quant, "quant", 0, "quantization bits (0 = off)")
	fs.BoolVar(&op.Quantized, "quantized", false, "int8 operating mode: quantize weights per channel, send quantized tiles, run the int8 GEMM path")
	return op
}

// Build constructs the model: resolve the config and grid, build with
// the seed, load the weight snapshot, then quantize to int8. The order
// matters — the int8 snapshot freezes whatever weights the layers hold
// when QuantizeInt8 runs. With a non-nil logger it also logs the int8
// and boundary-codec operating point, so mismatched flags between the
// two ends show up in the logs.
func (op *OperatingPoint) Build(logger *slog.Logger) (*models.Model, error) {
	cfg, err := SimConfigByName(op.Model)
	if err != nil {
		return nil, err
	}
	g, err := ParseGrid(op.Grid)
	if err != nil {
		return nil, err
	}
	m, err := models.Build(cfg, models.Options{
		Grid: g, ClipLo: float32(op.ClipLo), ClipHi: float32(op.ClipHi),
		QuantBits: op.Quant, Int8: op.Quantized,
	}, op.Seed)
	if err != nil {
		return nil, err
	}
	if op.Weights != "" {
		f, err := os.Open(op.Weights)
		if err != nil {
			return nil, fmt.Errorf("open weights: %w", err)
		}
		err = m.Net.LoadParams(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("load weights %s: %w", op.Weights, err)
		}
	}
	layers := 0
	if op.Quantized {
		if layers, err = m.QuantizeInt8(); err != nil {
			return nil, fmt.Errorf("int8 quantize: %w", err)
		}
	}
	if logger == nil {
		return m, nil
	}
	if op.Quantized {
		logger.Info("int8 inference enabled", "layers", layers, "int8_input", m.Int8InputOK())
	}
	if m.Opt.Clipped() && op.Quant > 0 {
		// The zero threshold is what the fused encoder classifies runs
		// against, so logging it makes sparsity numbers reproducible.
		r := m.Opt.ClipHi - m.Opt.ClipLo
		q := compress.NewPipeline(op.Quant, r).Quantizer()
		logger.Info("boundary codec", "bits", op.Quant, "range", r,
			"step", q.Step(), "zero_threshold", q.ZeroThreshold())
	}
	return m, nil
}
