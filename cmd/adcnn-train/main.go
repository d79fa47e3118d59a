// Command adcnn-train runs the full ADCNN model-preparation pipeline
// (paper Sections 4-5) on a sim-scale model and synthetic data:
//
//  1. train the original model,
//  2. progressively retrain it for FDSP, clipped ReLU and quantization
//     (Algorithm 1),
//  3. report per-stage epochs and metrics,
//  4. optionally save the final weights for the adcnn-central /
//     adcnn-conv binaries.
//
// Usage:
//
//	adcnn-train -model vgg-sim -grid 4x4 -out weights.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"adcnn/internal/cliutil"
	"adcnn/internal/experiments"
	"adcnn/internal/models"
	"adcnn/internal/trainer"
)

func main() {
	model := flag.String("model", "vgg-sim", "model short name")
	grid := flag.String("grid", "4x4", "FDSP partition")
	samples := flag.Int("samples", 256, "synthetic dataset size")
	origEpochs := flag.Int("orig-epochs", 15, "epochs for the original model")
	stageEpochs := flag.Int("stage-epochs", 8, "max epochs per retraining stage")
	quant := flag.Int("quant", 4, "quantization bits")
	tolerance := flag.Float64("tolerance", 0.02, "allowed metric drop")
	seed := flag.Int64("seed", 42, "seed")
	out := flag.String("out", "", "write final weights snapshot here")
	flag.Parse()

	cfg, err := cliutil.SimConfigByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	g, err := cliutil.ParseGrid(*grid)
	if err != nil {
		log.Fatal(err)
	}

	data, err := experiments.SynthSet(cfg, *samples, *seed)
	if err != nil {
		log.Fatal(err)
	}
	train, test := data.Split(*samples * 3 / 4)

	fmt.Printf("training original %s on %d synthetic samples (%s)\n", cfg.Name, train.Len(), cfg.Task)
	ori, err := models.Build(cfg, models.Options{}, *seed)
	if err != nil {
		log.Fatal(err)
	}
	tr := trainer.New(trainer.Params{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, BatchSize: 16, Seed: *seed})
	losses := tr.Train(ori, train, *origEpochs)
	origMetric := trainer.Evaluate(ori, test, 16)
	fmt.Printf("original: final loss %.4f, test metric %.3f\n", losses[len(losses)-1], origMetric)

	lo, hi := trainer.SuggestClipBounds(ori, train, 8, 0.6, 0.995)
	fmt.Printf("clipped-ReLU bounds from activation statistics: [%.3f, %.3f]\n", lo, hi)

	pc := trainer.ProgressiveConfig{
		Target:            models.Options{Grid: g, ClipLo: lo, ClipHi: hi, QuantBits: *quant},
		Tolerance:         *tolerance,
		MaxEpochsPerStage: *stageEpochs,
		Seed:              *seed + 7,
	}
	res, err := trainer.ProgressiveRetrain(tr, cfg, ori, train, test, pc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprogressive retraining (Algorithm 1):\n")
	for _, st := range res.Stages {
		fmt.Printf("  %-14s %2d epochs -> metric %.3f\n", st.Name, st.Epochs, st.Metric)
	}
	fmt.Printf("  total %d epochs; original %.3f -> final %.3f (drop %.1f%%)\n",
		res.TotalEpochs(), origMetric, res.FinalMetric(), 100*(origMetric-res.FinalMetric()))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Final.Net.SaveParams(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("saved final weights to %s (use with adcnn-central/-conv: -grid %s -clip-lo %.4f -clip-hi %.4f -quant %d)\n",
			*out, *grid, lo, hi, *quant)
	}
}
