// Command adcnn-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	adcnn-bench -exp all            # everything (accuracy experiments train models; minutes)
//	adcnn-bench -exp fig11          # one experiment
//	adcnn-bench -exp accuracy -quick
//
// Experiments: kernels, compress, fig3, fig9, accuracy (= fig10 +
// table1 + table2), fig11, table3, fig12, fig13, fig14, fig15, stream,
// chaos, cluster, partition, locality, failure, all. An unknown name is
// a usage error (exit 2). kernels and compress run only when named; all
// runs the rest. chaos is also the gray-failure experiment: its
// slownode drill measures how fast the SLO engine detects a straggling
// Conv node and whether health telemetry blames it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"adcnn/internal/compress/codecbench"
	"adcnn/internal/core"
	"adcnn/internal/experiments"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor/kernelbench"
)

// experimentNames lists every valid -exp value.
var experimentNames = []string{
	"kernels", "compress", "fig3", "fig9", "accuracy", "fig11", "table3", "fig12", "fig13",
	"fig14", "fig15", "stream", "chaos", "cluster", "partition", "locality", "failure", "all",
}

func main() {
	valid := strings.Join(experimentNames, "|")
	exp := flag.String("exp", "all", "experiment to run ("+valid+")")
	images := flag.Int("images", 50, "images per latency measurement")
	quick := flag.Bool("quick", false, "small accuracy setup (fast, one model)")
	seed := flag.Int64("seed", 1, "random seed")
	kernelsOut := flag.String("kernels-out", "BENCH_kernels.json", "output path for the kernel microbenchmark report (-exp kernels)")
	int8Gate := flag.Float64("int8-gate", 0, "fail if the minimum whole-layer int8/f32 forward ratio falls below this floor (-exp kernels; 0 disables)")
	compressOut := flag.String("compress-out", "BENCH_compress.json", "output path for the boundary-codec microbenchmark report (-exp compress)")
	streamOut := flag.String("stream-out", "BENCH_stream.json", "output path for the live-stream telemetry-overhead report (-exp stream)")
	chaosOut := flag.String("chaos-out", "BENCH_chaos.json", "output path for the chaos drill report (-exp chaos)")
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "output path for the multi-replica control-plane report (-exp cluster)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline from the traced experiments (fig9, stream) to this file")
	flag.Parse()
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(os.Stderr, "unknown -exp %q (want %s)\n", *exp, valid)
		os.Exit(2)
	}

	w := os.Stdout
	opts := experiments.DefaultSimOptions()
	opts.Seed = *seed

	var trace *telemetry.Trace
	if *tracePath != "" {
		trace = telemetry.NewTrace()
		defer func() {
			if err := trace.WriteFile(*tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(w, "wrote %s (%d events)\n", *tracePath, trace.Len())
		}()
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Fprintf(w, "\n==== %s ====\n", strings.ToUpper(name))
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	// The kernel suite is deliberately not part of -exp all: it pins
	// GOMAXPROCS while calibrating and takes ~a minute on its own.
	if *exp == "kernels" {
		rep := kernelbench.Run()
		rep.WriteText(w)
		if err := rep.WriteJSON(*kernelsOut); err != nil {
			fmt.Fprintf(os.Stderr, "kernels: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote %s\n", *kernelsOut)
		if *int8Gate > 0 {
			ratio := rep.MinInt8WholeLayerRatio()
			if ratio < *int8Gate {
				fmt.Fprintf(os.Stderr, "kernels: int8 whole-layer ratio %.3fx below gate %.3fx\n", ratio, *int8Gate)
				os.Exit(1)
			}
			fmt.Fprintf(w, "int8 whole-layer gate: min ratio %.3fx >= %.3fx\n", ratio, *int8Gate)
		}
		return
	}

	// Likewise for the boundary-codec suite: it measures the fused
	// encoder/decoder against the retained scalar reference.
	if *exp == "compress" {
		rep := codecbench.Run()
		rep.WriteText(w)
		if err := rep.WriteJSON(*compressOut); err != nil {
			fmt.Fprintf(os.Stderr, "compress: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote %s\n", *compressOut)
		return
	}

	run("fig3", func() error {
		experiments.Figure3().WriteText(w)
		return nil
	})
	run("fig9", func() error {
		sim, _, _, err := experiments.NewADCNNSim(models.VGG16(), opts)
		if err != nil {
			return err
		}
		sim.SetTrace(trace)
		r := sim.RunImage()
		core.TimelineFor(r).WriteText(w, 64)
		return nil
	})
	run("accuracy", func() error {
		setup := experiments.FullAccuracySetup()
		if *quick {
			setup = experiments.QuickAccuracySetup()
		}
		setup.Seed = *seed
		res, err := experiments.RunAccuracy(setup)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("fig11", func() error {
		res, err := experiments.Figure11(*images, opts)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("table3", func() error {
		res, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("fig12", func() error {
		res, err := experiments.Figure12(*images, *seed)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("fig13", func() error {
		res, err := experiments.Figure13(*images, opts)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("fig14", func() error {
		res, err := experiments.Figure14(*images, opts)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("fig15", func() error {
		res, err := experiments.Figure15(*images, opts)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("stream", func() error {
		res, err := experiments.Throughput(*images, opts)
		if err != nil {
			return err
		}
		res.WriteText(w)
		// Live-runtime half: pin the telemetry instrumentation overhead
		// on the real hot path and persist it for cross-PR tracking.
		rep, err := experiments.StreamBench(*images, trace)
		if err != nil {
			return err
		}
		rep.WriteText(w)
		if err := rep.WriteJSON(*streamOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *streamOut)
		return nil
	})
	run("chaos", func() error {
		// Scripted fault schedule against the live TCP runtime: node
		// crash/restart, bandwidth collapse, clock skew, and a slow-node
		// gray failure, each asserting the telemetry stack saw what
		// happened (link estimates, audit attribution, breach + blame,
		// detection latency, recovery).
		rep, err := experiments.ChaosBench(experiments.ChaosBenchConfig{})
		if err != nil {
			return err
		}
		rep.WriteText(w)
		if err := rep.WriteJSON(*chaosOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *chaosOut)
		if !rep.Pass {
			return fmt.Errorf("drill assertions failed (see %s)", *chaosOut)
		}
		return nil
	})
	run("cluster", func() error {
		// Control-plane sharding: single vs dual Central replica
		// throughput over one shared live-TCP Conv pool, plus the 3:1
		// origin-imbalance work-stealing pass.
		rep, err := experiments.ClusterBench(*images * 4)
		if err != nil {
			return err
		}
		rep.WriteText(w)
		if err := rep.WriteJSON(*clusterOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *clusterOut)
		return nil
	})
	run("locality", func() error {
		setup := experiments.QuickAccuracySetup()
		setup.Seed = *seed
		res, err := experiments.FeatureLocality(setup)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("partition", func() error {
		setup := experiments.QuickAccuracySetup()
		setup.Seed = *seed
		res, err := experiments.ComparePartitioning(setup)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
	run("failure", func() error {
		setup := experiments.QuickAccuracySetup()
		setup.Seed = *seed
		res, err := experiments.FailureSweep(setup, 4)
		if err != nil {
			return err
		}
		res.WriteText(w)
		return nil
	})
}
