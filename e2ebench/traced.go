package main

import (
	"fmt"
	"io"
	"time"

	"adcnn/internal/core"
)

// Block names across the workloads' models. Every traced run prints all
// of them so the metric set is the same on every workload; a block the
// workload's model does not have reads 0.
var (
	frontBlocks = []string{"stem", "L1", "L2", "L3", "L4", "L5", "L6", "L7"}
	backBlocks  = []string{"L3", "L4", "L5", "L8", "L9", "head"}
)

// runTraced measures the workload twice on one deployment, first with the
// benchmark's spans off and then on, so the difference is the tracing
// overhead. The traced half yields the per-layer metrics; replays of each
// layer's public calls follow once the deployment has stopped. The spans
// are written to tracePath as Chrome trace-event JSON; notes go to out.
func runTraced(w workload, seed int64, d time.Duration, tracePath string, out io.Writer) (result, error) {
	o, err := newOracle(w, seed)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder()
	g, _, err := setUp(w, o, rec)
	if err != nil {
		return result{}, err
	}
	g.run(warmup, 0, nil)
	plain := g.run(d/2, 0, nil)
	acc := &layerAcc{}
	g.cl.wire.capture.Store(true)
	traced := g.run(d/2, 0, acc)
	g.cl.wire.capture.Store(false)
	g.cl.stop()

	res := result{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
	}
	// The taps must agree with the runtime's own accounting: downlink
	// bytes seen at the Central's ends equal the sum of
	// InferStats.WireBytes and the bytes the Conv nodes sent.
	wc := g.cl.wire
	wireOK := wc.downBytes.Load() == g.wireBytes && wc.workerDownBytes.Load() == g.wireBytes
	if !wireOK {
		fmt.Fprintf(out, "# wire check FAILED: tap down=%d worker-side down=%d Σ InferStats.WireBytes=%d\n",
			wc.downBytes.Load(), wc.workerDownBytes.Load(), g.wireBytes)
	}
	res.correct = res.failed == 0 && wireOK

	wc.mu.Lock()
	captured := wc.captured
	wc.mu.Unlock()
	rp, err := replayLayers(g.cl.central.Model, o.inputs[0], captured, rec)
	if err != nil {
		return result{}, err
	}
	if traced.verified() == 0 || acc.tiles == 0 {
		return result{}, fmt.Errorf("no traced image completed in %v", d/2)
	}
	res.metrics = layerMetrics(w, acc, traced, rp, rec, median(append([]float64(nil), plain.latMs...)))

	meta := map[string]any{"workload": w.name, "seed": seed, "params": w.describe()}
	if err := rec.writeChrome(tracePath, meta); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "# spans written to %s\n", tracePath)
	return res, nil
}

// layerMetrics assembles the per-layer metrics of a traced window.
// plainP50 is the median latency of the untraced window before it.
func layerMetrics(w workload, a *layerAcc, win window, rp replays, rec *recorder, plainP50 float64) []metric {
	imgs := float64(a.images)
	tiles := float64(a.tiles)
	perImg := func(ns int64) float64 { return us(ns) / imgs }
	perTile := func(ns int64) float64 { return us(ns) / tiles }
	computeUs := perTile(a.computeNs)
	checkUs := rec.mean(spanCheck)
	centralSendUs := rec.mean(spanCentralSend)
	workerSendUs := rec.mean(spanWorkerSend)
	n := float64(win.verified())
	tracedP50 := median(append([]float64(nil), win.latMs...))
	frontFLOPsPerTile := float64(w.cfg.FrontFLOPs()) / float64(w.grid.Tiles())

	var phaseSum int64
	for _, p := range a.phase {
		phaseSum += p
	}
	var frontSum float64
	for _, v := range rp.frontUs {
		frontSum += v
	}

	ms := []metric{
		{name: "central.dispatch_us", unit: "us", value: perImg(a.dispatchNs)},
		{name: "central.admission_wait_us", unit: "us", value: perImg(a.admitNs)},
		{name: "central.wait_us", unit: "us", value: perImg(a.waitNs)},
		{name: "central.post_collect_us", unit: "us", value: perImg(a.postCollectNs)},
		{name: "central.back_forward_us", unit: "us", value: rp.backFwdUs},
		{name: "worker.decode_us", unit: "us", value: perTile(a.decodeNs)},
		{name: "worker.node_queue_us", unit: "us", value: perTile(a.queueNs)},
		{name: "worker.compute_us", unit: "us", value: computeUs},
		{name: "worker.encode_us", unit: "us", value: perTile(a.encNs)},
	}
	for k := 0; k < nodes; k++ {
		ms = append(ms, metric{name: fmt.Sprintf("worker.node%d.busy_frac", k), unit: "frac",
			value: ratio(float64(a.busyNs[k]), float64(win.wall))})
	}
	ms = append(ms,
		metric{name: "wire.up_bytes_per_image", unit: "B", value: float64(win.up) / n},
		metric{name: "wire.down_bytes_per_image", unit: "B", value: float64(win.down) / n},
		metric{name: "wire.frames_per_image", unit: "count", value: float64(win.frames) / n},
		metric{name: "wire.central_send_us", unit: "us", value: centralSendUs},
		metric{name: "wire.worker_send_us", unit: "us", value: workerSendUs},
		metric{name: "wire.dispatch_queue_us", unit: "us", value: perTile(a.phase[core.PhaseDispatchQueue])},
		metric{name: "wire.uplink_us", unit: "us", value: perTile(a.phase[core.PhaseUplink])},
		metric{name: "wire.downlink_us", unit: "us", value: perTile(a.phase[core.PhaseDownlink])},
		metric{name: "wire.collect_us", unit: "us", value: perTile(a.phase[core.PhaseCollect])},
		metric{name: "sched.bottleneck_ratio", unit: "ratio", value: ratio(a.bottleneckSum, float64(a.bottleneckN))},
		metric{name: "sched.realloc_frac", unit: "frac", value: ratio(float64(a.reallocs), imgs-1)},
		metric{name: "sched.fast_node_share", unit: "frac", value: ratio(float64(a.fastTiles), float64(a.allTiles))},
	)
	for _, b := range frontBlocks {
		ms = append(ms, metric{name: "nn.front." + b + "_us", unit: "us", value: rp.frontUs[b]})
	}
	for _, b := range backBlocks {
		ms = append(ms, metric{name: "nn.back." + b + "_us", unit: "us", value: rp.backUs[b]})
	}
	ms = append(ms,
		metric{name: "nn.boundary_us", unit: "us", value: rp.boundaryUs},
		metric{name: "nn.front_allocs_per_tile", unit: "count", value: rp.frontAlloc},
		metric{name: "tensor.front_gflops", unit: "GFLOP/s", value: ratio(frontFLOPsPerTile, computeUs) / 1e3},
		metric{name: "compress.encode_us", unit: "us", value: rp.encodeUs},
		metric{name: "compress.decode_us", unit: "us", value: rp.decodeUs},
		metric{name: "compress.ratio", unit: "ratio", value: rp.codecRatio},
		metric{name: "fdsp.extract_us", unit: "us", value: rp.extractUs},
		metric{name: "fdsp.reassemble_us", unit: "us", value: rp.reassemUs},
		metric{name: "go.gc_cycles_per_1k_images", unit: "count", value: float64(win.numGC) / n * 1000},
		metric{name: "go.gc_pause_ms_per_1k_images", unit: "ms", value: float64(win.gcPauseNs) / 1e6 / n * 1000},
		metric{name: "bench.trace_overhead_pct", unit: "%", value: ratio(tracedP50-plainP50, plainP50) * 100},
		metric{name: "bench.check_us", unit: "us", value: checkUs},
		// Closure: how much of each whole its parts account for.
		metric{name: "closure.central_pct", unit: "%", value: ratio(float64(a.dispatchNs+a.waitNs), float64(a.latNs)) * 100},
		metric{name: "closure.tile_phases_pct", unit: "%", value: ratio(float64(phaseSum), float64(a.tileTotalNs)) * 100},
		metric{name: "closure.front_compute_pct", unit: "%", value: ratio(frontSum+rp.boundaryUs, computeUs) * 100},
	)
	return ms
}
