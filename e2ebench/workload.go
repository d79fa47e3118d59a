package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"adcnn/internal/compress"
	"adcnn/internal/core"
	"adcnn/internal/dataset"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// workload is one benchmark configuration of the live runtime. Every
// workload runs two Conv nodes in this process and one load-generating
// goroutine that keeps depth images outstanding (a closed loop).
type workload struct {
	name string
	cfg  models.Config
	grid fdsp.Grid
	// int8 runs the quantized operating mode (QuantizeInt8, quantized
	// uplink); the boundary codec still carries the downlink.
	int8 bool
	// tcp connects the nodes over loopback TCP; otherwise core.Pipe.
	tcp bool
	// depth is the number of images in flight; above 1 the images go
	// through core.Pipeline admission.
	depth int
	// delays are the per-node device pacers (Worker.Delay); nil = none.
	delays []time.Duration
	// telemetry attaches the metrics registry, flight recorder and
	// scheduler audit the daemons attach under -metrics-addr.
	telemetry bool
}

// The boundary codec operating point shared by every workload: clipped
// ReLU [0.05, 2.5] with 4-bit levels and RLE, the paper's setting.
const (
	clipLo    = 0.05
	clipHi    = 2.5
	quantBits = 4
	// tl is the T_L wait deadline: generous, so no tile is zero-filled
	// on a healthy run and any miss is a failure.
	tl    = 5 * time.Second
	gamma = 0.9
	nodes = 2
	// modelSeed fixes the weights: the program under test is the same on
	// every run, only its inputs follow --seed.
	modelSeed = 1
	// numInputs distinct generated images are cycled through per run.
	numInputs = 32
	// int8Tol is the max |Δ| between a distributed int8 output and the
	// local int8 forward (the per-tile vs whole-image input affine is the
	// only difference); int8F32Tol bounds its distance from the f32
	// forward. Both are the bounds TestDistributedQuantizedMatchesLocal
	// uses.
	int8Tol    = 0.05
	int8F32Tol = 0.25
)

// workloads lists the benchmark's workloads; BENCHMARK.json gives the why
// of each one it runs. hetero-paced stays runnable by name but is not in
// BENCHMARK.json: its latency is made of timer sleeps, so CPU steal on a
// shared host moves its p99 across runs by more than the largest
// regression bound the benchmark may set (0.25), though its p50 and
// throughput hold within 0.04.
var workloads = []workload{
	{
		// The per-frame path without sockets or queueing: tiny 8×8 tiles,
		// where fixed per-layer cost dominates Front compute.
		name: "frame-latency", cfg: models.VGGSim(), grid: fdsp.Grid{Rows: 4, Cols: 4},
		depth: 1,
	},
	{
		// Capacity: int8 residual units on 16×16 tiles, real socket
		// framing, telemetry attached, three images contending for the
		// Central's serialized back stage.
		name: "stream-tcp-int8", cfg: models.ResNetSim(), grid: fdsp.Grid{Rows: 2, Cols: 2},
		int8: true, tcp: true, depth: 3, telemetry: true,
	},
	{
		// Scheduling: a 1 ms and a 3 ms device pacer (≥1 ms because host
		// timers resolve to about 1.1 ms) make the tile split, not
		// compute, set the latency.
		name: "hetero-paced", cfg: models.VGGSim(), grid: fdsp.Grid{Rows: 2, Cols: 2},
		tcp: true, depth: 1, delays: []time.Duration{time.Millisecond, 3 * time.Millisecond},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) options() models.Options {
	return models.Options{Grid: w.grid, ClipLo: clipLo, ClipHi: clipHi, QuantBits: quantBits, Int8: w.int8}
}

// describe renders the workload's parameters for the run header.
func (w workload) describe() string {
	mode, transport := "f32", "pipe"
	if w.int8 {
		mode = "int8"
	}
	if w.tcp {
		transport = "tcp-loopback"
	}
	return fmt.Sprintf("model=%s grid=%s mode=%s codec=clip[%g,%g]/%dbit/rle transport=%s nodes=%d depth=%d delays=%v telemetry=%v tl=%v inputs=%d",
		w.cfg.Name, w.grid, mode, clipLo, clipHi, quantBits, transport, nodes, w.depth, w.delays, w.telemetry, tl, numInputs)
}

// buildModel builds one node's model instance, quantized in int8 mode.
func (w workload) buildModel() (*models.Model, error) {
	m, err := models.Build(w.cfg, w.options(), modelSeed)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.cfg.Name, err)
	}
	if w.int8 {
		if _, err := m.QuantizeInt8(); err != nil {
			return nil, fmt.Errorf("quantize %s: %w", w.cfg.Name, err)
		}
	}
	return m, nil
}

// oracle holds the generated inputs and their single-machine reference
// outputs, computed before any timing starts.
type oracle struct {
	int8   bool
	inputs []*tensor.Tensor
	// want is the f32 Model.Net.Forward output; in int8 mode wantQ is the
	// local int8 forward and want supplies the argmax.
	want, wantQ []*tensor.Tensor
}

func newOracle(w workload, seed int64) (*oracle, error) {
	c := w.cfg
	set := dataset.Classification(numInputs, c.Classes, c.InputC, c.InputH, c.InputW, 0.15, seed)
	m, err := models.Build(c, w.options(), modelSeed)
	if err != nil {
		return nil, fmt.Errorf("build oracle: %w", err)
	}
	o := &oracle{int8: w.int8}
	for i := 0; i < numInputs; i++ {
		x, _ := set.Batch(i, 1)
		o.inputs = append(o.inputs, x)
		o.want = append(o.want, m.Net.Forward(x, false).Clone())
	}
	if w.int8 {
		if _, err := m.QuantizeInt8(); err != nil {
			return nil, fmt.Errorf("quantize oracle: %w", err)
		}
		for _, x := range o.inputs {
			o.wantQ = append(o.wantQ, m.Net.Forward(x, false).Clone())
		}
	}
	return o, nil
}

// check reports whether got is a correct output for input i: bit-equal
// to the f32 reference, or in int8 mode within int8Tol of the local int8
// forward and int8F32Tol of the f32 forward, with the f32 forward's
// argmax. The argmax may differ only where the f32 top-two margin is
// within 2·int8F32Tol: there int8 rounding alone can swap the top two,
// and the local int8 forward swaps them the same way.
func (o *oracle) check(i int, got *tensor.Tensor) bool {
	if got == nil {
		return false
	}
	want := o.want[i]
	if !o.int8 {
		return got.Equal(want, 0)
	}
	if !finite(got.Data) || !got.Equal(o.wantQ[i], int8Tol) || !got.Equal(want, int8F32Tol) {
		return false
	}
	return got.ArgMax() == want.ArgMax() || topMargin(want.Data) < 2*int8F32Tol
}

// topMargin is the gap between the largest and second-largest value.
func topMargin(xs []float32) float32 {
	first, second := float32(math.Inf(-1)), float32(math.Inf(-1))
	for _, v := range xs {
		if v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	return first - second
}

func finite(xs []float32) bool {
	for _, v := range xs {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// cluster is one live deployment: a Central, its Conv nodes, and the taps
// on both ends of every connection.
type cluster struct {
	w       workload
	central *core.Central
	pipe    *core.Pipeline // nil at depth 1
	wire    *wireCounters
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	lns     []net.Listener
}

// startCluster builds and connects one deployment of w. Everything it
// does — model builds, quantization, listen/dial and session start — is
// part of the measured set-up.
func startCluster(w workload, rec *recorder) (*cluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cl := &cluster{w: w, cancel: cancel, wire: newWireCounters(rec)}
	fail := func(err error) (*cluster, error) {
		cl.stop()
		return nil, err
	}
	conns := make([]core.Conn, nodes)
	addrs := make([]string, nodes)
	for k := 0; k < nodes; k++ {
		m, err := w.buildModel()
		if err != nil {
			return fail(err)
		}
		wk := core.NewWorker(k+1, m)
		if w.delays != nil {
			wk.Delay = w.delays[k]
		}
		if w.telemetry {
			wk.Metrics = core.NewMetrics(telemetry.NewRegistry())
		}
		ns := core.NewNodeServer(wk, 0)
		tid := k + 1
		if !w.tcp {
			a, b := core.Pipe()
			conns[k] = cl.wire.tap(a, 0)
			cl.serve(ctx, ns, cl.wire.tap(b, tid))
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("listen: %w", err))
		}
		cl.lns = append(cl.lns, ln)
		addrs[k] = ln.Addr().String()
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			for {
				nc, err := ln.Accept()
				if err != nil {
					return // listener closed by stop
				}
				cl.serve(ctx, ns, cl.wire.tap(core.NewStreamConn(nc), tid))
			}
		}()
		nc, err := net.Dial("tcp", addrs[k])
		if err != nil {
			return fail(fmt.Errorf("dial node %d: %w", k, err))
		}
		conns[k] = cl.wire.tap(core.NewStreamConn(nc), 0)
	}
	m, err := w.buildModel()
	if err != nil {
		return fail(err)
	}
	c, err := core.NewCentral(m, conns, tl, gamma)
	if err != nil {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
		return fail(fmt.Errorf("new central: %w", err))
	}
	cl.central = c
	if w.tcp {
		for k, addr := range addrs {
			c.SetDialer(k, func(ctx context.Context) (core.Conn, error) {
				var d net.Dialer
				nc, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return cl.wire.tap(core.NewStreamConn(nc), 0), nil
			})
		}
	}
	if w.telemetry {
		reg := telemetry.NewRegistry()
		met := core.NewMetrics(reg)
		c.SetMetrics(met)
		compress.Instrument(reg)
		met.Sched.AttachAudit(sched.NewAudit(0, nil))
		c.SetFlightRecorder(telemetry.NewFlightRecorder(telemetry.DefaultFlightSize))
	}
	if w.depth > 1 {
		cl.pipe = core.NewPipeline(c, w.depth)
	}
	return cl, nil
}

// serve runs one Conv-node session until the cluster stops.
func (cl *cluster) serve(ctx context.Context, ns *core.NodeServer, conn core.Conn) {
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		_ = ns.ServeConn(ctx, conn) // a session ends when stop closes it
	}()
}

// submit dispatches x: through Pipeline admission when the workload keeps
// several images in flight, else straight to InferAsync.
func (cl *cluster) submit(x *tensor.Tensor) (*core.Inflight, error) {
	if cl.pipe != nil {
		return cl.pipe.Submit(context.Background(), x)
	}
	return cl.central.InferAsync(context.Background(), x)
}

// stop shuts the deployment down and waits for every goroutine it
// started.
func (cl *cluster) stop() {
	if cl.central != nil {
		cl.central.Shutdown()
	}
	for _, ln := range cl.lns {
		ln.Close()
	}
	cl.cancel()
	cl.wg.Wait()
	if cl.w.telemetry {
		compress.Instrument(nil)
	}
}
