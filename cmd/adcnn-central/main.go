// Command adcnn-central runs the ADCNN Central node over TCP: it builds
// the model (same seed as the Conv nodes so weights match, or loads a
// shared snapshot), connects to the Conv nodes, streams synthetic input
// images through the distributed pipeline, and reports per-image latency,
// tile allocation, and agreement with local execution.
//
// Usage:
//
//	adcnn-central -nodes 127.0.0.1:9001,127.0.0.1:9002 -model vgg-sim -grid 4x4 -images 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"adcnn/internal/cliutil"
	"adcnn/internal/compress"
	"adcnn/internal/core"
	"adcnn/internal/dataset"
	"adcnn/internal/experiments"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// disableZero maps a zero flag value to −1, the "objective disabled"
// sentinel of core.SLOConfig (whose own zero means "use the default").
func disableZero(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}

// dialNode dials addr with per-attempt timeouts and exponential backoff
// until budget is spent, so a Central started before its Conv nodes
// waits for them instead of exiting immediately.
func dialNode(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 200 * time.Millisecond
	for attempt := 1; ; attempt++ {
		perAttempt := 2 * time.Second
		if rem := time.Until(deadline); rem < perAttempt {
			perAttempt = rem
		}
		if perAttempt <= 0 {
			return nil, fmt.Errorf("dial %s: no conv node after %v", addr, budget)
		}
		c, err := net.DialTimeout("tcp", addr, perAttempt)
		if err == nil {
			return c, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dial %s: %w (gave up after %d attempts over %v)",
				addr, err, attempt, budget)
		}
		slog.Warn("dial failed, retrying", "addr", addr, "err", err, "backoff", backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > 3*time.Second {
			backoff = 3 * time.Second
		}
	}
}

func main() {
	nodeList := flag.String("nodes", "127.0.0.1:9001", "comma-separated Conv node addresses")
	images := flag.Int("images", 10, "number of synthetic images to run")
	tl := flag.Duration("tl", 5*time.Second, "result wait deadline T_L")
	gamma := flag.Float64("gamma", 0.9, "statistics decay γ")
	verify := flag.Bool("verify", true, "check outputs against local execution")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/flight and /debug/sessions on this address (e.g. :9090)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline (central + conv-side spans) to this file (single replica only)")
	connectTimeout := flag.Duration("connect-timeout", 30*time.Second, "total dial budget per conv node (retry with backoff)")
	pipeline := flag.Int("pipeline", 0, "stream images through a bounded pipeline of this depth (0 or 1 = one image at a time)")
	replicas := flag.Int("replicas", 1, "cluster mode: run this many Central replicas over the same conv pool (each conv node serves one session per replica)")
	breakdown := flag.Bool("breakdown", false, "print the per-image mean phase decomposition after each image")
	flightSize := flag.Int("flight-size", telemetry.DefaultFlightSize, "flight recorder ring capacity (events)")
	sloP99 := flag.Duration("slo-p99", 250*time.Millisecond, "SLO: p99 tile round-trip latency objective (0 disables)")
	sloMiss := flag.Float64("slo-miss-budget", core.DefaultMissBudget, "SLO: tolerated zero-fill fraction (0 disables)")
	sloFast := flag.Duration("slo-fast", core.DefaultSLOWindows[0], "SLO: fast burn-rate window")
	sloSlow := flag.Duration("slo-slow", core.DefaultSLOWindows[1], "SLO: slow burn-rate window")
	probeInterval := flag.Duration("probe-interval", time.Second, "link probe period per node session, keeping RTT estimates fresh through idle periods (0 disables)")
	linkAware := flag.Bool("link-aware", false, "fold measured link transfer costs into the tile allocation (sched.EffectiveSpeeds)")
	op := cliutil.RegisterOperatingPoint(flag.CommandLine)
	lf := cliutil.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	logger := cliutil.MustLogger(lf, "adcnn-central")
	die := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	cluster := *replicas > 1
	if cluster && *tracePath != "" {
		die("-trace records one Central's timeline; it cannot be combined with -replicas > 1")
	}

	// The verification oracle is its own model instance: it runs while
	// the Centrals execute back layers, and a Central's model must not be
	// shared (it serializes back-layer execution per instance).
	oracle, err := op.Build(logger)
	if err != nil {
		die("build model", "err", err)
	}
	set, err := experiments.SynthSet(oracle.Cfg, *images, op.Seed+100)
	if err != nil {
		die("build dataset", "err", err)
	}
	var addrs []string
	for _, addr := range strings.Split(*nodeList, ",") {
		addrs = append(addrs, strings.TrimSpace(addr))
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		compress.Instrument(reg)
		telemetry.RegisterBuildInfo(reg, "central", tensor.DetectedKernelTier().String())
	}
	// One scheduler audit ring and one flight ring for every Central:
	// reallocations and cluster rebalances interleave in the same
	// decision history, which is the view a postmortem wants. The flight
	// recorder is cheap and is what explains a missed deadline after the
	// fact, so it is always on; -metrics-addr only makes it reachable.
	audit := sched.NewAudit(0, logger)
	flight := telemetry.NewFlightRecorder(*flightSize)
	var singleMet *core.Metrics // the -replicas 1 Central's unlabeled families

	newCentral := func(r int) (*core.Central, error) {
		m, err := op.Build(nil)
		if err != nil {
			return nil, err
		}
		var conns []core.Conn
		for _, addr := range addrs {
			nc, err := dialNode(addr, *connectTimeout)
			if err != nil {
				return nil, err
			}
			conns = append(conns, core.NewStreamConn(nc))
		}
		cen, err := core.NewCentral(m, conns, *tl, *gamma)
		if err != nil {
			return nil, err
		}
		if *probeInterval > 0 {
			cen.EnableLinkProbes(*probeInterval)
		}
		if *linkAware {
			cen.EnableLinkAware()
		}
		// Let each node session reconnect (with backoff) if its
		// connection drops mid-run, instead of staying dead forever.
		for k, addr := range addrs {
			addr := addr
			cen.SetDialer(k, func(ctx context.Context) (core.Conn, error) {
				d := net.Dialer{}
				nc, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return core.NewStreamConn(nc), nil
			})
		}
		cen.SetFlightRecorder(flight)
		if reg != nil {
			var met *core.Metrics
			if cluster {
				met = core.NewReplicaMetrics(reg, strconv.Itoa(r))
			} else {
				met = core.NewMetrics(reg)
				singleMet = met
			}
			cen.SetMetrics(met)
			met.Sched.AttachAudit(audit)
		}
		return cen, nil
	}

	// The drive step is the only thing the two modes do differently:
	// each calls emit once per image, in submission order.
	var (
		drive    func(emit func(i int, r core.ClusterResult))
		sessions http.Handler
		healthz  func() error
		cl       *core.Cluster
	)
	if cluster {
		// N full Centrals — each with its own connections, statistics and
		// pending table — drive the same Conv pool through core.Cluster,
		// which partitions node capacity by demand and steals queued
		// images between replicas.
		cl, err = core.NewCluster(newCentral, core.ClusterOptions{
			Replicas: *replicas, Depth: *pipeline, Registry: reg, Audit: audit,
		})
		if err != nil {
			die("new cluster", "err", err)
		}
		defer cl.Shutdown()
		logger.Info("cluster up", "replicas", *replicas, "nodes", len(addrs))
		sessions = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			all := make(map[string][]core.SessionDebug, cl.Replicas())
			for r := 0; r < cl.Replicas(); r++ {
				all[strconv.Itoa(r)] = cl.Replica(r).DebugSessions()
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			_ = enc.Encode(all)
		})
		drive = func(emit func(int, core.ClusterResult)) { driveCluster(cl, set, *images, emit) }
	} else {
		central, err := newCentral(0)
		if err != nil {
			die("new central", "err", err)
		}
		defer central.Shutdown()
		sessions = central.SessionsHandler()
		if singleMet != nil {
			// SLO engine over the windowed instruments: a breach dumps
			// the flight ring (naming the objective and the worst-health
			// node) and flips /healthz to 503 so a load balancer drains us.
			engine := core.NewSLOEngine(singleMet, core.SLOConfig{
				TileP99:    disableZero(sloP99.Seconds()),
				MissBudget: disableZero(*sloMiss),
				FastWindow: *sloFast,
				SlowWindow: *sloSlow,
			})
			central.WireSLO(engine)
			engine.Subscribe(func(tr telemetry.SLOTransition) {
				logger.Warn("slo transition", "objective", tr.Objective,
					"from", tr.FromName, "to", tr.ToName, "detail", tr.Detail)
			})
			go engine.Run(context.Background(), 0)
			healthz = func() error {
				if engine.Breached() {
					return fmt.Errorf("slo breach: %+v", engine.Status())
				}
				return nil
			}
		}
		if *tracePath != "" {
			trace := telemetry.NewTrace()
			central.SetTrace(trace)
			defer func() {
				if err := trace.WriteFile(*tracePath); err != nil {
					logger.Error("write trace", "err", err)
				} else {
					logger.Info("wrote trace", "path", *tracePath, "events", trace.Len())
				}
			}()
		}
		// Up to -pipeline images in flight, so image i+1's tiles are on
		// the wire while image i's results are still arriving; depth 1
		// admits one image at a time.
		p := core.NewPipeline(central, max(*pipeline, 1))
		drive = func(emit func(int, core.ClusterResult)) { drivePipeline(p, set, *images, emit) }
	}

	if reg != nil {
		mux := telemetry.MuxChecks(reg, healthz, healthz)
		mux.Handle("/debug/flight", flight)
		mux.Handle("/debug/sessions", sessions)
		mux.Handle("/debug/sched", audit)
		_, bound, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			die("metrics server", "err", err)
		}
		logger.Info("debug endpoints up", "addr", bound.String(),
			"paths", "/metrics /healthz /readyz /debug/pprof /debug/flight /debug/sessions /debug/sched")
	}

	// In the int8 operating mode the distributed run quantizes each tile
	// with its own affine while the local oracle quantizes the whole
	// image, so outputs agree only to within accumulated quantization
	// error — the verify tolerance widens accordingly.
	verifyTol := float32(1e-4)
	if op.Quantized {
		verifyTol = 5e-2
	}
	var total time.Duration
	mismatches := 0
	executed := make([]int, max(*replicas, 1))
	wallStart := time.Now()
	drive(func(i int, r core.ClusterResult) {
		if r.Err != nil {
			die("image failed", "image", i, "err", r.Err)
		}
		total += r.Stats.Latency
		status := ""
		if *verify {
			x, _ := set.Batch(i, 1)
			if !r.Out.Equal(oracle.Net.Forward(x, false), verifyTol) {
				status = "  MISMATCH vs local"
				mismatches++
			}
		}
		where := ""
		if cluster {
			executed[r.Replica]++
			where = fmt.Sprintf("replica %d  ", r.Replica)
			if r.Replica != r.Origin {
				status = fmt.Sprintf(" (stolen %d<-%d)", r.Replica, r.Origin) + status
			}
		}
		fmt.Printf("image %2d: %slatency %8v  missed %d  alloc %v%s\n",
			i, where, r.Stats.Latency.Round(time.Microsecond), r.Stats.TilesMissed, r.Stats.Alloc, status)
		if *breakdown {
			r.Stats.Breakdown.WriteText(os.Stdout)
		}
		logger.Debug("image complete",
			"image", i, "trace_id", core.TraceIDString(r.Stats.TraceID),
			"latency", r.Stats.Latency, "missed", r.Stats.TilesMissed)
	})
	wall := time.Since(wallStart)
	fmt.Printf("mean latency: %v over %d images; throughput %.2f imgs/s; %d mismatches\n",
		(total / time.Duration(*images)).Round(time.Microsecond), *images,
		float64(*images)/wall.Seconds(), mismatches)
	if cluster {
		fmt.Printf("cluster: executed per replica %v; steals %v\n", executed, cl.Steals())
	}
	if mismatches > 0 {
		os.Exit(1)
	}
}

// drivePipeline streams the first n images of set through p and emits
// each result in submission order, in the cluster's result shape.
func drivePipeline(p *core.Pipeline, set *dataset.Set, n int, emit func(int, core.ClusterResult)) {
	inputs := make(chan *tensor.Tensor, 1)
	go func() {
		defer close(inputs)
		for i := 0; i < n; i++ {
			x, _ := set.Batch(i, 1)
			inputs <- x
		}
	}()
	for r := range p.Run(context.Background(), inputs) {
		emit(r.Index, core.ClusterResult{Out: r.Out, Stats: r.Stats, Err: r.Err})
	}
}

// driveCluster submits the first n images of set round-robin across the
// replica origins and emits each result in submission order.
func driveCluster(cl *core.Cluster, set *dataset.Set, n int, emit func(int, core.ClusterResult)) {
	// Submit from a feeder goroutine: Submit blocks on admission once a
	// replica's queue is full.
	pend := make(chan (<-chan core.ClusterResult), cl.Replicas()*4)
	go func() {
		defer close(pend)
		for i := 0; i < n; i++ {
			x, _ := set.Batch(i, 1)
			ch, err := cl.Submit(context.Background(), i%cl.Replicas(), x)
			if err != nil {
				ec := make(chan core.ClusterResult, 1)
				ec <- core.ClusterResult{Origin: i % cl.Replicas(), Err: err}
				ch = ec
			}
			pend <- ch
		}
	}()
	i := 0
	for ch := range pend {
		emit(i, <-ch)
		i++
	}
}
