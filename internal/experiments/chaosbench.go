package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// ChaosBench drives the live TCP runtime through a scripted fault
// schedule and asserts, per drill, that the observability stack saw
// what actually happened: the link profiler's estimates track an
// injected bandwidth collapse, the dispatch audit attributes the
// resulting reallocation to the link, the SLO engine breaches and the
// flight dump blames the faulted node, and everything recovers after
// the heal. Each drill runs on a fresh loopback pool (see
// loopbackPool), so crashing a node is closing its socket, not
// flipping a flag. The slownode drill is the repository's gray-failure
// experiment: it also reports how fast the burn-rate engine detects a
// straggling node (BreachAtMs − FaultAtMs).

// ChaosBenchConfig parameterizes the schedule; zero values take
// defaults sized for a ~10s-per-drill run.
type ChaosBenchConfig struct {
	Nodes         int           // cluster size (default 4)
	BaseDelay     time.Duration // healthy per-tile Conv service time (default 2ms)
	FastWindow    time.Duration // SLO fast burn window (default 500ms)
	SlowWindow    time.Duration // SLO slow burn window (default 2s)
	Baseline      time.Duration // healthy traffic before calibration (default 1.5×slow)
	Timeout       time.Duration // per-assertion wait bound (default 6×slow)
	ProbeInterval time.Duration // link probe cadence (default 25ms)
	ThrottleRate  int64         // bandwidth drill cap, bytes/sec (default 96 KiB/s)
	SlowFactor    float64       // slow-node drill service time, ×(baseline p99) (default 5)
	Skew          time.Duration // clock-skew drill injection (default 30ms)
	Drills        []string      // subset of bandwidth|crash|skew|slownode (default all)
}

func (c *ChaosBenchConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 2 * time.Millisecond
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 500 * time.Millisecond
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 2 * time.Second
	}
	if c.Baseline <= 0 {
		c.Baseline = c.SlowWindow + c.SlowWindow/2
	}
	if c.Timeout <= 0 {
		c.Timeout = 6 * c.SlowWindow
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 25 * time.Millisecond
	}
	if c.ThrottleRate <= 0 {
		c.ThrottleRate = 96 << 10
	}
	if c.SlowFactor <= 1 {
		c.SlowFactor = 5
	}
	if c.Skew <= 0 {
		c.Skew = 30 * time.Millisecond
	}
	if len(c.Drills) == 0 {
		c.Drills = []string{"bandwidth", "crash", "skew", "slownode"}
	}
}

// ChaosCheck is one drill assertion: what was checked, whether it
// held, and the measured detail behind the verdict.
type ChaosCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// ChaosDrillResult is one drill's outcome; unused fields stay zero.
type ChaosDrillResult struct {
	Drill string `json:"drill"`
	Pass  bool   `json:"pass"`

	BaselineP99Ms float64 `json:"baseline_p99_ms"`
	ThresholdMs   float64 `json:"threshold_ms"`
	FaultAtMs     float64 `json:"fault_at_ms"`
	HealAtMs      float64 `json:"heal_at_ms"`
	WarnAtMs      float64 `json:"warn_at_ms,omitempty"` // first →warn after the fault
	BreachAtMs    float64 `json:"breach_at_ms,omitempty"`
	RecoverAtMs   float64 `json:"recover_at_ms,omitempty"`

	InjectedDelayMs float64   `json:"injected_delay_ms,omitempty"` // slownode: SlowFactor × baseline p99
	PaceMs          float64   `json:"pace_ms,omitempty"`           // slownode: per-image period around the fault
	HealthAtBreach  []float64 `json:"health_at_breach,omitempty"`  // per-node health scores at the breach

	LinkUpBps       float64 `json:"link_up_bps,omitempty"`       // collapsed uplink estimate under throttle
	LinkDownBps     float64 `json:"link_down_bps,omitempty"`     // converged downlink estimate under throttle
	LinkRecoveryBps float64 `json:"link_recovery_bps,omitempty"` // uplink estimate after the heal
	OffsetNs        int64   `json:"offset_ns,omitempty"`         // converged estimate under skew
	Epochs          int     `json:"epochs,omitempty"`
	DumpReason      string  `json:"dump_reason,omitempty"`

	Images       int64                `json:"images"`
	FailedImages int64                `json:"failed_images"`
	DurationMs   float64              `json:"duration_ms"`
	Checks       []ChaosCheck         `json:"checks"`
	Transitions  []SLOTimedTransition `json:"transitions,omitempty"`
}

func (r *ChaosDrillResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, ChaosCheck{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Pass = false
	}
}

// ChaosReport is the persisted artifact (BENCH_chaos.json).
type ChaosReport struct {
	Timestamp string `json:"timestamp"`
	telemetry.Host
	Model string `json:"model"`
	Grid  string `json:"grid"`
	Nodes int    `json:"nodes"`

	FastWindowMs    float64 `json:"fast_window_ms"`
	SlowWindowMs    float64 `json:"slow_window_ms"`
	ProbeIntervalMs float64 `json:"probe_interval_ms"`
	ThrottleRateBps int64   `json:"throttle_rate_bps"`

	Pass   bool               `json:"pass"`
	Drills []ChaosDrillResult `json:"drills"`
}

// ChaosBench runs the drill schedule. The returned error covers
// infrastructure failures only; assertion failures land in the report
// with Pass=false.
func ChaosBench(cfg ChaosBenchConfig) (*ChaosReport, error) {
	cfg.fill()
	rep := &ChaosReport{
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		Host:            telemetry.HostInfo(),
		Model:           models.VGGSim().Name,
		Grid:            "2x2",
		Nodes:           cfg.Nodes,
		FastWindowMs:    ms(cfg.FastWindow),
		SlowWindowMs:    ms(cfg.SlowWindow),
		ProbeIntervalMs: ms(cfg.ProbeInterval),
		ThrottleRateBps: cfg.ThrottleRate,
		Pass:            true,
	}
	for _, name := range cfg.Drills {
		var fn func(*chaosCluster, *ChaosDrillResult)
		switch name {
		case "bandwidth":
			fn = drillBandwidth
		case "crash":
			fn = drillCrash
		case "skew":
			fn = drillSkew
		case "slownode":
			fn = drillSlowNode
		default:
			return nil, fmt.Errorf("experiments: unknown chaos drill %q", name)
		}
		res, err := runChaosDrill(cfg, name, fn)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos drill %s: %w", name, err)
		}
		rep.Drills = append(rep.Drills, *res)
		rep.Pass = rep.Pass && res.Pass
	}
	return rep, nil
}

// runChaosDrill builds a fresh cluster, calibrates the SLO objective
// off its healthy baseline, runs the drill, and tears everything down.
func runChaosDrill(cfg ChaosBenchConfig, name string, fn func(*chaosCluster, *ChaosDrillResult)) (*ChaosDrillResult, error) {
	cl, err := newChaosCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	res := &ChaosDrillResult{Drill: name, Pass: true}
	start := time.Now()
	if err := cl.calibrate(res); err != nil {
		return nil, err
	}
	fn(cl, res)
	res.Images = cl.images.Load()
	res.FailedImages = cl.failed.Load()
	res.DurationMs = ms(time.Since(start))
	cl.mu.Lock()
	res.Transitions = append([]SLOTimedTransition(nil), cl.transitions...)
	cl.mu.Unlock()
	return res, nil
}

// SLOTimedTransition is one engine transition stamped relative to the
// run clock.
type SLOTimedTransition struct {
	AtMs float64 `json:"at_ms"` // since run start
	telemetry.SLOTransition
}

// chaosCluster is one drill's live runtime: a Central dialing a
// loopback pool, closed-loop traffic, and the calibrated SLO engine.
type chaosCluster struct {
	cfg    ChaosBenchConfig
	ctx    context.Context
	cancel context.CancelFunc

	c      *core.Central
	pool   *loopbackPool
	met    *core.Metrics
	flight *telemetry.FlightRecorder
	engine *telemetry.SLOEngine

	start  time.Time
	images atomic.Int64
	failed atomic.Int64
	paceNs atomic.Int64 // when >0, at most one image per pace period
	done   chan struct{}

	mu          sync.Mutex
	transitions []SLOTimedTransition

	p99 float64 // calibrated healthy tile p99, seconds
}

func newChaosCluster(cfg ChaosBenchConfig) (*chaosCluster, error) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(models.VGGSim(), opt, 42)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	met := core.NewMetrics(reg)
	met.Sched.AttachAudit(sched.NewAudit(0, nil))

	pool, err := startLoopbackPool(m, cfg.Nodes, cfg.BaseDelay)
	if err != nil {
		return nil, err
	}
	c, err := pool.central(m, 10*time.Second)
	if err != nil {
		pool.stop()
		return nil, err
	}
	for k, n := range pool.nodes {
		c.SetDialer(k, n.dial)
	}
	c.EnableLinkProbes(cfg.ProbeInterval)
	c.EnableLinkAware()
	c.SetMetrics(met)
	// A deep ring: closed-loop traffic emits thousands of tile events
	// per second, and the crash drill inspects markers recorded a
	// reconnect-backoff (~1-2s) before the check runs.
	flight := telemetry.NewFlightRecorder(1 << 15)
	c.SetFlightRecorder(flight)

	ctx, cancel := context.WithCancel(context.Background())
	cl := &chaosCluster{
		cfg: cfg, ctx: ctx, cancel: cancel,
		c: c, pool: pool, met: met, flight: flight,
		start: time.Now(), done: make(chan struct{}),
	}

	// Closed-loop traffic until the drill ends, paced once a drill sets
	// paceNs. Infer failures are counted, not fatal: the crash drill
	// asserts the count stays zero, i.e. redispatch carried every
	// stranded tile.
	go func() {
		defer close(cl.done)
		x := tensor.New(1, 3, 32, 32)
		x.RandN(rand.New(rand.NewSource(7)), 1)
		for ctx.Err() == nil {
			t0 := time.Now()
			if _, _, err := c.Infer(x); err != nil {
				if ctx.Err() != nil {
					return
				}
				cl.failed.Add(1)
				wait(ctx, 5*time.Millisecond)
				continue
			}
			cl.images.Add(1)
			if d := time.Duration(cl.paceNs.Load()) - time.Since(t0); d > 0 {
				wait(ctx, d)
			}
		}
	}()
	return cl, nil
}

// calibrate waits out the healthy baseline, derives the latency
// objective (2.5× the observed tile p99), and starts the SLO engine.
func (cl *chaosCluster) calibrate(res *ChaosDrillResult) error {
	cfg := cl.cfg
	wait(cl.ctx, cfg.Baseline)
	p99 := cl.met.TileLatencyWindow.Quantile(cfg.SlowWindow, 0.99)
	if p99 <= 0 || p99 != p99 {
		return fmt.Errorf("no baseline traffic (p99=%v)", p99)
	}
	cl.p99 = p99
	threshold := 2.5 * p99
	res.BaselineP99Ms = p99 * 1e3
	res.ThresholdMs = threshold * 1e3

	engine := core.NewSLOEngine(cl.met, core.SLOConfig{
		TileP99:    threshold,
		MissBudget: -1, // latency objective only
		FastWindow: cfg.FastWindow,
		SlowWindow: cfg.SlowWindow,
	})
	cl.c.WireSLO(engine)
	engine.Subscribe(func(tr telemetry.SLOTransition) {
		cl.mu.Lock()
		cl.transitions = append(cl.transitions, SLOTimedTransition{AtMs: cl.sinceMs(tr.At), SLOTransition: tr})
		cl.mu.Unlock()
	})
	go engine.Run(cl.ctx, cfg.FastWindow/10)
	cl.engine = engine
	// Let the engine judge the healthy state before any fault lands.
	wait(cl.ctx, cfg.SlowWindow)
	return nil
}

func (cl *chaosCluster) sinceMs(t time.Time) float64 { return ms(t.Sub(cl.start)) }

// target is the node every drill faults: the pool's last.
func (cl *chaosCluster) target() *loopbackNode { return cl.pool.nodes[len(cl.pool.nodes)-1] }

// seen reports the first transition into state to at or after afterMs.
func (cl *chaosCluster) seen(to telemetry.SLOState, afterMs float64) (float64, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, tr := range cl.transitions {
		if tr.To == to && tr.AtMs >= afterMs {
			return tr.AtMs, true
		}
	}
	return 0, false
}

// session returns node k's debug snapshot.
func (cl *chaosCluster) session(k int) (core.SessionDebug, bool) {
	for _, s := range cl.c.DebugSessions() {
		if s.Node == k {
			return s, true
		}
	}
	return core.SessionDebug{}, false
}

// settleOK waits for the SLO engine to leave the breach state.
func (cl *chaosCluster) settleOK() bool {
	_, ok := waitFor(cl.ctx, cl.cfg.Timeout, func() (float64, bool) {
		if cl.engine.Breached() {
			return 0, false
		}
		return 1, true
	})
	return ok
}

// breachDump waits for the SLO-breach flight dump that blames node k.
// It reports the reason of the matching dump — or, when none blames k,
// of the latest breach dump ("" when there is none) — and whether k was
// blamed.
func (cl *chaosCluster) breachDump(k int) (string, bool) {
	want := fmt.Sprintf("worst-node=%d", k)
	reason := ""
	_, blamed := waitFor(cl.ctx, cl.cfg.Timeout, func() (float64, bool) {
		for _, d := range cl.flight.Dumps() {
			if strings.Contains(d.Reason, "slo-breach") {
				reason = d.Reason
				if strings.Contains(d.Reason, want) {
					return 1, true
				}
			}
		}
		return 0, false
	})
	return reason, blamed
}

func (cl *chaosCluster) stop() {
	cl.cancel()
	<-cl.done
	cl.c.Shutdown()
	cl.pool.stop()
}

// drillBandwidth collapses the last node's link to ThrottleRate and
// walks the observability chain in three acts. Act 1 runs speed-only
// dispatch (link-aware off), so every image keeps routing a tile over
// the collapsed link: the profiler's estimates converge onto the
// throttle rate, the SLO breaches, and the flight dump blames the
// node. Act 2 enables link-aware dispatch mid-breach: the audit must
// log a link-attributed reallocation that routes around the node and
// the breach must clear while the fault is still active. Act 3 heals
// the link: probation revival re-admits the starved node and the
// estimates recover.
func drillBandwidth(cl *chaosCluster, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.target()
	rate := float64(cfg.ThrottleRate)

	var healthyUp float64
	if s, ok := cl.session(target.idx); ok {
		healthyUp = s.UplinkBps
	}

	// Act 1: speed-only dispatch under the collapse.
	cl.c.DisableLinkAware()
	res.FaultAtMs = cl.sinceMs(time.Now())
	target.rate.Store(cfg.ThrottleRate)

	// The downlink carries the 3.3×-larger result tensors and the node
	// itself paces the throttled writes, so it is the direction where
	// the estimate must land inside the 25% band; the uplink estimate
	// is judged on detecting the collapse (order of magnitude down from
	// healthy), since probe echoes queued behind throttled transfers
	// bias its one-way delays.
	est, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s, ok := cl.session(target.idx); ok && s.DownlinkBps > 0 {
			if math.Abs(s.DownlinkBps-rate)/rate <= 0.25 {
				return s.DownlinkBps, true
			}
		}
		return 0, false
	})
	res.LinkDownBps = est
	res.check("link-estimate", ok,
		"downlink estimate %.0f B/s within 25%% of the %.0f B/s throttle", est, rate)
	if s, found := cl.session(target.idx); found {
		res.LinkUpBps = s.UplinkBps
		res.check("link-collapse", healthyUp > 0 && s.UplinkBps < healthyUp/4,
			"uplink estimate fell %.0f -> %.0f B/s under the throttle", healthyUp, s.UplinkBps)
	}

	breachAt, breached := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		return cl.seen(telemetry.SLOBreach, res.FaultAtMs)
	})
	res.BreachAtMs = breachAt
	res.check("slo-breach", breached, "SLO breached %.0fms after the collapse", breachAt-res.FaultAtMs)
	if breached {
		var blamed bool
		res.DumpReason, blamed = cl.breachDump(target.idx)
		res.check("flight-blame", blamed, "breach dump blames the throttled node: %q", res.DumpReason)
	}

	// Act 2: link-aware dispatch reroutes while the fault is live.
	enableWall := time.Now()
	cl.c.EnableLinkAware()
	wantTrig := fmt.Sprintf("link node=%d", target.idx)
	trig := ""
	_, ok = waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		for _, d := range cl.met.Sched.Audit().Decisions() {
			if d.At.After(enableWall) && strings.HasPrefix(d.Trigger, wantTrig) {
				trig = d.Trigger
				return 1, true
			}
		}
		return 0, false
	})
	res.check("audit-link-realloc", ok,
		"audit ring holds a link-attributed reallocation %q", trig)
	if breached {
		at, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
			return cl.seen(telemetry.SLOOK, breachAt)
		})
		res.RecoverAtMs = at
		res.check("slo-reroute", ok && cl.settleOK(),
			"rerouting cleared the breach at %.0fms with the throttle still on", at)
	}

	// Act 3: heal; probation revival re-admits the starved node.
	healWall := time.Now()
	res.HealAtMs = cl.sinceMs(healWall)
	target.rate.Store(0)
	rec, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s, ok := cl.session(target.idx); ok && s.UplinkBps > 3*rate && s.DownlinkBps > 3*rate {
			return s.UplinkBps, true
		}
		return 0, false
	})
	res.LinkRecoveryBps = rec
	res.check("link-recovery", ok, "post-heal uplink estimate %.0f B/s (>3x the throttle)", rec)
	_, ok = waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		for _, d := range cl.met.Sched.Audit().Decisions() {
			if d.At.After(healWall) && target.idx < len(d.Next) && d.Next[target.idx] >= 1 {
				return float64(d.Next[target.idx]), true
			}
		}
		return 0, false
	})
	res.check("readmission", ok, "healed node re-entered the allocation (probation revival)")
	res.check("slo-settled", cl.settleOK(), "SLO engine settled after the heal")
}

// drillCrash kills the last node's listener and connections mid-run,
// restarts it on the same address, and asserts the session failed over
// (redispatch, zero failed images) and reconnected (epoch bump).
func drillCrash(cl *chaosCluster, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.target()
	res.FaultAtMs = cl.sinceMs(time.Now())
	target.crash()

	// Let traffic ride the degraded cluster: stranded tiles redispatch,
	// new allocations avoid the dead node.
	wait(cl.ctx, 400*time.Millisecond)
	res.HealAtMs = cl.sinceMs(time.Now())
	err := target.restart()
	res.check("restart", err == nil, "listener re-bound on %s (%v)", target.addr, err)

	var s core.SessionDebug
	_, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if got, found := cl.session(target.idx); found && got.Alive && got.Epochs >= 2 {
			s = got
			return float64(got.Epochs), true
		}
		return 0, false
	})
	res.Epochs = s.Epochs
	res.check("reconnect", ok, "session alive again, epoch %d", s.Epochs)

	var down, re bool
	for _, ev := range cl.flight.Events() {
		switch ev.Kind {
		case "session-down":
			down = down || ev.Node == target.idx
		case "session-reconnect":
			re = re || ev.Node == target.idx
		}
	}
	// The event ring churns at thousands of tile events per second, so
	// the down marker may already be evicted by the time the reconnect
	// settles; the failover dump the transition triggered is durable
	// evidence of the same fact.
	if !down {
		for _, d := range cl.flight.Dumps() {
			if d.Reason == "session-failover" {
				down = true
				break
			}
		}
	}
	res.check("flight-events", down && re,
		"flight holds session-down=%v (event or failover dump) session-reconnect=%v for node %d", down, re, target.idx)
	res.check("no-failed-images", cl.failed.Load() == 0,
		"%d images failed across the crash (want 0: redispatch covers stranded tiles)", cl.failed.Load())
	res.check("slo-settled", cl.settleOK(), "SLO engine settled after the failover")
}

// drillSkew shifts the last node's monotonic clock and asserts the
// probe-fed offset estimator absorbs it in both directions without an
// SLO breach — skew must corrupt the phase decomposition only until
// the estimator catches up, never the Central-side latency SLO.
func drillSkew(cl *chaosCluster, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.target()
	skew := float64(cfg.Skew.Nanoseconds())

	_, warm := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s, ok := cl.session(target.idx); ok && s.OffsetSamples >= 5 {
			return float64(s.OffsetSamples), true
		}
		return 0, false
	})
	res.check("probe-warmup", warm, "offset estimator warmed on probe echoes")

	res.FaultAtMs = cl.sinceMs(time.Now())
	target.w.SetClockSkew(cfg.Skew)
	// The node's stamps now read +skew, so the mapping back onto the
	// Central's clock must converge to −skew.
	off, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s, found := cl.session(target.idx); found {
			if math.Abs(float64(s.ClockOffsetNs)+skew) <= 0.3*skew {
				return float64(s.ClockOffsetNs), true
			}
		}
		return 0, false
	})
	res.OffsetNs = int64(off)
	res.check("offset-converges", ok,
		"offset estimate %.2fms after injecting +%.0fms skew (want ~-%.0fms)",
		off/1e6, skew/1e6, skew/1e6)

	res.HealAtMs = cl.sinceMs(time.Now())
	target.w.SetClockSkew(0)
	back, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		if s, found := cl.session(target.idx); found {
			if math.Abs(float64(s.ClockOffsetNs)) <= 0.3*skew {
				return float64(s.ClockOffsetNs), true
			}
		}
		return 0, false
	})
	res.check("offset-recovers", ok, "offset estimate back to %.2fms after removing the skew", back/1e6)

	_, breachSeen := cl.seen(telemetry.SLOBreach, res.FaultAtMs)
	res.check("no-breach", !breachSeen && !cl.engine.Breached(),
		"clock skew must not trip the Central-clock latency SLO")
}

// drillSlowNode is the gray-failure schedule: the last node serves
// tiles at SlowFactor× the healthy tile p99 — the injected equivalent
// of a thermally throttled edge device — the SLO must breach with the
// health tracker blaming that node, and recover once it heals.
//
// Traffic is paced first, to one image per 1.5× the injected service
// time, and a slow window of paced traffic passes before the fault:
// the image rate then holds through the injection, so the good/bad
// tile mix inside the burn windows — and with it the detection
// latency — reflects the SLO engine, not a closed loop slowing down.
func drillSlowNode(cl *chaosCluster, res *ChaosDrillResult) {
	cfg := cl.cfg
	target := cl.target()
	inject := time.Duration(cfg.SlowFactor * cl.p99 * float64(time.Second))
	pace := inject + inject/2
	res.InjectedDelayMs = ms(inject)
	res.PaceMs = ms(pace)
	cl.paceNs.Store(int64(pace))
	wait(cl.ctx, cfg.SlowWindow)

	res.FaultAtMs = cl.sinceMs(time.Now())
	target.w.SetDelay(inject)

	breachAt, breached := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
		return cl.seen(telemetry.SLOBreach, res.FaultAtMs)
	})
	res.BreachAtMs = breachAt
	res.check("slo-breach", breached,
		"SLO breached %.0fms after a %.1fms/tile slowdown (two fast windows = %.0fms; paced %.1fms/image)",
		breachAt-res.FaultAtMs, res.InjectedDelayMs, 2*ms(cfg.FastWindow), res.PaceMs)
	if breached {
		res.WarnAtMs, _ = cl.seen(telemetry.SLOWarn, res.FaultAtMs)
		res.HealthAtBreach = cl.c.Health().Scores()
		node, score, phase := cl.c.Health().Worst()
		res.check("health-blame", node == target.idx,
			"health tracker blames node %d (score %.2f, phase %s; scores %.2f)", node, score, phase, res.HealthAtBreach)
		var blamed bool
		res.DumpReason, blamed = cl.breachDump(target.idx)
		res.check("flight-blame", blamed, "breach dump blames the slow node: %q", res.DumpReason)
	}

	res.HealAtMs = cl.sinceMs(time.Now())
	target.w.SetDelay(cfg.BaseDelay)
	if breached {
		at, ok := waitFor(cl.ctx, cfg.Timeout, func() (float64, bool) {
			return cl.seen(telemetry.SLOOK, res.HealAtMs)
		})
		res.RecoverAtMs = at
		res.check("slo-recovery", ok, "SLO back to ok %.0fms after the heal", at-res.HealAtMs)
	}
}

// WriteJSON writes the report, indented, to path.
func (r *ChaosReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteText renders the drill-by-drill verdicts.
func (r *ChaosReport) WriteText(w io.Writer) {
	fprintf(w, "Chaos drill schedule (%s %s, %d nodes, windows %.0fms/%.0fms, probes %.0fms, %d CPUs)\n",
		r.Model, r.Grid, r.Nodes, r.FastWindowMs, r.SlowWindowMs, r.ProbeIntervalMs, r.NumCPU)
	for _, d := range r.Drills {
		verdict := "PASS"
		if !d.Pass {
			verdict = "FAIL"
		}
		fprintf(w, "  [%s] %-9s p99 %.2fms -> objective %.2fms, %d images (%d failed), %.1fs\n",
			verdict, d.Drill, d.BaselineP99Ms, d.ThresholdMs, d.Images, d.FailedImages, d.DurationMs/1e3)
		for _, c := range d.Checks {
			mark := "ok  "
			if !c.OK {
				mark = "FAIL"
			}
			fprintf(w, "      %s %-18s %s\n", mark, c.Name, c.Detail)
		}
	}
	if r.Pass {
		fprintf(w, "  all drills passed\n")
	} else {
		fprintf(w, "  DRILL FAILURES — see above\n")
	}
}

// wait sleeps d or until ctx is done.
func wait(ctx context.Context, d time.Duration) {
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// waitFor polls cond (10ms cadence) until it reports found, the timeout
// elapses, or ctx is done.
func waitFor(ctx context.Context, timeout time.Duration, cond func() (float64, bool)) (float64, bool) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if v, ok := cond(); ok {
			return v, true
		}
		wait(ctx, 10*time.Millisecond)
	}
	return cond()
}
