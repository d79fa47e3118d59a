package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/sched"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// InferStats reports one distributed inference's runtime behaviour.
type InferStats struct {
	Latency     time.Duration
	TilesMissed int
	Alloc       sched.Allocation
	Received    []int
	WireBytes   int64 // total result bytes received
	// TraceID identifies this image across both sides of the wire: every
	// span the Central and the Conv nodes contribute to the Chrome trace
	// carries it, as does every tile frame.
	TraceID uint64
	// Breakdown is the per-tile latency decomposition (nil only when no
	// tile returned a timing-capable result).
	Breakdown *Breakdown
}

// Central is the ADCNN Central node: input-partition block, statistics
// collection block (Algorithm 2) and layer-computation block. The live
// runtime is session-based: one persistent nodeSession per Conv node
// (send loop + recv loop), a pending-table demux routing results to
// per-image collectors, and cancellation plumbed from Shutdown and the
// T_L deadline down to every blocking point. Multiple images may be in
// flight at once (InferAsync / Pipeline); Infer is the synchronous
// convenience wrapper.
//
// The session machinery — per-node sessions, the pending table, the
// membership view — lives in a replica-scoped struct (see replica.go):
// a Central is one replica of the control plane, and several Centrals
// can drive the same Conv pool concurrently (the Conv side serves each
// an independent session; see NodeServer). SetShare tells a replica
// what fraction of each node's capacity the cluster partitioner has
// assigned it, so co-resident replicas split a node rather than both
// assuming they own it.
type Central struct {
	Model *models.Model
	Conns []Conn
	// TL is the wait deadline for intermediate results; missing tiles are
	// zero-filled (paper Section 6.1).
	TL    time.Duration
	Stats *sched.Stats

	// tileShape is the per-tile Front output shape [1,C,h,w]: every
	// result must decode to it, and missed tiles are zero-filled at it.
	tileShape []int

	metrics *Metrics
	trace   *telemetry.Trace
	flight  *telemetry.FlightRecorder
	health  *HealthTracker

	// traceBase salts per-image trace IDs so traces from successive runs
	// don't collide when merged; the image ID is folded in per image.
	traceBase uint64

	imageID  atomic.Uint32
	inflight atomic.Int64 // images dispatched, Wait not finished
	mu       sync.Mutex   // guards Stats, share, and allocation
	backMu   sync.Mutex   // serializes the back-layer compute stage
	// backPlan is the compiled Back stage; its arena (input slot
	// included) is guarded by backMu.
	backPlan *nn.Plan

	// share scales each node's measured speed in the allocator: the
	// cluster partitioner's per-replica capacity share (nil = this
	// replica owns every node outright).
	share []float64

	// probeEvery, when >0, starts a probe loop on first use that keeps
	// every session's RTT estimate fresh even when no tiles are flowing.
	probeEvery time.Duration
	// linkAware folds per-node transfer costs into the allocation (see
	// sched.EffectiveSpeeds). Off by default: with no link estimates the
	// effective speeds equal the measured ones anyway, but the gate keeps
	// the historical allocation byte-identical for existing callers.
	linkAware atomic.Bool
	// Transfer-cost calibration, guarded by mu: EWMA per-tile payload
	// bytes in each direction, and the EWMA image latency that converts
	// link seconds into the allocator's 1/s_k units.
	upBytesEWMA   float64
	downBytesEWMA float64
	latEWMA       float64 // seconds

	// probation, guarded by mu, timestamps the last probation revival
	// per node: an alive node whose Algorithm 2 estimate has starved to
	// ~zero (it stopped receiving tiles, so its EWMA decayed and the
	// allocator would never re-measure it) is periodically re-admitted
	// at the cold-start weight. A handful of probe tiles then either
	// restore its estimate or the telemetry pushes it back out.
	probation []time.Time

	ctx       context.Context
	cancel    context.CancelFunc
	startOnce sync.Once
	rep       *replica
}

// SetMetrics attaches an instrument bundle: wire traffic is metered on
// every connection and Infer records the full metric catalog. Call
// before the first Infer.
func (c *Central) SetMetrics(m *Metrics) {
	c.metrics = m
	if m != nil && m.Wire != nil {
		for i, conn := range c.Conns {
			c.Conns[i] = InstrumentConn(conn, m.Wire)
		}
	}
	if m != nil {
		c.rep.pending.stale = m.StaleResults
		c.health = NewHealthTracker(len(c.Conns), m.NodeHealth)
	}
}

// SetTrace attaches a tracer: Infer emits per-image phase spans on tid 0
// and per-tile dispatch→result spans on tid node+1. Call before the
// first Infer.
func (c *Central) SetTrace(t *telemetry.Trace) {
	c.trace = t
	if t != nil {
		t.SetThreadName(0, "central")
		for k := range c.Conns {
			t.SetThreadName(k+1, fmt.Sprintf("conv-%d", k))
		}
	}
}

// SetFlightRecorder attaches a flight recorder: the runtime records a
// structured event stream (enqueue, sent, result, stale, deadline
// misses, session transitions) into its ring and dumps the affected
// image's recent events whenever a tile misses T_L or a session fails
// over. Call before the first Infer; nil disables (the default).
func (c *Central) SetFlightRecorder(f *telemetry.FlightRecorder) { c.flight = f }

// FlightRecorder returns the attached recorder (nil when disabled).
func (c *Central) FlightRecorder() *telemetry.FlightRecorder { return c.flight }

// SetDialer gives node k's session a way to re-establish its connection
// after a transport failure (reconnect with exponential backoff).
// Without a dialer a failed node stays dead forever, which is the right
// default for in-process pipes. Call before the first Infer.
func (c *Central) SetDialer(k int, dial func(context.Context) (Conn, error)) {
	c.rep.setDialer(k, dial)
}

// SetShare installs the cluster partitioner's per-node capacity shares
// for this replica: node k's measured speed is scaled by share[k] in
// every subsequent allocation, so a replica granted 40% of a node
// routes 40% of the tiles it would have routed owning the node alone.
// A nil or short share leaves the remaining nodes unscaled. Safe to
// call concurrently with Infer — shares take effect on the next
// allocation.
func (c *Central) SetShare(share []float64) {
	c.mu.Lock()
	c.share = append(c.share[:0], share...)
	c.mu.Unlock()
}

// InFlight reports how many images have been dispatched whose Wait has
// not finished — the replica's instantaneous load, used by the cluster
// rebalancer as its demand signal.
func (c *Central) InFlight() int { return int(c.inflight.Load()) }

// NumNodes reports the current size of the membership view (including
// tombstoned nodes that have left).
func (c *Central) NumNodes() int { return len(c.rep.snapshot()) }

// AliveNodes reports, per node index, whether the session currently has
// a usable connection.
func (c *Central) AliveNodes() []bool {
	sessions := c.rep.snapshot()
	out := make([]bool, len(sessions))
	for k, s := range sessions {
		out[k] = s.Alive()
	}
	return out
}

// NewCentral creates a Central node. gamma is Algorithm 2's decay.
func NewCentral(m *models.Model, conns []Conn, tl time.Duration, gamma float64) (*Central, error) {
	if !m.Opt.Partitioned() {
		return nil, fmt.Errorf("core: central requires a partitioned model")
	}
	if len(conns) == 0 {
		return nil, fmt.Errorf("core: central needs at least one conv node")
	}
	g := m.Opt.Grid
	full := m.FrontOutputShape()
	backPlan, err := m.BackPlan()
	if err != nil {
		return nil, fmt.Errorf("core: central: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Central{
		Model:     m,
		backPlan:  backPlan,
		Conns:     conns,
		TL:        tl,
		Stats:     sched.NewStats(len(conns), gamma, float64(g.Tiles())/float64(len(conns))),
		tileShape: []int{1, full[0], full[1] / g.Rows, full[2] / g.Cols},
		traceBase: uint64(time.Now().UnixNano()) << 20,
		ctx:       ctx,
		cancel:    cancel,
	}
	c.rep = newReplica(c, len(conns))
	return c, nil
}

// EnableLinkProbes arranges for every node session to receive a link
// probe each interval once the runtime starts: the probes refresh the
// RTT/offset estimate through idle periods and cost 8 payload bytes
// each way. Call before the first Infer.
func (c *Central) EnableLinkProbes(interval time.Duration) {
	c.probeEvery = interval
}

// EnableLinkAware folds the per-node transfer cost (EWMA tile bytes
// over the measured link rates) into every subsequent allocation. Safe
// to call at any time; nodes without converged link estimates keep
// their pure-compute cost.
func (c *Central) EnableLinkAware() { c.linkAware.Store(true) }

// DisableLinkAware reverts subsequent allocations to the pure-compute
// cost 1/s_k. Safe to call at any time; the chaos harness flips the
// gate mid-run to contrast speed-only and link-aware dispatch under
// the same fault.
func (c *Central) DisableLinkAware() { c.linkAware.Store(false) }

// start spins up the per-node sessions on first use, after SetMetrics /
// SetTrace / SetDialer have had their chance to run.
func (c *Central) start() {
	c.startOnce.Do(func() {
		c.rep.start(c.Conns)
		if c.probeEvery > 0 {
			c.rep.loopWG.Add(1)
			go c.probeLoop()
		}
	})
}

// probeLoop fans one link probe out to every session per tick.
func (c *Central) probeLoop() {
	defer c.rep.loopWG.Done()
	t := time.NewTicker(c.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			for _, s := range c.rep.snapshot() {
				s.sendProbe()
			}
		}
	}
}

// AddNode grows the membership view with a new Conv node while the
// runtime is live: the node gets a session (with reconnect support when
// dial is non-nil), a fresh scheduler estimate at the initial value, and
// a health-tracker slot, and receives tiles from the next allocation
// onward. Returns the new node's index.
func (c *Central) AddNode(conn Conn, dial func(context.Context) (Conn, error)) int {
	c.start()
	if c.metrics != nil && c.metrics.Wire != nil {
		conn = InstrumentConn(conn, c.metrics.Wire)
	}
	// Grow the estimate before publishing the session so a concurrent
	// allocation never sees a node without a speed.
	c.mu.Lock()
	c.Stats.Add()
	c.mu.Unlock()
	if c.health != nil {
		c.health.Grow(1)
	}
	k := c.rep.addNode(conn, dial)
	if c.trace != nil {
		c.trace.SetThreadName(k+1, fmt.Sprintf("conv-%d", k))
	}
	c.flight.Record("node-join", 0, -1, k, "")
	return k
}

// RemoveNode retires node k from the membership view: its session is
// closed, queued tiles fail over to surviving nodes, and the session
// never reconnects (the index stays valid as a tombstone so node
// numbering is stable). Reports whether k named a live node.
func (c *Central) RemoveNode(k int) bool {
	c.start()
	s := c.rep.session(k)
	if s == nil {
		return false
	}
	s.retire()
	c.flight.Record("node-leave", 0, -1, k, "")
	return true
}

// reviveNode restores a reconnected node's scheduler estimate so it
// re-enters the allocation (the EWMA of a dead node decays toward zero
// and would otherwise never assign it work again).
func (c *Central) reviveNode(k int) {
	c.mu.Lock()
	c.Stats.Revive(k)
	c.mu.Unlock()
	if c.metrics != nil {
		c.metrics.Reconnects.With(nodeLabel(k)).Inc()
	}
}

// Inflight is one dispatched image whose results are still being
// collected. Wait blocks until every tile arrived, the T_L deadline
// expired (missing tiles are zero-filled), or the submitting context was
// cancelled, then runs the back layers and returns the output. Wait is
// idempotent: repeated calls return the memoized result.
type Inflight struct {
	c          *Central
	parent     context.Context
	cctx       context.Context // parent + T_L deadline
	cancelTL   context.CancelFunc
	img        uint32
	traceID    uint64
	tiles      []fdsp.Tile
	nodes      int // membership size at dispatch
	col        *imageCollector
	alloc      sched.Allocation
	dispatchAt []time.Time // per tile, for round-trip accounting
	start      time.Time
	release    func() // pipeline admission slot, may be nil

	// Link-aware allocation context (nil when the mode is off or no
	// estimates existed at dispatch), recorded in the audit trail.
	linkSecs  []float64
	effSpeeds []float64

	finished bool
	out      *tensor.Tensor
	stats    InferStats
	err      error
}

// InferAsync partitions x, dispatches its tiles to the node sessions and
// returns without waiting for results — image i+1's tiles can be on the
// wire while image i's results are still arriving (paper Figure 9).
// Call Wait on the handle to collect the output; every InferAsync must
// be paired with exactly one Wait.
func (c *Central) InferAsync(ctx context.Context, x *tensor.Tensor) (*Inflight, error) {
	c.start()
	if err := c.ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: central is shut down: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	img := c.imageID.Add(1)
	traceID := c.traceBase | uint64(img)
	met, tr := c.metrics, c.trace
	c.inflight.Add(1)
	if met != nil {
		met.Images.Inc()
		met.InflightImages.Add(1)
	}
	undo := func() {
		c.inflight.Add(-1)
		if met != nil {
			met.InflightImages.Add(-1)
		}
	}

	g := c.Model.Opt.Grid
	tiles := g.Layout(x.Shape[2], x.Shape[3])

	// The membership view is snapshotted once per image: a node joining
	// mid-dispatch receives tiles from the next image onward.
	sessions := c.rep.snapshot()

	// Input-partition block: allocate tiles to nodes by current stats,
	// skipping nodes whose sessions are down and scaling by the cluster
	// share when one is installed. In link-aware mode the speeds are
	// derated by each node's measured transfer cost first, so a node
	// behind a collapsed link sheds tiles even while its compute-rate
	// estimate still looks healthy.
	c.mu.Lock()
	c.probationRevivesLocked(sessions, start)
	allocSpeeds := c.aliveSpeedsLocked(sessions)
	var linkSecs, effSpeeds []float64
	if c.linkAware.Load() {
		linkSecs = c.linkSecsLocked(sessions)
		if effSpeeds = sched.EffectiveSpeeds(allocSpeeds, linkSecs, c.latEWMA); effSpeeds != nil {
			allocSpeeds = effSpeeds
		}
	}
	alloc, err := sched.Allocate(len(tiles), allocSpeeds, 0, nil, nil)
	c.mu.Unlock()
	if err != nil {
		undo()
		return nil, fmt.Errorf("core: allocation: %w", err)
	}
	assignment := make([]int, len(tiles)) // tile -> node
	next := 0
	for k, n := range alloc {
		for j := 0; j < n; j++ {
			assignment[next] = k
			next++
		}
	}

	// Register the collector before the first task leaves, so a result
	// can never beat its pending-table entry.
	col := newImageCollector(img, len(tiles))
	c.rep.pending.register(col, len(tiles))

	// Dispatch every tile. An enqueue failure (session down) falls over
	// to the next alive node — the runtime half of the paper's failure
	// tolerance; a task stranded deeper in a dying session's queue comes
	// back through redispatch.
	dispatchSpan := tr.Begin("dispatch", "central", 0)
	var dispatchAt []time.Time
	if met != nil || tr != nil {
		dispatchAt = make([]time.Time, len(tiles))
	}
	// In the int8 operating mode the uplink carries quantized tiles: uint8
	// levels plus a per-tile affine, 4× smaller than float32 and consumed
	// directly by the workers' int8 entry convolution. Gated on the model
	// actually supporting the levels entry; tiles whose value range defies
	// a finite affine (NaN/Inf input) fall back to float32 per tile.
	quantUplink := c.Model.Opt.Int8 && c.Model.Int8InputOK()
	counts := make(sched.Allocation, len(sessions)) // tiles actually enqueued per node
	for ti, tl := range tiles {
		// Serialise the tile into a pooled wire buffer; the session's send
		// loop releases it once the frame is safely on the wire (a failed
		// send keeps it intact for redispatch). The tile tensor itself is
		// dead after serialisation.
		tile := fdsp.ExtractTile(x, tl)
		var payload []byte
		sentQuant := false
		if quantUplink {
			mn, mx := tensor.MinMax(tile.Data)
			if af, aerr := quant.AffineFor(mn, mx); aerr == nil {
				payload = AppendQuantTensor(tensor.GetBytes(QuantTensorWireSize(tile))[:0], tile, af)
				sentQuant = true
			}
		}
		if !sentQuant {
			payload = AppendTensor(tensor.GetBytes(TensorWireSize(tile))[:0], tile)
		}
		tensor.PutTensor(tile)
		task := &Message{
			Kind: KindTask, ImageID: img, TileID: uint32(ti),
			TraceID: traceID, SpanID: tileSpanID(img, ti),
			Quantized: sentQuant, Payload: payload,
		}
		k := assignment[ti]
		sent := false
		for attempt := 0; attempt < len(sessions); attempt++ {
			c.rep.pending.markEnqueued(pendingKey{img, uint32(ti)}, k, monoNow(), len(payload))
			if sessions[k].enqueue(ctx, task) {
				counts[k]++
				sent = true
				break
			}
			k = (k + 1) % len(sessions)
		}
		if !sent {
			c.rep.pending.dropImage(img, len(tiles))
			undo()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: no alive conv node for tile %d", ti)
		}
		c.flight.Record("enqueue", img, ti, k, "")
		if dispatchAt != nil {
			dispatchAt[ti] = time.Now()
		}
		if met != nil {
			met.TilesDispatched.With(nodeLabel(k)).Inc()
		}
	}
	dispatchSpan.End(map[string]any{"image": img, "tiles": len(tiles), "trace_id": TraceIDString(traceID)})

	// The T_L clock starts when the last tile is handed off, matching the
	// paper's "after transmitting all the tiles" anchor.
	cctx, cancelTL := context.WithTimeout(ctx, c.TL)
	return &Inflight{
		c: c, parent: ctx, cctx: cctx, cancelTL: cancelTL,
		img: img, traceID: traceID, tiles: tiles, nodes: len(sessions),
		col: col, alloc: counts, dispatchAt: dispatchAt, start: start,
		linkSecs: linkSecs, effSpeeds: effSpeeds,
	}, nil
}

// tileSpanID derives the parent span ID a tile frame carries: unique
// per (image, tile) so Conv-side work can be parented to the dispatch.
func tileSpanID(img uint32, tile int) uint64 {
	return uint64(img)<<24 | uint64(tile)&0xffffff
}

// TraceIDString renders a trace ID the way it appears in span args.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// Wait collects the image's intermediate results, zero-fills whatever
// missed the deadline, and runs the layer-computation block.
func (h *Inflight) Wait() (*tensor.Tensor, InferStats, error) {
	if h.finished {
		return h.out, h.stats, h.err
	}
	h.finished = true
	h.out, h.stats, h.err = h.collect()
	return h.out, h.stats, h.err
}

func (h *Inflight) collect() (*tensor.Tensor, InferStats, error) {
	c := h.c
	met, tr := c.metrics, c.trace
	cleanup := func() {
		c.rep.pending.dropImage(h.img, len(h.tiles))
		h.cancelTL()
		c.inflight.Add(-1)
		if met != nil {
			met.InflightImages.Add(-1)
		}
		if h.release != nil {
			h.release()
		}
	}

	outTiles := make([]*tensor.Tensor, len(h.tiles))
	received := make([]int, h.nodes)
	breakdown := &Breakdown{Image: h.img, TraceID: h.traceID}
	var wire, taskWire int64
	got := 0
collect:
	for got < len(h.tiles) {
		select {
		case a := <-h.col.ch:
			collectNs := monoNow()
			outTiles[a.tile] = a.t
			// A redispatch can route a tile to a node that joined after
			// this image was dispatched; grow the tally to fit.
			for a.node >= len(received) {
				received = append(received, 0)
			}
			received[a.node]++
			wire += int64(a.wire)
			taskWire += int64(a.taskWire)
			got++
			if a.enqNs > 0 {
				tb := newTileBreakdown(a.tile, a.node, a.enqNs, a.sentNs, a.recvNs, collectNs, a.timing, a.offsetNs)
				breakdown.Tiles = append(breakdown.Tiles, tb)
				if met != nil {
					for p := 0; p < NumPhases; p++ {
						met.TilePhase[p].ObserveDuration(int64(tb.Phase[p]))
					}
				}
				c.health.Observe(a.node, &tb)
				// Feed the link profiler: uplink bytes over the uplink
				// phase, downlink bytes over the downlink phase.
				if s := c.rep.session(a.node); s != nil {
					s.link.observe(int64(a.taskWire), int64(a.wire),
						int64(tb.Phase[PhaseUplink]), int64(tb.Phase[PhaseDownlink]))
				}
				h.tracePhases(&tb, a.sentNs)
			}
			if h.dispatchAt != nil {
				rt := time.Since(h.dispatchAt[a.tile])
				if met != nil {
					met.TilesReceived.With(nodeLabel(a.node)).Inc()
					met.TileRoundTrip.ObserveDuration(rt.Nanoseconds())
					met.TileLatencyWindow.ObserveDuration(rt.Nanoseconds())
					met.TilesOKWindow.Inc()
				}
				tr.Span(fmt.Sprintf("tile %d", a.tile), "tile", a.node+1,
					tr.Offset(h.dispatchAt[a.tile]), rt,
					map[string]any{"image": h.img, "tile": a.tile, "wire_bytes": a.wire,
						"trace_id": TraceIDString(h.traceID)})
			}
		case <-h.col.fail:
			cleanup()
			return nil, InferStats{Latency: time.Since(h.start), TraceID: h.traceID}, h.col.err
		case <-h.cctx.Done():
			break collect // T_L expired or the caller cancelled
		}
	}
	cleanup()
	if err := h.parent.Err(); err != nil {
		return nil, InferStats{Latency: time.Since(h.start), TraceID: h.traceID}, err
	}

	// Statistics-collection block (Algorithm 2), plus the transfer-cost
	// calibration the link-aware allocator reads: average payload bytes
	// per tile in each direction this image.
	c.mu.Lock()
	c.Stats.Update(received)
	speeds := c.Stats.Speeds()
	if got > 0 {
		c.upBytesEWMA = calibEWMA(c.upBytesEWMA, float64(taskWire)/float64(got))
		c.downBytesEWMA = calibEWMA(c.downBytesEWMA, float64(wire)/float64(got))
	}
	c.mu.Unlock()
	if met != nil {
		met.Sched.ObserveSpeeds(speeds)
		met.Sched.ObserveAllocationLink(h.alloc, speeds, h.effSpeeds, h.linkSecs, h.img)
	}

	// Zero-fill missing tiles (paper: "start executing the later layers by
	// setting the missing input to zero").
	missed := 0
	for i := range outTiles {
		if outTiles[i] == nil {
			z := tensor.GetTensor(c.tileShape...)
			for j := range z.Data {
				z.Data[j] = 0
			}
			outTiles[i] = z
			missed++
			c.flight.Record("deadline-miss", h.img, i, -1,
				fmt.Sprintf("tile %d of image %d zero-filled at T_L=%v", i, h.img, c.TL))
		}
	}
	if missed > 0 {
		if met != nil {
			met.TilesMissed.Add(float64(missed))
			met.TilesMissWindow.Add(float64(missed))
		}
		tr.Instant("zero-fill", "central", 0, tr.Offset(time.Now()),
			map[string]any{"image": h.img, "missed": missed, "trace_id": TraceIDString(h.traceID)})
		c.flight.Dump("deadline-miss", h.img)
	}

	// Layer-computation block: reassemble and run the later layers. The
	// boundary already ran on the Conv nodes (both the raw and the
	// compressed result paths), so the merged tensor feeds Back directly.
	// The Central's compute stage is one resource: concurrent in-flight
	// images run it in turn, which is exactly the pipeline's third stage.
	out, err := c.backForward(outTiles, h)
	if err != nil {
		return nil, InferStats{Latency: time.Since(h.start), TraceID: h.traceID}, err
	}

	latency := time.Since(h.start)
	c.mu.Lock()
	c.latEWMA = latRefEWMA(c.latEWMA, latency.Seconds())
	c.mu.Unlock()
	if met != nil {
		met.ImageLatency.ObserveDuration(latency.Nanoseconds())
	}
	tr.Span(fmt.Sprintf("image %d", h.img), "image", 0, tr.Offset(h.start), latency,
		map[string]any{"missed": missed, "wire_bytes": wire, "trace_id": TraceIDString(h.traceID)})
	if len(breakdown.Tiles) == 0 {
		breakdown = nil
	}
	return out, InferStats{
		Latency:     latency,
		TilesMissed: missed,
		Alloc:       h.alloc,
		Received:    received,
		WireBytes:   wire,
		TraceID:     h.traceID,
		Breakdown:   breakdown,
	}, nil
}

// backForward is image h's back stage: under backMu it reassembles the
// tiles straight into the back plan's input slot, runs the plan, and
// copies out the output — with tracing off, the stage's only
// allocation. Reassembly copies every tile, so the pool-backed per-tile
// buffers (decoded results and zero fills alike) go home here.
func (c *Central) backForward(tiles []*tensor.Tensor, h *Inflight) (*tensor.Tensor, error) {
	c.backMu.Lock()
	span := c.trace.Begin("back", "central", 0)
	err := fdsp.ReassembleInto(c.backPlan.Input(), tiles, c.Model.Opt.Grid)
	var out *tensor.Tensor
	if err == nil {
		out = c.backPlan.Run().Clone()
	}
	if c.trace != nil {
		span.End(map[string]any{"image": h.img, "trace_id": TraceIDString(h.traceID)})
	}
	c.backMu.Unlock()
	for _, t := range tiles {
		tensor.PutTensor(t)
	}
	if err != nil {
		return nil, fmt.Errorf("core: back stage: %w", err)
	}
	return out, nil
}

// tracePhases merges the Conv node's side of a tile's journey into the
// trace as contiguous child spans on that node's track, mapped onto the
// Central's clock: uplink → queue → compute → downlink tile the
// interval between the frame leaving the Central and the result coming
// back, so both sides of the wire render under one trace ID.
func (h *Inflight) tracePhases(tb *TileBreakdown, sentNs int64) {
	tr := h.c.trace
	if tr == nil || tb.Conv == nil {
		return
	}
	args := map[string]any{
		"image": h.img, "tile": tb.Tile, "trace_id": TraceIDString(h.traceID),
		"span_id":         fmt.Sprintf("%016x", tileSpanID(h.img, tb.Tile)),
		"clock_offset_ns": tb.OffsetNs,
	}
	tid := tb.Node + 1
	at := sentNs
	for _, ph := range [...]struct {
		name  string
		phase int
	}{
		{"uplink", PhaseUplink},
		{"queue", PhaseNodeQueue},
		{"compute", PhaseCompute},
		{"downlink", PhaseDownlink},
	} {
		dur := tb.Phase[ph.phase]
		tr.Span(ph.name, "conv", tid, tr.Offset(monoWall(at)), dur, args)
		at += int64(dur)
	}
}

// calibEWMA folds one calibration sample (per-tile bytes, image
// latency) into its running estimate; the first sample seeds it.
const linkCalibAlpha = 0.2

func calibEWMA(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	return cur + linkCalibAlpha*(sample-cur)
}

// latRefEWMA folds an image-latency sample into the reference scale
// that converts link seconds into allocator cost. Unlike the byte
// calibration this reference must not chase a fault: a collapsed link
// inflates image latency, and a reference that follows it makes the
// collapsed link's transfer cost look proportionally cheap, neutering
// the derating exactly when it is needed — the same reason the health
// tracker freezes its baseline during an anomaly. Downward moves
// attack at the calibration rate; upward moves creep.
const latRefDecayAlpha = 0.02

func latRefEWMA(cur, sample float64) float64 {
	if cur <= 0 {
		return sample
	}
	a := linkCalibAlpha
	if sample > cur {
		a = latRefDecayAlpha
	}
	return cur + a*(sample-cur)
}

// linkSecsLocked estimates each alive node's per-tile transfer time in
// seconds: EWMA payload bytes over the node's measured link rates. A
// direction without a converged, fresh estimate contributes nothing, so
// a node the profiler knows nothing about keeps its pure-compute cost.
// Callers hold c.mu.
func (c *Central) linkSecsLocked(sessions []*nodeSession) []float64 {
	if c.upBytesEWMA <= 0 && c.downBytesEWMA <= 0 {
		return nil
	}
	out := make([]float64, len(sessions))
	any := false
	for k, s := range sessions {
		up, down := s.link.rates()
		if up > 0 && c.upBytesEWMA > 0 {
			out[k] += c.upBytesEWMA / up
			any = true
		}
		if down > 0 && c.downBytesEWMA > 0 {
			out[k] += c.downBytesEWMA / down
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// Probation revival: how often a starved-but-alive node is re-admitted,
// and how far below the best alive estimate a node must have fallen to
// count as starved. γ=0.9 drops a zero-tile node's estimate by 10× per
// image, so "starved" is unambiguous within a handful of images. The
// interval must comfortably exceed one re-measurement burst (the
// linkMinSamples images a revived node serves before its fresh link
// estimate can derate it again), or a still-faulty node would re-enter
// back-to-back and the probe traffic itself would hold the SLO in
// breach; at 2s the exploration cost is a few tiles per starved node
// per interval.
const (
	probationInterval = 2 * time.Second
	probationFrac     = 0.02
)

// probationRevivesLocked re-admits alive nodes whose speed estimate has
// decayed to effectively zero. Algorithm 2 has a blind spot the chaos
// bandwidth drill exposes: a node shed by link-aware dispatch (or any
// transient stall) receives no tiles, its EWMA decays toward zero, and
// Allocate skips zero-speed nodes forever — the node is starved even
// after the fault heals. Reviving it to the cold-start weight every
// probationInterval routes a few tiles through it, refreshing both the
// speed estimate and the link telemetry. The link estimate is reset
// alongside: it describes conditions from before the starvation and
// would otherwise derate the node back out after a single probe tile,
// throttling re-measurement to one sample per staleness cycle. Cleared,
// the min-samples gate leaves the node underated for a few images —
// exactly long enough to re-measure the link as it is now. Callers
// hold c.mu.
func (c *Central) probationRevivesLocked(sessions []*nodeSession, now time.Time) {
	n := c.Stats.Nodes()
	for len(c.probation) < n {
		c.probation = append(c.probation, time.Time{})
	}
	best := 0.0
	for k, s := range sessions {
		if k < n && s.Alive() {
			if v := c.Stats.Speed(k); v > best {
				best = v
			}
		}
	}
	if best <= 0 {
		return
	}
	for k, s := range sessions {
		if k >= n || !s.Alive() || c.Stats.Speed(k) >= probationFrac*best {
			continue
		}
		if now.Sub(c.probation[k]) < probationInterval {
			continue
		}
		c.probation[k] = now
		c.Stats.Revive(k)
		s.link.reset()
		if c.metrics != nil {
			c.metrics.Revives.With(nodeLabel(k)).Inc()
		}
		if c.flight != nil {
			c.flight.Record("probation-revive", 0, 0, k,
				"starved speed estimate: re-admitting node at cold-start weight")
		}
	}
}

// aliveSpeedsLocked returns the allocator's speed vector for a session
// snapshot: the Algorithm 2 estimates, zeroed for down sessions and
// scaled by the cluster share. Callers hold c.mu.
func (c *Central) aliveSpeedsLocked(sessions []*nodeSession) []float64 {
	speeds := c.Stats.Speeds()
	if len(speeds) > len(sessions) {
		speeds = speeds[:len(sessions)]
	}
	for len(speeds) < len(sessions) {
		speeds = append(speeds, 0)
	}
	for k, s := range sessions {
		if !s.Alive() {
			speeds[k] = 0
			continue
		}
		if k < len(c.share) {
			speeds[k] *= c.share[k]
		}
	}
	return speeds
}

// Infer runs one distributed inference for a [1,C,H,W] input and returns
// the model output.
func (c *Central) Infer(x *tensor.Tensor) (*tensor.Tensor, InferStats, error) {
	return c.InferContext(context.Background(), x)
}

// InferContext is Infer with cancellation: the context aborts dispatch
// and collection; the T_L deadline still bounds the result wait.
func (c *Central) InferContext(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, InferStats, error) {
	h, err := c.InferAsync(ctx, x)
	if err != nil {
		return nil, InferStats{}, err
	}
	return h.Wait()
}

// Shutdown cancels the runtime context, stopping every node session's
// send and recv loop, and closes the connections (Conv nodes treat the
// EOF as a clean disconnect). It blocks until all session goroutines
// have exited.
func (c *Central) Shutdown() {
	c.cancel()
	c.rep.loopWG.Wait()
	for _, conn := range c.Conns {
		_ = conn.Close()
	}
	// Connections added after construction are not in Conns.
	for _, s := range c.rep.snapshot() {
		s.closeConn()
	}
}
