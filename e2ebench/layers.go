package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"adcnn/internal/compress"
	"adcnn/internal/core"
	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/nn"
	"adcnn/internal/quant"
	"adcnn/internal/tensor"
)

// layerAcc accumulates the per-layer view of a traced window from what
// the public API hands back: the benchmark's own call timings and each
// image's InferStats (allocation, per-node counts and the per-tile
// Breakdown with its Conv-side timing records).
type layerAcc struct {
	images int
	// Central stages, summed ns.
	dispatchNs, admitNs, waitNs, latNs, postCollectNs int64
	// Tile phases and Conv-side stages, summed ns over tiles.
	tiles                               int
	phase                               [core.NumPhases]int64
	tileTotalNs                         int64
	decodeNs, queueNs, computeNs, encNs int64
	busyNs                              [nodes]int64
	// Scheduling.
	prevAlloc           []int
	reallocs            int
	fastTiles, allTiles int64
	bottleneckSum       float64
	bottleneckN         int
}

// observe folds in one completed image. f carries the benchmark's submit
// timestamps; tw and tEnd bracket its Wait.
func (a *layerAcc) observe(f inflight, tw, tEnd time.Time, st core.InferStats) {
	a.images++
	// InferStats.Latency starts when InferAsync begins dispatching, after
	// Pipeline admission; what lies between the submit call and that
	// instant is admission wait.
	asyncStart := tEnd.Add(-st.Latency)
	admit := asyncStart.Sub(f.t0)
	if admit < 0 {
		admit = 0
	}
	if sub := f.t1.Sub(f.t0); admit > sub {
		admit = sub
	}
	a.admitNs += int64(admit)
	a.dispatchNs += int64(f.t1.Sub(f.t0) - admit)
	a.waitNs += int64(tEnd.Sub(tw))
	a.latNs += int64(st.Latency)

	if st.Alloc != nil {
		if a.prevAlloc != nil && !equalInts(a.prevAlloc, st.Alloc) {
			a.reallocs++
		}
		a.prevAlloc = append(a.prevAlloc[:0], st.Alloc...)
	}
	for k, n := range st.Received {
		if k == 0 {
			a.fastTiles += int64(n)
		}
		a.allTiles += int64(n)
	}

	b := st.Breakdown
	if b == nil || len(b.Tiles) == 0 {
		return
	}
	// Tiles are in arrival order: the last one is the critical tile.
	a.postCollectNs += int64(st.Latency - b.Tiles[len(b.Tiles)-1].Total)
	for _, t := range b.Tiles {
		a.tiles++
		a.tileTotalNs += int64(t.Total)
		for p := range t.Phase {
			a.phase[p] += int64(t.Phase[p])
		}
		if tm := t.Conv; tm != nil {
			a.decodeNs += tm.DecodeNs - tm.RecvNs
			a.queueNs += tm.ComputeStartNs - tm.DecodeNs
			a.computeNs += tm.ComputeEndNs - tm.ComputeStartNs
			a.encNs += tm.EncodeNs - tm.ComputeEndNs
			if t.Node < nodes {
				a.busyNs[t.Node] += tm.SendNs - tm.ComputeStartNs
			}
		}
	}
	if r, ok := bottleneck(b.Tiles); ok {
		a.bottleneckSum += r
		a.bottleneckN++
	}
}

// bottleneck returns the slowest node's summed tile service over the
// balanced ideal for one image. A tile's service on node k runs from when
// the node could start it (its arrival, or the node's previous tile of
// this image leaving) to its result leaving, on the node's own clock.
// The ideal is the finish time had the same tiles been split in
// proportion to each node's measured per-tile rate, N / Σ_k n_k/S_k, so
// a perfect split reads 1.
func bottleneck(tiles []core.TileBreakdown) (float64, bool) {
	per := map[int][]*core.ConvTiming{}
	for i := range tiles {
		if tiles[i].Conv == nil {
			return 0, false
		}
		per[tiles[i].Node] = append(per[tiles[i].Node], tiles[i].Conv)
	}
	var worst, rate float64
	for _, tms := range per {
		sort.Slice(tms, func(i, j int) bool { return tms[i].RecvNs < tms[j].RecvNs })
		var s, prev int64
		for _, tm := range tms {
			from := tm.RecvNs
			if prev > from {
				from = prev
			}
			s += tm.SendNs - from
			prev = tm.SendNs
		}
		if s <= 0 {
			return 0, false
		}
		if float64(s) > worst {
			worst = float64(s)
		}
		rate += float64(len(tms)) / float64(s)
	}
	return worst / (float64(len(tiles)) / rate), true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayBudget is how long each replay loop runs (after a short warm-up);
// each reports the median over its repetitions.
const replayBudget = 100 * time.Millisecond

// replays holds the out-of-band timings of each layer's public
// functions on the workload's exact tile shapes and captured payloads.
type replays struct {
	frontUs    map[string]float64 // per Front block, µs per tile
	boundaryUs float64            // clipped ReLU, µs per tile
	backUs     map[string]float64 // per Back block ("head" for the head layers), µs per image
	backFwdUs  float64            // whole Back.Forward, µs per image
	frontAlloc float64            // allocations per tile through Front+boundary
	encodeUs   float64            // codec encode, µs per payload
	decodeUs   float64            // codec decode, µs per payload
	codecRatio float64            // payload bytes over float32 bytes
	extractUs  float64            // fdsp.ExtractTile over an image, µs
	reassemUs  float64            // fdsp.Reassemble over an image, µs
}

// repeat calls fn (which returns the ns it measured) for replayBudget
// after three warm-up calls and returns the median in µs.
func repeat(fn func() int64) float64 {
	for i := 0; i < 3; i++ {
		fn()
	}
	var xs []float64
	for start := time.Now(); time.Since(start) < replayBudget || len(xs) < 5; {
		xs = append(xs, us(fn()))
	}
	return median(xs)
}

// blockName strips the model prefix from a block's label.
func blockName(m *models.Model, l nn.Layer) string {
	return strings.TrimPrefix(l.Name(), m.Cfg.Name+".")
}

// replayLayers times each layer's public calls on input x (the first
// generated image) as the live path runs them: Front block by block on
// every tile — int8 workloads enter through the levels path the Conv node
// uses — then the clipped ReLU, the codec on captured result payloads,
// and Back block by block on the reassembled boundary output.
func replayLayers(m *models.Model, x *tensor.Tensor, captured [][]byte, rec *recorder) (replays, error) {
	r := replays{frontUs: map[string]float64{}, backUs: map[string]float64{}}
	g := m.Opt.Grid
	layout := g.Layout(x.Shape[2], x.Shape[3])
	tiles := make([]*tensor.Tensor, len(layout))
	levels := make([]*core.QuantTile, len(layout))
	levelsEntry := m.Opt.Int8 && m.Int8InputOK()
	for i, tl := range layout {
		tiles[i] = fdsp.ExtractTile(x, tl)
		if levelsEntry {
			mn, mx := tensor.MinMax(tiles[i].Data)
			af, err := quant.AffineFor(mn, mx)
			if err != nil {
				return r, fmt.Errorf("replay: tile affine: %w", err)
			}
			levels[i] = new(core.QuantTile)
			if err := core.DecodeQuantTensorInto(levels[i], core.AppendQuantTensor(nil, tiles[i], af)); err != nil {
				return r, fmt.Errorf("replay: quantized tile: %w", err)
			}
		}
	}
	// block runs Front block b on tile i's current activation.
	block := func(b, i int, cur *tensor.Tensor) *tensor.Tensor {
		layer := m.Front.Layers[b]
		if b == 0 && levelsEntry {
			seq := layer.(*nn.Sequential)
			conv := seq.Layers[0].(*nn.Conv2D)
			q := levels[i]
			h, w := q.Shape[2], q.Shape[3]
			oh, ow := conv.Geom.OutSize(h, w)
			out := tensor.New(1, conv.OutC, oh, ow)
			conv.ForwardLevelsInto(out, q.Levels, h, w, q.Affine)
			for _, l := range seq.Layers[1:] {
				out = l.Forward(out, false)
			}
			return out
		}
		return layer.Forward(cur, false)
	}
	clip := m.Boundary.Layers[0]
	timed := func(name string, f func()) int64 {
		t0 := time.Now()
		f()
		t1 := time.Now()
		rec.add(name, 0, -1, t0, t1)
		return int64(t1.Sub(t0))
	}

	// Front, one block at a time: the input of block b is the replayed
	// output of block b-1 on the same tile.
	acts := append([]*tensor.Tensor(nil), tiles...)
	for b, layer := range m.Front.Layers {
		name := blockName(m, layer)
		in := acts
		next := make([]*tensor.Tensor, len(tiles))
		perTile := repeat(func() int64 {
			return timed("replay.front."+name, func() {
				for i := range in {
					next[i] = block(b, i, in[i])
				}
			})
		})
		r.frontUs[name] = perTile / float64(len(tiles))
		acts = next
	}
	outs := make([]*tensor.Tensor, len(tiles))
	r.boundaryUs = repeat(func() int64 {
		return timed("replay.boundary", func() {
			for i := range acts {
				outs[i] = clip.Forward(acts[i], false)
			}
		})
	}) / float64(len(tiles))

	// Allocations per tile through Front+boundary, counted over a fixed
	// number of passes with the deployment already stopped.
	const allocPasses = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for p := 0; p < allocPasses; p++ {
		for i := range tiles {
			cur := tiles[i]
			for b := range m.Front.Layers {
				cur = block(b, i, cur)
			}
			clip.Forward(cur, false)
		}
	}
	runtime.ReadMemStats(&ms1)
	r.frontAlloc = float64(ms1.Mallocs-ms0.Mallocs) / float64(allocPasses*len(tiles))

	// Codec on the captured result payloads.
	if len(captured) == 0 {
		return r, fmt.Errorf("replay: no result payloads captured")
	}
	p := compress.NewPipeline(m.Opt.QuantBits, m.Opt.ClipHi-m.Opt.ClipLo)
	dec := make([]*tensor.Tensor, len(captured))
	var payloadBytes, rawBytes int
	for i, c := range captured {
		dec[i] = new(tensor.Tensor)
		if err := compress.DecodeInto(dec[i], c); err != nil {
			return r, fmt.Errorf("replay: captured payload %d: %w", i, err)
		}
		payloadBytes += len(c)
		rawBytes += compress.RawSize(dec[i])
	}
	r.codecRatio = ratio(float64(payloadBytes), float64(rawBytes))
	r.decodeUs = repeat(func() int64 {
		return timed("replay.codec_decode", func() {
			for i, c := range captured {
				_ = compress.DecodeInto(dec[i], c) // decoded once above without error
			}
		})
	}) / float64(len(captured))
	var buf []byte
	var encErr error
	r.encodeUs = repeat(func() int64 {
		return timed("replay.codec_encode", func() {
			for _, t := range dec {
				buf, encErr = p.EncodeInto(buf[:0], t)
			}
		})
	}) / float64(len(captured))
	if encErr != nil {
		return r, fmt.Errorf("replay: encode: %w", encErr)
	}

	// FDSP partition and reassembly of one image.
	r.extractUs = repeat(func() int64 {
		return timed("replay.fdsp_extract", func() {
			for _, tl := range layout {
				tensor.PutTensor(fdsp.ExtractTile(x, tl))
			}
		})
	})
	// The Central reassembles decoded codec payloads: round-trip the
	// replayed boundary outputs through the codec first.
	for i, o := range outs {
		enc, err := p.Encode(o)
		if err != nil {
			return r, fmt.Errorf("replay: encode tile %d: %w", i, err)
		}
		if outs[i], err = compress.Decode(enc); err != nil {
			return r, fmt.Errorf("replay: decode tile %d: %w", i, err)
		}
	}
	var merged *tensor.Tensor
	r.reassemUs = repeat(func() int64 {
		return timed("replay.fdsp_reassemble", func() { merged = fdsp.Reassemble(outs, g) })
	})

	// Back, whole and block by block; layers outside a block form the head.
	r.backFwdUs = repeat(func() int64 {
		in := merged.Clone()
		return timed("replay.back", func() { m.Back.Forward(in, false) })
	})
	cur := merged
	for _, layer := range m.Back.Layers {
		name := "head"
		if _, ok := layer.(*nn.Sequential); ok {
			name = blockName(m, layer)
		}
		in := cur
		var out *tensor.Tensor
		r.backUs[name] += repeat(func() int64 {
			x := in.Clone()
			return timed("replay.back."+name, func() { out = layer.Forward(x, false) })
		})
		cur = out
	}
	return r, nil
}
