package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"adcnn/internal/core"
)

// window is what one closed-loop measurement window observed.
type window struct {
	attempted, failed int
	latMs             []float64 // per verified image, submit → output returned
	wall              time.Duration
	cpu               time.Duration // process user+sys
	mallocs, bytes    uint64        // heap allocations and bytes allocated
	numGC             uint32
	gcPauseNs         uint64
	heapPeak          uint64 // bytes of live heap objects, sampled
	up, down, frames  int64  // Central-end wire counts
}

func (w *window) verified() int { return w.attempted - w.failed }

// loadGen is the benchmark's one load-generating goroutine state: the
// position in the input cycle and the running totals the wire check
// needs across windows.
type loadGen struct {
	cl   *cluster
	o    *oracle
	rec  *recorder
	next int
	// wireBytes sums InferStats.WireBytes over every image this
	// deployment completed.
	wireBytes int64
}

// inflight is one submitted image awaiting its Wait.
type inflight struct {
	h   *core.Inflight
	seq int       // image number within the run
	idx int       // input index
	t0  time.Time // submit called
	t1  time.Time // submit returned
}

// run drives a closed loop for d, or until limit images (0 = no limit)
// have been submitted: it keeps the workload's depth of images
// outstanding, Waits on the oldest, checks its output against the
// oracle, and submits the next. Images submitted before the end are all
// collected. acc, when non-nil, receives every image's statistics and
// the recorder's spans (traced windows only).
func (g *loadGen) run(d time.Duration, limit int, acc *layerAcc) window {
	var w window
	w.latMs = make([]float64, 0, 1<<14)
	depth := g.cl.w.depth
	q := make([]inflight, 0, depth)
	tracing := acc != nil
	if tracing {
		g.rec.on.Store(true)
		defer g.rec.on.Store(false)
	}

	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	up0, down0, fr0 := g.cl.wire.upBytes.Load(), g.cl.wire.downBytes.Load(), g.cl.wire.frames.Load()

	start := time.Now()
	deadline := start.Add(d)
	end := start
	for {
		for len(q) < depth && (limit == 0 || w.attempted < limit) && time.Now().Before(deadline) {
			seq := g.next
			idx := seq % len(g.o.inputs)
			g.next++
			w.attempted++
			t0 := time.Now()
			h, err := g.cl.submit(g.o.inputs[idx])
			if err != nil {
				w.failed++
				continue
			}
			q = append(q, inflight{h: h, seq: seq, idx: idx, t0: t0, t1: time.Now()})
		}
		if len(q) == 0 {
			break
		}
		f := q[0]
		q = q[:copy(q, q[1:])]
		tw := time.Now()
		out, st, err := f.h.Wait()
		tEnd := time.Now()
		end = tEnd
		g.wireBytes += st.WireBytes
		ok := err == nil && st.TilesMissed == 0 && g.o.check(f.idx, out)
		tCheck := time.Now()
		if !ok {
			w.failed++
		} else {
			w.latMs = append(w.latMs, ms(tEnd.Sub(f.t0)))
		}
		if tracing {
			g.rec.add(spanImage, 0, f.seq, f.t0, tEnd)
			g.rec.add(spanSubmit, 0, f.seq, f.t0, f.t1)
			g.rec.add(spanWait, 0, f.seq, tw, tEnd)
			g.rec.add(spanCheck, 0, f.seq, tEnd, tCheck)
			if err == nil {
				acc.observe(f, tw, tEnd, st)
			}
		}
	}
	w.wall = end.Sub(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	close(stopHeap)
	w.heapPeak = <-heapDone
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.numGC = ms1.NumGC - ms0.NumGC
	w.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	w.up = g.cl.wire.upBytes.Load() - up0
	w.down = g.cl.wire.downBytes.Load() - down0
	w.frames = g.cl.wire.frames.Load() - fr0
	return w
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampleEvery is the live-heap sampling period; runtime/metrics
// reads do not stop the world.
const heapSampleEvery = 2 * time.Millisecond

// sampleHeap tracks the peak of live heap object bytes until stop
// closes, then sends the peak on done.
func sampleHeap(stop <-chan struct{}, done chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	read()
	for {
		select {
		case <-t.C:
			read()
		case <-stop:
			read()
			done <- peak
			return
		}
	}
}

// first drives one image through the oracle check; set-up ends when it
// passes.
func (g *loadGen) first() error {
	idx := g.next % len(g.o.inputs)
	g.next++
	h, err := g.cl.submit(g.o.inputs[idx])
	if err != nil {
		return fmt.Errorf("first image: %w", err)
	}
	out, st, err := h.Wait()
	if err != nil {
		return fmt.Errorf("first image: %w", err)
	}
	g.wireBytes += st.WireBytes
	if st.TilesMissed != 0 || !g.o.check(idx, out) {
		return errors.New("first image: wrong output")
	}
	return nil
}
