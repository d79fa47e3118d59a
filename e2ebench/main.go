// Command e2ebench is the end-to-end benchmark of the live ADCNN runtime:
// a frame enters the Central, its FDSP tiles run on two Conv nodes, and
// the boundary codec ships the results back. It drives the runtime only
// through its public calls and checks every output against the
// single-machine model.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload frame-latency --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload with the benchmark's spans on and prints the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when any output is wrong or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// setupRuns set-up-only deployments start every run, so setup_s, the
// median over every set-up in the run, always has several samples.
const setupRuns = 5

// sliceImages is the size of one measured slice. A run measures slice
// after slice, each on a fresh deployment, until --seconds of measuring
// is used up; every end-to-end metric but setup_s is the median over the
// slices, so host noise that hits less than half of a run does not move
// the result. 1,000 images leave ten beyond each slice's p99.
const sliceImages = 1000

// warmup runs untimed before measuring, so pools fill, the scheduler's
// speed estimates settle and the heap reaches its steady size.
const warmup = 250 * time.Millisecond

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // printed beside the value, e.g. the sample count
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	writeHeader(stdout, w, *seed, *trace == 1)
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		tracePath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		res, err = runTraced(w, *seed, d, tracePath, stdout)
	} else {
		res, err = runE2E(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintf(stderr, "e2ebench: %s: %d of %d images wrong or failed\n", w.name, res.failed, res.attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// writeHeader records what the numbers depend on, so results from other
// hosts or configurations are never compared by mistake.
func writeHeader(out io.Writer, w workload, seed int64, traced bool) {
	h := telemetry.HostInfo()
	fmt.Fprintf(out, "# e2ebench workload=%s seed=%d traced=%v\n", w.name, seed, traced)
	fmt.Fprintf(out, "# go=%s %s/%s goamd64=%s gomaxprocs=%d numcpu=%d\n",
		h.GoVersion, h.GOOS, h.GOARCH, h.GOAMD64, runtime.GOMAXPROCS(0), h.NumCPU)
	fmt.Fprintf(out, "# kernel_tier=%s cpu_features=%s\n", tensor.DetectedKernelTier(), h.CPUFeatures)
	fmt.Fprintf(out, "# params %s\n", w.describe())
}

// writeResult prints every metric by name and unit, then the JSON line.
func writeResult(out io.Writer, res result) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		ms[m.name] = val{v, m.unit}
		fmt.Fprintf(out, "%-34s %14.6g %-6s %s\n", m.name, v, m.unit, m.note)
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// setUp starts one deployment and drives its first image through the
// oracle check; the returned duration is the set-up time.
func setUp(w workload, o *oracle, rec *recorder) (*loadGen, time.Duration, error) {
	t0 := time.Now()
	cl, err := startCluster(w, rec)
	if err != nil {
		return nil, 0, err
	}
	g := &loadGen{cl: cl, o: o, rec: rec}
	if err := g.first(); err != nil {
		cl.stop()
		return nil, 0, err
	}
	return g, time.Since(t0), nil
}

// runE2E measures closed-loop slices on fresh deployments, with the
// benchmark's tracing off, until d of measuring is used up; a slice
// starts only while the previous slice's length still fits.
func runE2E(w workload, seed int64, d time.Duration) (result, error) {
	o, err := newOracle(w, seed)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	setUpTimed := func() (*loadGen, error) {
		g, took, err := setUp(w, o, nil)
		if err == nil {
			setups = append(setups, took.Seconds())
		}
		return g, err
	}
	for i := 0; i < setupRuns; i++ {
		g, err := setUpTimed()
		if err != nil {
			return result{}, err
		}
		g.cl.stop()
	}
	var wins []window
	var measured time.Duration
	for len(wins) == 0 || measured+wins[len(wins)-1].wall <= d {
		g, err := setUpTimed()
		if err != nil {
			return result{}, err
		}
		g.run(warmup, 0, nil)
		win := g.run(d-measured, sliceImages, nil)
		g.cl.stop()
		if win.verified() == 0 {
			return result{}, fmt.Errorf("a slice completed no image")
		}
		wins = append(wins, win)
		measured += win.wall
	}

	var res result
	var counts []int
	for _, win := range wins {
		res.attempted += win.attempted
		res.failed += win.failed
		counts = append(counts, len(win.latMs))
	}
	res.correct = res.failed == 0
	per := func(f func(w window, n float64) float64) float64 {
		xs := make([]float64, len(wins))
		for i, w := range wins {
			xs[i] = f(w, float64(w.verified()))
		}
		return median(xs)
	}
	note := fmt.Sprintf("(median of %d slices, n=%v)", len(wins), counts)
	res.metrics = []metric{
		{"setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups))},
		{"latency_p50_ms", "ms", per(func(w window, _ float64) float64 { return quantile(w.latMs, 0.5) }), note},
		{"latency_p99_ms", "ms", per(func(w window, _ float64) float64 { return quantile(w.latMs, 0.99) }), note},
		{"throughput_ips", "1/s", per(func(w window, n float64) float64 { return n / w.wall.Seconds() }), note},
		{"cpu_ms_per_image", "ms", per(func(w window, n float64) float64 { return ms(w.cpu) / n }), note},
		{"allocs_per_image", "count", per(func(w window, n float64) float64 { return float64(w.mallocs) / n }), note},
		{"alloc_kb_per_image", "KiB", per(func(w window, n float64) float64 { return float64(w.bytes) / 1024 / n }), note},
		{"heap_peak_mb", "MiB", per(func(w window, _ float64) float64 { return float64(w.heapPeak) / (1 << 20) }), note},
		{"wire_kb_per_image", "KiB", per(func(w window, n float64) float64 { return float64(w.up+w.down) / 1024 / n }), note},
	}
	return res, nil
}
