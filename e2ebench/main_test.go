package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsRunAndCheckIsLive runs a handful of images on every
// workload, then corrupts the reference outputs and requires the oracle
// check to reject every image.
func TestWorkloadsRunAndCheckIsLive(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o, err := newOracle(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := setUp(w, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer g.cl.stop()
			win := g.run(time.Second, 20, nil)
			if win.failed != 0 || win.verified() == 0 {
				t.Fatalf("clean run: %d of %d images failed", win.failed, win.attempted)
			}
			for i := range o.want {
				o.want[i].Data[0] += 1
				if o.int8 {
					o.wantQ[i].Data[0] += 1
				}
			}
			win = g.run(time.Second, 20, nil)
			if win.attempted == 0 || win.failed != win.attempted {
				t.Fatalf("corrupted references: only %d of %d images failed the check", win.failed, win.attempted)
			}
		})
	}
}

// TestPrintsDeclaredMetrics runs the command end to end and requires its
// last line to carry exactly the metrics BENCHMARK.json declares: the
// end-to-end set untraced, the per-layer set traced.
func TestPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload traced")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	// Traced runs write their spans under .bench_build/ relative to the
	// working directory; keep them in the test's temporary directory.
	wd, _ := os.Getwd()
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	check := func(args []string, want []string) {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line: %v", args, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("%v: correct=%v attempted=%d", args, res.Correct, res.Attempted)
		}
		var got []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%v: metrics\n got %v\nwant %v", args, got, want)
		}
	}
	check([]string{"--workload", "frame-latency", "--seed", "3", "--seconds", "0.5", "--trace", "0"}, declared(spec.EndToEnd))
	for _, w := range workloads {
		check([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.5", "--trace", "1"}, declared(spec.PerLayer))
	}
}
