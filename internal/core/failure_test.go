package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adcnn/internal/fdsp"
	"adcnn/internal/models"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

// TestRuntimeSurvivesWorkerDeath kills one Conv node mid-stream; the
// Central node must mark it dead, re-route its tiles to the survivors,
// and keep producing correct outputs ("this scheme naturally handles the
// Conv node failure", Section 6.3).
func TestRuntimeSurvivesWorkerDeath(t *testing.T) {
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 4, Cols: 4}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	conns := make([]Conn, workers)
	workerSides := make([]Conn, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		a, b := Pipe()
		conns[i] = a
		workerSides[i] = b
		w := NewWorker(i+1, m)
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Serve(context.Background(), b) }()
	}
	c, err := NewCentral(m, conns, 5*time.Second, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Shutdown(); wg.Wait() }()

	rng := rand.New(rand.NewSource(9))
	x := tensor.New(1, 3, 32, 32)
	x.RandN(rng, 1)
	want := m.Net.Forward(x, false)

	// Healthy inference first.
	out, st, err := c.Infer(x)
	if err != nil || !out.Equal(want, 1e-4) {
		t.Fatalf("healthy inference failed: %v", err)
	}
	if st.Alloc[1] == 0 {
		t.Fatal("node 2 should have had work before dying")
	}

	// Kill node 2 by closing its connection.
	conns[1].Close()

	// The image right after the death may lose tiles to the zero-fill
	// deadline (the node died holding work); after that, allocation must
	// avoid the dead node entirely and outputs must be exact again.
	deadlineMisses := 0
	for i := 0; i < 4; i++ {
		out, st, err := c.Infer(x)
		if err != nil {
			t.Fatalf("inference %d after death: %v", i, err)
		}
		if st.Alloc[1] != 0 && i > 0 {
			t.Fatalf("inference %d still assigned tiles to the dead node: %v", i, st.Alloc)
		}
		if st.TilesMissed > 0 {
			deadlineMisses++
			continue
		}
		if !out.Equal(want, 1e-4) {
			t.Fatalf("inference %d after death diverged", i)
		}
	}
	if deadlineMisses > 1 {
		t.Fatalf("only the transition image may miss tiles, got %d misses", deadlineMisses)
	}
}

// TestRuntimeAllWorkersDead verifies a clean error when no node is left.
func TestRuntimeAllWorkersDead(t *testing.T) {
	cfg := models.VGGSim()
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	m, err := models.Build(cfg, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pipe()
	_ = b
	c, err := NewCentral(m, []Conn{a}, 100*time.Millisecond, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	x := tensor.New(1, 3, 32, 32)
	if _, _, err := c.Infer(x); err == nil {
		t.Fatal("inference with every node dead must error")
	}
}

// TestCentralRejectsWrongShapedResult serves a VGG16-sim Central from a
// Conv node running ResNet-sim: every result decodes cleanly but has
// the wrong shape for the Central's back layers. The Central must treat
// each such result like an undecodable one — record a decode-error and
// zero-fill the tile at T_L — instead of panicking in Back.Forward.
func TestCentralRejectsWrongShapedResult(t *testing.T) {
	opt := models.Options{Grid: fdsp.Grid{Rows: 2, Cols: 2}}
	central, err := models.Build(models.VGGSim(), opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	other, err := models.Build(models.ResNetSim(), opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pipe()
	w := NewWorker(1, other)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Serve(context.Background(), b) }()
	c, err := NewCentral(central, []Conn{a}, 200*time.Millisecond, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	flight := telemetry.NewFlightRecorder(0)
	c.SetFlightRecorder(flight)
	defer func() { c.Shutdown(); wg.Wait() }()

	x := tensor.New(1, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(3)), 1)
	_, st, err := c.Infer(x)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if tiles := opt.Grid.Tiles(); st.TilesMissed != tiles {
		t.Fatalf("TilesMissed = %d, want all %d tiles (every result has the wrong shape)", st.TilesMissed, tiles)
	}
	found := false
	for _, ev := range flight.Events() {
		if ev.Kind == "decode-error" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("flight ring holds no decode-error event for the wrong-shaped results")
	}
}
