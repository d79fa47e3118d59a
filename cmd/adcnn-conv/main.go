// Command adcnn-conv runs one ADCNN Conv node: it listens on a TCP port,
// builds the (deterministically seeded) model whose separable blocks it
// executes, optionally loads retrained weights, and serves tile tasks
// until the Central node shuts it down.
//
// Usage:
//
//	adcnn-conv -listen :9001 -model vgg-sim -grid 4x4 -weights front.bin
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adcnn/internal/cliutil"
	"adcnn/internal/compress"
	"adcnn/internal/core"
	"adcnn/internal/telemetry"
	"adcnn/internal/tensor"
)

func main() {
	listen := flag.String("listen", ":9001", "TCP listen address")
	id := flag.Int("id", 1, "node ID")
	queue := flag.Int("session-queue", 0, "per-session bounded compute queue depth (0 = default)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :9091)")
	op := cliutil.RegisterOperatingPoint(flag.CommandLine)
	lf := cliutil.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	logger := cliutil.MustLogger(lf, "adcnn-conv")
	die := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	m, err := op.Build(logger)
	if err != nil {
		die("build model", "err", err)
	}

	// One worker, one NodeServer: every Central that connects gets an
	// independent session (own epoch, timing buffers, bounded compute
	// queue) while sharing the node's one simulated device, so N
	// replicas see the node's real capacity split between them.
	w := core.NewWorker(*id, m)
	ns := core.NewNodeServer(w, *queue)

	// Probe semantics: /healthz is pure liveness ("the process is up and
	// its model built") and always passes once we are serving — a Conv
	// node with no Central attached is idle, not broken, so restarting
	// it would be wrong. /readyz is readiness ("send me traffic"): 503
	// until at least one session is attached — "≥ 1", not "exactly 1",
	// because a node serving several Central replicas is more ready, not
	// less — so an orchestrator can hold a rollout until the node is
	// actually doing work.
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		w.Metrics = core.NewMetrics(reg)
		compress.Instrument(reg)
		telemetry.RegisterBuildInfo(reg, "conv", tensor.DetectedKernelTier().String())
		ready := func() error {
			if ns.ActiveSessions() == 0 {
				return errors.New("not ready: weights loaded, no central session attached")
			}
			return nil
		}
		mux := telemetry.MuxChecks(reg, nil, ready)
		mux.Handle("/debug/worker", http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(rw)
			enc.SetIndent("", " ")
			_ = enc.Encode(ns.Sessions())
		}))
		_, bound, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			die("metrics server", "err", err)
		}
		logger.Info("debug endpoints up", "addr", bound.String(),
			"paths", "/metrics /healthz /readyz /debug/worker /debug/pprof")
	}

	// SIGINT/SIGTERM cancel the context, which closes every in-flight
	// connection and lets Serve return cleanly.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		die("listen", "addr", *listen, "err", err)
	}
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	logger.Info("conv node serving", "node", *id, "model", op.Model, "grid", op.Grid, "addr", ln.Addr().String())
	// Transient Accept failures (EMFILE, ECONNABORTED, momentary stack
	// hiccups) must not take the daemon down — every attached Central
	// session would die with it. Log, back off, retry; only shutdown
	// ends the loop.
	acceptBackoff := 10 * time.Millisecond
	const acceptBackoffMax = time.Second
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				logger.Info("shutting down", "node", *id)
				return
			}
			logger.Warn("accept failed, retrying", "node", *id, "err", err, "backoff", acceptBackoff)
			select {
			case <-time.After(acceptBackoff):
			case <-ctx.Done():
				logger.Info("shutting down", "node", *id)
				return
			}
			if acceptBackoff *= 2; acceptBackoff > acceptBackoffMax {
				acceptBackoff = acceptBackoffMax
			}
			continue
		}
		acceptBackoff = 10 * time.Millisecond
		logger.Info("central connected", "node", *id, "peer", conn.RemoteAddr().String(),
			"sessions", ns.ActiveSessions()+1)
		go func() {
			if err := ns.ServeConn(ctx, core.NewStreamConn(conn)); err != nil {
				logger.Warn("session ended", "node", *id, "err", err)
			}
		}()
	}
}
