package main

import (
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/core"
)

// maxCaptured bounds how many result payloads a traced run copies aside
// for the codec replays.
const maxCaptured = 64

// wireCounters aggregates what the taps of one deployment see. The
// counts are always on (two atomic adds per frame) because
// wire_kb_per_image is an end-to-end metric; timing spans and payload
// capture happen only while the recorder is on.
type wireCounters struct {
	rec *recorder

	// Central end: task payload bytes sent, result payload bytes
	// received, and frames either way.
	upBytes, downBytes, frames atomic.Int64
	// Worker ends: result payload bytes sent, which must equal downBytes.
	workerDownBytes atomic.Int64

	capture  atomic.Bool
	mu       sync.Mutex
	captured [][]byte
}

func newWireCounters(rec *recorder) *wireCounters { return &wireCounters{rec: rec} }

// tap wraps conn as the tid end of a connection: 0 for the Central's
// end, k+1 for Conv node k's.
func (wc *wireCounters) tap(conn core.Conn, tid int) core.Conn {
	return &tapConn{Conn: conn, wc: wc, tid: tid}
}

// tapConn is a pass-through core.Conn. It honours the Conn contract
// without copying on the data path: Send only borrows m (the wrapper
// reads the kind and length before forwarding), and Recv hands the
// message, with ownership of its payload, straight to the caller.
type tapConn struct {
	core.Conn
	wc  *wireCounters
	tid int
}

func (t *tapConn) Send(m *core.Message) error {
	kind, n := m.Kind, int64(len(m.Payload))
	rec := t.wc.rec
	tracing := rec.active()
	var t0 time.Time
	if tracing {
		t0 = time.Now()
	}
	err := t.Conn.Send(m)
	if err != nil {
		return err
	}
	if tracing {
		name := spanCentralSend
		if t.tid != 0 {
			name = spanWorkerSend
		}
		rec.add(name, t.tid, -1, t0, time.Now())
	}
	if t.tid == 0 {
		t.wc.frames.Add(1)
		if kind == core.KindTask {
			t.wc.upBytes.Add(n)
		}
	} else if kind == core.KindResult {
		t.wc.workerDownBytes.Add(n)
	}
	return nil
}

func (t *tapConn) Recv() (*core.Message, error) {
	m, err := t.Conn.Recv()
	if err != nil || t.tid != 0 {
		return m, err
	}
	t.wc.frames.Add(1)
	if m.Kind == core.KindResult {
		t.wc.downBytes.Add(int64(len(m.Payload)))
		if t.wc.capture.Load() {
			t.wc.keep(m.Payload)
		}
	}
	return m, nil
}

// keep copies a result payload aside for the codec replays (traced runs
// only, at most maxCaptured).
func (wc *wireCounters) keep(p []byte) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if len(wc.captured) < maxCaptured {
		wc.captured = append(wc.captured, append([]byte(nil), p...))
	}
}
