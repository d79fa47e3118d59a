package experiments

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adcnn/internal/core"
	"adcnn/internal/models"
)

// loopbackPool is a set of Conv nodes on loopback TCP that a harness
// owns end to end: every live TCP experiment (the chaos drills, the
// cluster bench) starts its Conv nodes here. Each node is one Worker
// behind a NodeServer and a real listener, so crashing a node is
// closing its socket, not flipping a flag.
type loopbackPool struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // every accept loop and session goroutine
	nodes  []*loopbackNode
}

// startLoopbackPool starts n nodes serving m, each taking delay of
// simulated device time per tile.
func startLoopbackPool(m *models.Model, n int, delay time.Duration) (*loopbackPool, error) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &loopbackPool{ctx: ctx, cancel: cancel}
	for k := 0; k < n; k++ {
		w := core.NewWorker(k+1, m)
		w.Delay = delay
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.stop()
			return nil, err
		}
		node := &loopbackNode{
			idx: k, addr: ln.Addr().String(), pool: p, w: w,
			ns:    core.NewNodeServer(w, 0),
			conns: make(map[net.Conn]struct{}),
		}
		p.nodes = append(p.nodes, node)
		node.serve(ln)
	}
	return p, nil
}

// central dials every node once and builds a Central over the
// connections. On any failure it closes the connections it already
// opened, so a failed set-up leaves no session behind on the nodes.
func (p *loopbackPool) central(m *models.Model, tl time.Duration) (*core.Central, error) {
	conns := make([]core.Conn, 0, len(p.nodes))
	fail := func(err error) (*core.Central, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	for _, n := range p.nodes {
		c, err := n.dial(p.ctx)
		if err != nil {
			return fail(err)
		}
		conns = append(conns, c)
	}
	c, err := core.NewCentral(m, conns, tl, 0.9)
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// stop closes every listener and server-side connection and waits for
// every accept loop and session goroutine to return.
func (p *loopbackPool) stop() {
	p.cancel()
	for _, n := range p.nodes {
		n.crash()
	}
	p.wg.Wait()
}

// loopbackNode is one Conv node of a pool: its worker, its NodeServer,
// its TCP listener, and a rate cap its server-side connections enforce
// in both directions.
type loopbackNode struct {
	idx  int
	addr string
	pool *loopbackPool
	w    *core.Worker
	ns   *core.NodeServer
	rate atomic.Int64 // bytes/sec cap; 0 = unthrottled

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
}

// serve installs ln and runs its accept loop until the listener closes.
func (n *loopbackNode) serve(ln net.Listener) {
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	wg := &n.pool.wg
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			n.mu.Lock()
			n.conns[raw] = struct{}{}
			n.mu.Unlock()
			wg.Add(1)
			go func(raw net.Conn) {
				defer wg.Done()
				_ = n.ns.ServeConn(n.pool.ctx, core.NewStreamConn(&throttledConn{Conn: raw, rate: &n.rate}))
				raw.Close()
				n.mu.Lock()
				delete(n.conns, raw)
				n.mu.Unlock()
			}(raw)
		}
	}()
}

// dial opens a fresh Central-side connection; it doubles as the
// session's reconnect dialer, so a restarted node is found at the same
// address.
func (n *loopbackNode) dial(ctx context.Context) (core.Conn, error) {
	d := net.Dialer{Timeout: time.Second}
	raw, err := d.DialContext(ctx, "tcp", n.addr)
	if err != nil {
		return nil, err
	}
	return core.NewStreamConn(raw), nil
}

// crash closes the listener and every live server-side connection,
// keeping the address so restart revives the node in place.
func (n *loopbackNode) crash() {
	n.mu.Lock()
	ln := n.ln
	n.ln = nil
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// restart re-binds the node's original address (retrying briefly in
// case the old socket lingers) and resumes accepting.
func (n *loopbackNode) restart() error {
	var err error
	for i := 0; i < 50; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			n.serve(ln)
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return err
}

// throttleChunk is the transfer granularity of a throttled connection:
// small enough that a collapsed link stays smooth at the drill's rates,
// large enough that the per-chunk sleep dominates syscall cost.
const throttleChunk = 512

// throttledConn enforces a bytes/sec cap on both directions of a
// server-side connection by sleeping after each chunk of I/O — reads
// model a collapsed uplink (Central→node tasks), writes a collapsed
// downlink (node→Central results). rate 0 passes through untouched.
type throttledConn struct {
	net.Conn
	rate *atomic.Int64
}

func (t *throttledConn) Read(p []byte) (int, error) {
	r := t.rate.Load()
	if r <= 0 {
		return t.Conn.Read(p)
	}
	if len(p) > throttleChunk {
		p = p[:throttleChunk]
	}
	n, err := t.Conn.Read(p)
	if n > 0 {
		time.Sleep(time.Duration(float64(n) / float64(r) * float64(time.Second)))
	}
	return n, err
}

func (t *throttledConn) Write(p []byte) (int, error) {
	var total int
	for len(p) > 0 {
		r := t.rate.Load()
		if r <= 0 {
			n, err := t.Conn.Write(p)
			return total + n, err
		}
		c := p
		if len(c) > throttleChunk {
			c = c[:throttleChunk]
		}
		n, err := t.Conn.Write(c)
		total += n
		if n > 0 {
			time.Sleep(time.Duration(float64(n) / float64(r) * float64(time.Second)))
		}
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}
