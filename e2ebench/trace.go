package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Per image, spanImage is the root and spanSubmit, spanWait
// and spanCheck are its children; the send spans belong to the
// connection end that made the call; replay spans time one public call
// on a captured input.
const (
	spanImage       = "image"
	spanSubmit      = "central.submit"
	spanWait        = "central.wait"
	spanCheck       = "bench.check"
	spanCentralSend = "wire.central_send"
	spanWorkerSend  = "wire.worker_send"
)

// span is one timed call, in nanoseconds since the recorder's epoch.
type span struct {
	name       string
	tid, image int
	start, end int64
}

// maxSpans bounds the spans a run keeps for its trace file; the
// per-name totals behind the metrics count every span.
const maxSpans = 100_000

// recorder keeps spans in memory while on and writes them out at the
// end of the run. A nil recorder and an off recorder record nothing.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	totals map[string]*total
}

// total is the count and summed duration of every span of one name.
type total struct{ n, ns int64 }

func newRecorder() *recorder { return &recorder{epoch: time.Now(), totals: map[string]*total{}} }

func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) add(name string, tid, image int, start, end time.Time) {
	s := span{name: name, tid: tid, image: image,
		start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.totals[name]
	if t == nil {
		t = new(total)
		r.totals[name] = t
	}
	t.n++
	t.ns += s.end - s.start
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	}
}

// mean returns the mean duration of the spans called name, in µs.
func (r *recorder) mean(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.totals[name]
	if t == nil {
		return 0
	}
	return us(t.ns) / float64(t.n)
}

// writeChrome writes the spans as Chrome trace-event JSON. Image spans
// and their children share the image number in args; a child names its
// parent span there too.
func (r *recorder) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"otherData":`)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	fmt.Fprint(bw, `,"traceEvents":[`)
	r.mu.Lock()
	for i, s := range r.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		parent := ""
		if s.name == spanSubmit || s.name == spanWait || s.name == spanCheck {
			parent = spanImage
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"image":%d,"parent":%q}}`+"\n",
			s.name, s.tid, us(s.start), us(s.end-s.start), s.image, parent)
	}
	r.mu.Unlock()
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
