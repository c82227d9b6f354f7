package main

// Tracing from outside the program. Every span is recorded by a wrapper
// around a public interface (backend.Backend, stopping.Rule, core.RowSink,
// service.WorkerAPI, http.Handler) or around a direct call to a public
// function; nothing inside the program is instrumented. The wrappers forward
// every optional interface the program probes for, so a traced campaign
// produces exactly the bytes an untraced one does (perfbench_test.go checks
// this on every workload).
//
// Spans are folded as they close: each layer keeps a call count and a
// duration sum, and the top-level spans of the current op keep their
// intervals so that the op's own self time is its duration minus the union
// of those intervals. The per-op folds are kept in memory and written as
// JSON lines when the benchmark exits.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sharp/internal/backend"
	"sharp/internal/record"
	"sharp/internal/service"
	"sharp/internal/stopping"
)

// layer accumulates the spans of one layer: how many, and their summed
// duration in nanoseconds.
type layer struct {
	n, ns atomic.Int64
}

func (l *layer) add(d int64) {
	l.n.Add(1)
	l.ns.Add(d)
}

// interval is one top-level span of the current op, in tracer nanoseconds.
type interval struct{ start, end int64 }

// tracer owns the layers of one traced phase.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	layers map[string]*layer
	counts map[string]*atomic.Int64
	top    []interval // top-level spans of the op in progress
	ops    []opSpan   // folded spans of finished ops

	hook atomic.Pointer[eventHook]
}

// opSpan is one finished op with its layers folded: the line format of the
// trace file.
type opSpan struct {
	Op      int                 `json:"op"`
	StartNS int64               `json:"start_ns"`
	DurNS   int64               `json:"dur_ns"`
	SelfNS  int64               `json:"self_ns"`
	Units   int                 `json:"units"`
	Layers  map[string][2]int64 `json:"layers"` // name -> [spans, ns]
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: map[string]*layer{}, counts: map[string]*atomic.Int64{}}
}

// now is the tracer clock: monotonic nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// layer returns the named layer, creating it on first use.
func (t *tracer) layer(name string) *layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.layers[name]
	if !ok {
		l = &layer{}
		t.layers[name] = l
	}
	return l
}

// count returns the named event counter, creating it on first use.
func (t *tracer) count(name string) *atomic.Int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counts[name]
	if !ok {
		c = &atomic.Int64{}
		t.counts[name] = c
	}
	return c
}

// get reads a layer's totals without creating it.
func (t *tracer) get(name string) (n, ns int64) {
	t.mu.Lock()
	l := t.layers[name]
	t.mu.Unlock()
	if l == nil {
		return 0, 0
	}
	return l.n.Load(), l.ns.Load()
}

// topSpan records a top-level span of the current op.
func (t *tracer) topSpan(l *layer, start, end int64) {
	l.add(end - start)
	t.mu.Lock()
	t.top = append(t.top, interval{start, end})
	t.mu.Unlock()
}

// covered is the length the top-level spans of the current op cover.
func (t *tracer) covered() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return union(t.top)
}

// layersSnapshot lists every layer.
func (t *tracer) layersSnapshot() []*layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*layer, 0, len(t.layers))
	for _, l := range t.layers {
		out = append(out, l)
	}
	return out
}

// countsSnapshot lists every event counter.
func (t *tracer) countsSnapshot() []*atomic.Int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*atomic.Int64, 0, len(t.counts))
	for _, c := range t.counts {
		out = append(out, c)
	}
	return out
}

// snapshot copies every layer's totals.
func (t *tracer) snapshot() map[string][2]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][2]int64, len(t.layers))
	for name, l := range t.layers {
		out[name] = [2]int64{l.n.Load(), l.ns.Load()}
	}
	return out
}

// beginOp starts folding a new op and returns its start time.
func (t *tracer) beginOp() int64 {
	t.mu.Lock()
	t.top = t.top[:0]
	t.mu.Unlock()
	return t.now()
}

// endOp folds the finished op: its duration, the layers' growth during it,
// and its self time (duration minus the union of its top-level spans).
func (t *tracer) endOp(op int, start int64, before map[string][2]int64, units int) {
	end := t.now()
	after := t.snapshot()
	t.mu.Lock()
	covered := union(t.top)
	t.mu.Unlock()
	s := opSpan{Op: op, StartNS: start, DurNS: end - start, SelfNS: end - start - covered,
		Units: units, Layers: map[string][2]int64{}}
	for name, v := range after {
		if d := [2]int64{v[0] - before[name][0], v[1] - before[name][1]}; d[0] != 0 {
			s.Layers[name] = d
		}
	}
	t.mu.Lock()
	t.ops = append(t.ops, s)
	t.mu.Unlock()
}

// union returns the total length covered by the intervals. It sorts them in
// place.
func union(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if !open || v.start > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v.start, v.end, true
			continue
		}
		if v.end > curE {
			curE = v.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeOps writes the folded op spans as JSON lines.
func (t *tracer) writeOps(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	ops := t.ops
	t.mu.Unlock()
	for _, s := range ops {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			opSpan
		}{workload, s}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Emit implements obs.Tracer: it hands each event to the workload's hook.
func (t *tracer) Emit(typ string, fields map[string]any) {
	if h := t.hook.Load(); h != nil {
		(*h)(t.now(), typ, fields)
	}
}

// eventHook receives selected obs events with their tracer timestamp.
type eventHook func(at int64, typ string, fields map[string]any)

// setHook installs the event hook (nil removes it).
func (t *tracer) setHook(h eventHook) {
	if h == nil {
		t.hook.Store(nil)
		return
	}
	t.hook.Store(&h)
}

// --- backend.Backend ---

// timedBackend times Invoke on the backend it wraps. Unwrap keeps the
// decorator chain visible to backend.Unwrap, SetRunOrdered, SetTracer and
// SkipRuns, so the program sees the same chain it would without the timer.
type timedBackend struct {
	inner backend.Backend
	tr    *tracer
	l     *layer
	top   bool // the outermost layer: its spans are the op's children
}

func (b *timedBackend) Name() string            { return b.inner.Name() }
func (b *timedBackend) Close() error            { return b.inner.Close() }
func (b *timedBackend) Unwrap() backend.Backend { return b.inner }
func (b *timedBackend) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	start := b.tr.now()
	invs, err := b.inner.Invoke(ctx, req)
	end := b.tr.now()
	if b.top {
		b.tr.topSpan(b.l, start, end)
	} else {
		b.l.add(end - start)
	}
	return invs, err
}

// --- stopping.Rule ---

// timedRule times Add and counts convergence checks. It forwards Bounds
// (read by the parallel engine), LastEval (stopping.Evaluated), Samples and
// Progress (stopping.Progressor).
type timedRule struct {
	inner stopping.Rule
	tr    *tracer
	add   *layer
	evals *atomic.Int64
}

func (r *timedRule) Name() string    { return r.inner.Name() }
func (r *timedRule) Done() bool      { return r.inner.Done() }
func (r *timedRule) N() int          { return r.inner.N() }
func (r *timedRule) Explain() string { return r.inner.Explain() }
func (r *timedRule) Add(x float64) {
	start := r.tr.now()
	r.inner.Add(x)
	r.tr.topSpan(r.add, start, r.tr.now())
	if ev, ok := r.inner.(stopping.Evaluated); ok {
		if last, has := ev.LastEval(); has && last.N == r.inner.N() {
			r.evals.Add(1)
		}
	}
}
func (r *timedRule) Bounds() stopping.Bounds {
	return r.inner.(interface{ Bounds() stopping.Bounds }).Bounds()
}
func (r *timedRule) LastEval() (stopping.Eval, bool) {
	return r.inner.(stopping.Evaluated).LastEval()
}
func (r *timedRule) Samples() []float64 {
	return r.inner.(interface{ Samples() []float64 }).Samples()
}
func (r *timedRule) Progress() stopping.Progress {
	return r.inner.(stopping.Progressor).Progress()
}

// --- core.RowSink ---

// timedSink times every row written to the campaign log.
type timedSink struct {
	inner *record.Writer
	tr    *tracer
	l     *layer
}

func (s *timedSink) Write(r record.Row) error {
	start := s.tr.now()
	err := s.inner.Write(r)
	s.tr.topSpan(s.l, start, s.tr.now())
	return err
}

// --- service.WorkerAPI ---

// timedWorkerAPI times each lease-protocol call a worker makes and keeps
// the per-lease bookkeeping the service metrics need.
type timedWorkerAPI struct {
	inner                                  service.WorkerAPI
	tr                                     *tracer
	lease, emptyLease, complete, heartbeat *layer
	leasedRuns                             *atomic.Int64
	// compute accumulates, per lease, the time from the lease returning to
	// its last Complete returning, minus the Complete round trips.
	compute *layer
	// idle accumulates the time from an empty lease returning to the
	// worker's next Lease call: the worker's poll sleep.
	idle      *layer
	lastEmpty int64 // touched only by the worker's polling goroutine

	mu     sync.Mutex
	leases map[string]*leaseClock
}

type leaseClock struct {
	granted, lastDone, completeNS int64
	left                          int
}

func (w *timedWorkerAPI) Lease(ctx context.Context, workerID string) (*service.Lease, error) {
	start := w.tr.now()
	if w.lastEmpty != 0 {
		w.idle.add(start - w.lastEmpty)
		w.lastEmpty = 0
	}
	l, err := w.inner.Lease(ctx, workerID)
	end := w.tr.now()
	if err != nil || l == nil {
		w.emptyLease.add(end - start)
		w.lastEmpty = end
		return l, err
	}
	w.lease.add(end - start)
	w.leasedRuns.Add(int64(len(l.Runs)))
	w.mu.Lock()
	w.leases[l.ID] = &leaseClock{granted: end, left: len(l.Runs)}
	w.mu.Unlock()
	return l, nil
}

func (w *timedWorkerAPI) Heartbeat(ctx context.Context, leaseID string, token uint64) error {
	start := w.tr.now()
	err := w.inner.Heartbeat(ctx, leaseID, token)
	w.heartbeat.add(w.tr.now() - start)
	return err
}

func (w *timedWorkerAPI) Complete(ctx context.Context, leaseID string, token uint64, res service.RunResult) error {
	start := w.tr.now()
	err := w.inner.Complete(ctx, leaseID, token, res)
	end := w.tr.now()
	w.complete.add(end - start)
	w.mu.Lock()
	if lc := w.leases[leaseID]; lc != nil {
		lc.completeNS += end - start
		lc.lastDone = end
		if lc.left--; lc.left == 0 || err != nil {
			w.compute.add(lc.lastDone - lc.granted - lc.completeNS)
			delete(w.leases, leaseID)
		}
	}
	w.mu.Unlock()
	return err
}

// --- http.Handler ---

// timedHandler times each request by route and counts the bytes that cross
// the wire in both directions.
type timedHandler struct {
	inner  http.Handler
	tr     *tracer
	routes map[string]*layer
	bytes  *atomic.Int64
}

// route names a request by the coordinator endpoint it hits.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/lease":
		return "lease"
	case p == "/campaigns":
		return "submit"
	case len(p) > len("/heartbeat") && p[len(p)-len("/heartbeat"):] == "/heartbeat":
		return "heartbeat"
	case len(p) > len("/complete") && p[len(p)-len("/complete"):] == "/complete":
		return "complete"
	}
	return "other"
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := h.routes[route(r)]
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	start := h.tr.now()
	h.inner.ServeHTTP(cw, r)
	l.add(h.tr.now() - start)
	h.bytes.Add(body.n + cw.n)
}

// --- helpers ---

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
