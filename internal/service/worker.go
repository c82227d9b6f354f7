package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sharp/internal/backend"
)

// WorkerAPI is the lease protocol from the worker's side. The Coordinator
// implements it directly (in-process workers, used by the differential and
// soak tests under -race) and the HTTP Client implements it over the wire
// (cmd/sharp-serve fleets) — same protocol, same semantics, one worker
// implementation for both.
type WorkerAPI interface {
	// Lease requests a batch of runs. With the queue empty it waits for
	// work (a long poll, bounded by the coordinator's JanitorInterval) and
	// only then answers ErrNoWork, so callers re-poll at once. ErrDraining
	// once the coordinator drains, closes or dies; ErrWorkerEvicted while
	// the worker's breaker is open.
	Lease(ctx context.Context, workerID string) (*Lease, error)
	// Heartbeat keeps a lease alive while its runs compute.
	Heartbeat(ctx context.Context, leaseID string, token uint64) error
	// Complete reports one finished run of a lease. An implementation may
	// hold the acknowledgement and deliver it later with the lease's other
	// runs (the HTTP Client sends one request per lease, on its last run or
	// at a heartbeat), so a nil error means "accepted for delivery": the
	// error of a held acknowledgement — ErrStaleLease, say — surfaces from
	// the Complete or Heartbeat call that sends it. Fencing makes holding
	// safe: acknowledgements that never arrive leave the lease to expire,
	// and its runs are recomputed byte-identically.
	Complete(ctx context.Context, leaseID string, token uint64, res RunResult) error
}

// ErrWorkerKilled reports a deliberate (test-injected) worker death.
var ErrWorkerKilled = errors.New("service: worker killed")

// Worker is a FaaS-style campaign worker: it polls for leases, rebuilds each
// campaign's deterministic backend from the spec riding in the lease, and
// computes the leased runs. Workers are stateless by construction — the
// backend cache is a pure performance optimization (run-ordered synthesis is
// index-addressed, so a cached stream and a fresh one produce the same
// bytes for any requested run) — which is what makes worker death free:
// nothing is lost that a colleague can't recompute.
type Worker struct {
	// ID names the worker in leases, breaker state, and metrics.
	ID string
	// API is the coordinator connection (in-process or HTTP).
	API WorkerAPI
	// Poll is the back-off after a refused (draining, evicted) or failed
	// lease request (default 5ms). An empty answer is re-polled at once:
	// Lease has already waited for work.
	Poll time.Duration
	// HeartbeatEvery is the heartbeat cadence while computing a batch
	// (default TTL/3, per lease).
	HeartbeatEvery time.Duration
	// KillAfter, when > 0, makes the worker die (stop heartbeating and
	// return ErrWorkerKilled) immediately BEFORE completing its
	// (KillAfter+1)-th run: it completes exactly KillAfter runs, computes
	// one more, and vanishes with that result unacknowledged — the worst
	// crash point, guaranteeing an orphaned leased run that the lease
	// expiry must recover. 0 = immortal.
	KillAfter int

	mu        sync.Mutex
	backends  map[string]backend.Backend
	completed int
}

// Run polls for leases until ctx is cancelled (returns nil) or the worker
// dies by KillAfter (returns ErrWorkerKilled).
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		l, err := w.API.Lease(ctx, w.ID)
		switch {
		case err == nil:
			if err := w.serve(ctx, l); err != nil {
				return err
			}
			continue // hot: ask again immediately
		case errors.Is(err, ErrNoWork):
			continue // the lease call already waited for work
		case ctx.Err() != nil:
			return nil
		}
		// Refused (draining, evicted) or a transient transport error: back
		// off and re-poll.
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(poll):
		}
	}
}

// serve computes one lease's batch, heartbeating throughout.
func (w *Worker) serve(ctx context.Context, l *Lease) error {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	every := w.HeartbeatEvery
	if every <= 0 {
		every = l.TTL / 3
	}
	if every <= 0 {
		every = time.Second
	}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				if err := w.API.Heartbeat(hbCtx, l.ID, l.Token); err != nil {
					return // stale: the batch is lost; computing loop will find out
				}
			}
		}
	}()

	w.forgetFinished(l)
	b, err := w.backendFor(ctx, l.CampaignID, l.Spec)
	if err != nil {
		// Can't build the backend (bad spec should have been rejected at
		// admission): complete every run as failed so the campaign surfaces
		// the error instead of waiting out lease expiry.
		for _, run := range l.Runs {
			res := RunResult{Run: run, Err: err.Error()}
			if cerr := w.API.Complete(ctx, l.ID, l.Token, res); cerr != nil {
				return nil // stale lease: someone else owns these runs now
			}
		}
		return nil
	}

	spec := l.Spec.withDefaults()
	for _, run := range l.Runs {
		res := w.compute(ctx, b, spec, run)
		w.mu.Lock()
		kill := w.KillAfter > 0 && w.completed >= w.KillAfter
		w.mu.Unlock()
		if kill {
			// Die with the computed result in hand, unacknowledged: the
			// cruelest crash point. stopHB (deferred) silences heartbeats;
			// the lease expires; the run is reassigned.
			return ErrWorkerKilled
		}
		if err := w.API.Complete(ctx, l.ID, l.Token, res); err != nil {
			// Stale lease (expired under us) or coordinator gone: drop the
			// rest of the batch — those runs belong to someone else now.
			return nil
		}
		w.mu.Lock()
		w.completed++
		w.mu.Unlock()
	}
	return nil
}

// Completed returns how many runs this worker has reported through a
// Complete call that returned nil (over HTTP, some of them may still be
// held acknowledgements that die with the worker).
func (w *Worker) Completed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.completed
}

// forgetFinished drops the cached backends of campaigns the coordinator no
// longer has registered (neither in l.Live nor l's own campaign): they will
// never be leased again, and each holds its whole synthesized draw stream.
func (w *Worker) forgetFinished(l *Lease) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, b := range w.backends {
		if id != l.CampaignID && !slices.Contains(l.Live, id) {
			b.Close()
			delete(w.backends, id)
		}
	}
}

// backendFor returns the campaign's warmed deterministic backend, building
// it on first sight: a fresh run-ordered Sim/Chaos with the campaign's
// warm-up requests replayed, reproducing the draw-stream position the
// sequential campaign was in when measured runs began.
func (w *Worker) backendFor(ctx context.Context, campID string, spec CampaignSpec) (backend.Backend, error) {
	w.mu.Lock()
	if w.backends == nil {
		w.backends = map[string]backend.Backend{}
	}
	if b, ok := w.backends[campID]; ok {
		w.mu.Unlock()
		return b, nil
	}
	w.mu.Unlock()

	spec = spec.withDefaults()
	b, err := spec.WorkerBackend()
	if err != nil {
		return nil, err
	}
	// Replay warm-ups exactly as core.Launcher.Run issues them: run indices
	// -1, -2, ... at campaign concurrency. Warm-up draws happen at arrival
	// (run < 1 bypasses run-ordered parking), so this consumes the same
	// stream prefix the sequential campaign consumed before run 1.
	for i := 0; i < spec.WarmupRuns; i++ {
		req := backend.Request{
			Workload:    spec.Workload,
			Concurrency: spec.Concurrency,
			Run:         -(i + 1),
			Day:         spec.Day,
		}
		if _, err := safeInvoke(ctx, b, req); err != nil && ctx.Err() != nil {
			return nil, err
		}
	}

	w.mu.Lock()
	if cached, ok := w.backends[campID]; ok {
		w.mu.Unlock()
		return cached, nil // lost a benign race; both are byte-equivalent
	}
	w.backends[campID] = b
	w.mu.Unlock()
	return b, nil
}

// compute executes one measured run on the campaign backend.
func (w *Worker) compute(ctx context.Context, b backend.Backend, spec CampaignSpec, run int) RunResult {
	req := backend.Request{
		Workload:    spec.Workload,
		Concurrency: spec.Concurrency,
		Run:         run,
		Day:         spec.Day,
	}
	invs, err := safeInvoke(ctx, b, req)
	return toWire(run, invs, err)
}

// safeInvoke recovers backend panics into whole-run errors: a chaos-injected
// (or buggy) panic inside a worker must kill at most the run, never the
// worker process serving other tenants' campaigns.
func safeInvoke(ctx context.Context, b backend.Backend, req backend.Request) (invs []backend.Invocation, err error) {
	defer func() {
		if r := recover(); r != nil {
			invs, err = nil, fmt.Errorf("service: worker panic: %v", r)
		}
	}()
	return b.Invoke(ctx, req)
}
