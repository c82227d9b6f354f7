package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharp/internal/obs"
	"sharp/internal/resilience"
)

// manualClock is a lease clock the test advances by hand.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// leaseResult is what a background leaseWait call returned.
type leaseResult struct {
	l   *Lease
	err error
}

// startWaiter runs leaseWait in the background and returns once the call is
// parked on the scheduler's wake channel (so the event under test cannot
// race ahead of it).
func startWaiter(t *testing.T, s *scheduler, ctx context.Context, maxWait time.Duration) <-chan leaseResult {
	t.Helper()
	out := make(chan leaseResult, 1)
	go func() {
		l, err := s.leaseWait(ctx, "w", maxWait)
		out <- leaseResult{l, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		parked := s.wake != nil
		s.mu.Unlock()
		if parked {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatal("lease call never started waiting")
		}
		time.Sleep(time.Millisecond)
	}
}

func awaitLease(t *testing.T, ch <-chan leaseResult) leaseResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("waiting lease call never returned")
		return leaseResult{}
	}
}

func newTask(campID string, run int) *task {
	return &task{campID: campID, run: run, result: make(chan RunResult, 1)}
}

// TestLeaseWaitEnds drives the long-poll lease: an empty-queue lease call
// waits, and returns on an enqueue, on a requeue after expiry, on ctx
// cancellation, on drain (ErrDraining), and after its bound (ErrNoWork).
func TestLeaseWaitEnds(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	mk := func() *scheduler {
		s := newScheduler(time.Second, 4, clock.Now, nil, nil, resilience.BreakerConfig{Now: clock.Now})
		s.register("c1", CampaignSpec{Workload: "hotspot", Machine: "machine1"})
		return s
	}
	ctx := context.Background()

	t.Run("enqueue", func(t *testing.T) {
		s := mk()
		ch := startWaiter(t, s, ctx, time.Hour)
		s.enqueue(newTask("c1", 1))
		r := awaitLease(t, ch)
		if r.err != nil || len(r.l.Runs) != 1 || r.l.Runs[0] != 1 {
			t.Fatalf("lease = %+v, %v; want run 1", r.l, r.err)
		}
	})

	t.Run("requeue", func(t *testing.T) {
		s := mk()
		s.enqueue(newTask("c1", 7))
		first, err := s.Lease("dead")
		if err != nil {
			t.Fatal(err)
		}
		ch := startWaiter(t, s, ctx, time.Hour)
		clock.advance(2 * time.Second)
		if n := s.expire(); n != 1 {
			t.Fatalf("expire() = %d, want 1", n)
		}
		r := awaitLease(t, ch)
		if r.err != nil || len(r.l.Runs) != 1 || r.l.Runs[0] != 7 || r.l.Token <= first.Token {
			t.Fatalf("lease after expiry = %+v, %v; want run 7 under a newer token", r.l, r.err)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		s := mk()
		cctx, cancel := context.WithCancel(ctx)
		ch := startWaiter(t, s, cctx, time.Hour)
		cancel()
		if r := awaitLease(t, ch); !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled lease = %v, want context.Canceled", r.err)
		}
	})

	t.Run("drain", func(t *testing.T) {
		s := mk()
		ch := startWaiter(t, s, ctx, time.Hour)
		s.setDraining(true)
		if r := awaitLease(t, ch); !errors.Is(r.err, ErrDraining) {
			t.Fatalf("lease during drain = %v, want ErrDraining", r.err)
		}
	})

	t.Run("bound", func(t *testing.T) {
		s := mk()
		if _, err := s.leaseWait(ctx, "w", 20*time.Millisecond); !errors.Is(err, ErrNoWork) {
			t.Fatalf("bounded wait = %v, want ErrNoWork", err)
		}
	})
}

// TestStoppedCoordinatorRefusesLeases: a closed or killed coordinator
// answers ErrDraining at once, so in-process workers back off instead of
// spinning on empty answers.
func TestStoppedCoordinatorRefusesLeases(t *testing.T) {
	for _, stop := range []string{"close", "kill"} {
		t.Run(stop, func(t *testing.T) {
			cfg := testConfig(t.TempDir())
			cfg.JanitorInterval = time.Hour // the bound must not be what ends the call
			coord, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if stop == "close" {
				coord.Close()
			} else {
				coord.Kill()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := coord.Lease(ctx, "w"); !errors.Is(err, ErrDraining) {
				t.Fatalf("lease after %s = %v, want ErrDraining", stop, err)
			}
		})
	}
}

// TestLeasePurgesOnlyOrphanedCampaign: a queued task whose campaign is gone
// is purged without dropping the registered campaign queued behind it.
func TestLeasePurgesOnlyOrphanedCampaign(t *testing.T) {
	clock := func() time.Time { return time.Unix(1000, 0) }
	s := newScheduler(time.Second, 4, clock, nil, nil, resilience.BreakerConfig{Now: clock})
	s.register("live", CampaignSpec{Workload: "hotspot", Machine: "machine1"})
	s.enqueue(newTask("gone", 1))
	s.enqueue(newTask("live", 1))
	s.enqueue(newTask("gone", 2))
	s.enqueue(newTask("live", 2))
	l, err := s.Lease("w")
	if err != nil {
		t.Fatalf("lease behind an orphaned task = %v", err)
	}
	if l.CampaignID != "live" || len(l.Runs) != 2 {
		t.Fatalf("lease = %s runs %v, want live runs [1 2]", l.CampaignID, l.Runs)
	}
	if n := s.queueDepth(); n != 0 {
		t.Fatalf("queue depth after lease = %d, want 0 (orphans purged)", n)
	}
}

// TestHalfOpenProbeIsARealLease: a half-open breaker's single probe is
// spent only on a granted lease, never on an empty answer — otherwise the
// worker would stay evicted with no outcome ever reported.
func TestHalfOpenProbeIsARealLease(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	s := newScheduler(time.Second, 4, clock.Now, nil, nil,
		resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, Now: clock.Now})
	s.register("c1", CampaignSpec{Workload: "hotspot", Machine: "machine1"})
	s.enqueue(newTask("c1", 1))
	if _, err := s.Lease("w"); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Second)
	s.expire() // one failure opens the breaker; the run is requeued
	if _, err := s.Lease("w"); !errors.Is(err, ErrWorkerEvicted) {
		t.Fatalf("lease with open breaker = %v, want ErrWorkerEvicted", err)
	}
	if _, err := s.Lease("other"); err != nil { // drain the queue
		t.Fatal(err)
	}
	clock.advance(2 * time.Second) // cooldown over: half-open
	if _, err := s.Lease("w"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("half-open lease on empty queue = %v, want ErrNoWork", err)
	}
	s.enqueue(newTask("c1", 2))
	if _, err := s.Lease("w"); err != nil {
		t.Fatalf("half-open probe lease = %v, want a lease", err)
	}
}

// countingHandler counts requests per route suffix.
type countingHandler struct {
	inner     http.Handler
	completes atomic.Int64
	beats     atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasSuffix(r.URL.Path, "/complete"):
		h.completes.Add(1)
	case strings.HasSuffix(r.URL.Path, "/heartbeat"):
		h.beats.Add(1)
	}
	h.inner.ServeHTTP(w, r)
}

// httpLeaseFixture serves a coordinator over HTTP with n queued runs of one
// registered campaign and returns a client holding a lease on all of them.
func httpLeaseFixture(t *testing.T, n int, now func() time.Time) (*Coordinator, *countingHandler, *Client, *Lease, []*task) {
	t.Helper()
	cfg := testConfig(t.TempDir())
	cfg.BatchSize = n
	cfg.LeaseTTL = time.Hour
	cfg.JanitorInterval = time.Hour
	cfg.Now = now
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	h := &countingHandler{inner: Handler(coord)}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	coord.sched.register("c1", CampaignSpec{Workload: "hotspot", Machine: "machine1"})
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = newTask("c1", i+1)
		coord.sched.enqueue(tasks[i])
	}
	cl := NewHTTPClient(srv.URL)
	l, err := cl.Lease(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Runs) != n {
		t.Fatalf("lease holds %d runs, want %d", len(l.Runs), n)
	}
	return coord, h, cl, l, tasks
}

func delivered(tk *task) bool {
	select {
	case res := <-tk.result:
		tk.result <- res
		return true
	default:
		return false
	}
}

// TestHTTPOneCompletePerLease: an N-run lease reported over HTTP makes
// exactly one complete request, sent with the last run, and delivers every
// run.
func TestHTTPOneCompletePerLease(t *testing.T) {
	const n = 5
	_, h, cl, l, tasks := httpLeaseFixture(t, n, nil)
	ctx := context.Background()
	for i, run := range l.Runs {
		if err := cl.Complete(ctx, l.ID, l.Token, RunResult{Run: run}); err != nil {
			t.Fatalf("complete run %d: %v", run, err)
		}
		want := int64(0)
		if i == n-1 {
			want = 1
		}
		if got := h.completes.Load(); got != want {
			t.Fatalf("after %d of %d runs: %d complete requests, want %d", i+1, n, got, want)
		}
	}
	for _, tk := range tasks {
		if !delivered(tk) {
			t.Fatalf("run %d not delivered", tk.run)
		}
	}
}

// TestHTTPHeartbeatFlushesHeldResults: a heartbeat on a lease with held
// results sends them instead of a bare heartbeat, so a slow lease shows
// progress; the rest follow with the last run.
func TestHTTPHeartbeatFlushesHeldResults(t *testing.T) {
	_, h, cl, l, tasks := httpLeaseFixture(t, 3, nil)
	ctx := context.Background()
	if err := cl.Heartbeat(ctx, l.ID, l.Token); err != nil {
		t.Fatal(err)
	}
	if h.beats.Load() != 1 || h.completes.Load() != 0 {
		t.Fatalf("heartbeat with nothing held: %d beats, %d completes; want 1, 0", h.beats.Load(), h.completes.Load())
	}
	if err := cl.Complete(ctx, l.ID, l.Token, RunResult{Run: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Heartbeat(ctx, l.ID, l.Token); err != nil {
		t.Fatal(err)
	}
	if h.beats.Load() != 1 || h.completes.Load() != 1 || !delivered(tasks[0]) {
		t.Fatalf("heartbeat with run 1 held: %d beats, %d completes, delivered %v; want 1, 1, true",
			h.beats.Load(), h.completes.Load(), delivered(tasks[0]))
	}
	for _, run := range []int{2, 3} {
		if err := cl.Complete(ctx, l.ID, l.Token, RunResult{Run: run}); err != nil {
			t.Fatal(err)
		}
	}
	if h.completes.Load() != 2 || !delivered(tasks[1]) || !delivered(tasks[2]) {
		t.Fatalf("after the last run: %d completes, want 2 and every run delivered", h.completes.Load())
	}
}

// TestHTTPStaleTokenSurfacesFromFinalComplete: results held for a lease
// that expires meanwhile are rejected as a batch, and the fencing error
// reaches the caller from the Complete that sends them.
func TestHTTPStaleTokenSurfacesFromFinalComplete(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	coord, h, cl, l, tasks := httpLeaseFixture(t, 3, clock.Now)
	ctx := context.Background()
	for _, run := range l.Runs[:2] {
		if err := cl.Complete(ctx, l.ID, l.Token, RunResult{Run: run}); err != nil {
			t.Fatalf("held complete run %d: %v", run, err)
		}
	}
	clock.advance(2 * time.Hour)
	if n := coord.sched.expire(); n != 1 {
		t.Fatalf("expire() = %d, want 1", n)
	}
	err := cl.Complete(ctx, l.ID, l.Token, RunResult{Run: l.Runs[2]})
	if !errors.Is(err, ErrStaleLease) {
		t.Fatalf("final complete on expired lease = %v, want ErrStaleLease", err)
	}
	if h.completes.Load() != 1 {
		t.Fatalf("%d complete requests, want 1", h.completes.Load())
	}
	for _, tk := range tasks {
		if delivered(tk) {
			t.Fatalf("stale batch delivered run %d", tk.run)
		}
	}
}

// TestHTTPKilledWorkerUnderChaos: a KillAfter worker dies over HTTP holding
// unsent results; its lease expires, a healthy worker on the same Client
// recomputes the runs, and the CSV is byte-identical to the sequential
// reference.
func TestHTTPKilledWorkerUnderChaos(t *testing.T) {
	for _, cut := range []int{2, 4} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			spec := baseSpec("fixed", 12, 3, chaosOn)
			want, _ := referenceCSV(t, spec)
			reg := obs.NewRegistry()
			cfg := testConfig(t.TempDir())
			cfg.Registry = reg
			coord, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			srv := httptest.NewServer(Handler(coord))
			defer srv.Close()
			cl := NewHTTPClient(srv.URL)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			id, err := cl.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			killer := &Worker{ID: "killer", API: cl, KillAfter: cut}
			select {
			case err := <-spawnWorker(ctx, killer):
				if !errors.Is(err, ErrWorkerKilled) {
					t.Fatalf("killer exited with %v, want ErrWorkerKilled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("killer never reached its cut point")
			}
			spawnWorker(ctx, &Worker{ID: "healthy", API: cl})
			if st := waitDone(t, coord, id); st.State != "done" {
				t.Fatalf("campaign state = %q (%s)", st.State, st.Error)
			}
			got, err := cl.ResultCSV(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("CSV after HTTP worker murder differs from reference (%d vs %d bytes)", len(got), len(want))
			}
			if v := reg.Counter("sharp_service_lease_expiries_total", "", "worker", "killer").Value(); v < 1 {
				t.Error("no lease expiry recorded for the killed worker")
			}
		})
	}
}

// TestWorkerForgetsFinishedCampaigns: a worker serving many campaigns in
// turn keeps backends only for campaigns the coordinator still runs, and
// the results stay byte-identical.
func TestWorkerForgetsFinishedCampaigns(t *testing.T) {
	const campaigns = 20
	cfg := testConfig(t.TempDir())
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{ID: "w", API: coord}
	spawnWorker(ctx, w)

	for i := 0; i < campaigns; i++ {
		spec := baseSpec("fixed", 4, 2, nil)
		spec.Seed = uint64(100 + i)
		want, _ := referenceCSV(t, spec)
		id, err := coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, coord, id); st.State != "done" {
			t.Fatalf("campaign %d state = %q (%s)", i, st.State, st.Error)
		}
		if got := readCSV(t, coord.ResultCSVPath(id)); !bytes.Equal(got, want) {
			t.Fatalf("campaign %d CSV differs from reference", i)
		}
	}
	w.mu.Lock()
	n := len(w.backends)
	w.mu.Unlock()
	if n > cfg.MaxRunning {
		t.Fatalf("worker holds %d backends after %d campaigns, want at most %d", n, campaigns, cfg.MaxRunning)
	}
}
