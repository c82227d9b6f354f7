package main

// campaign-service: one op is one campaign, from Submit to its terminal
// status, run by an in-process Coordinator whose two Workers talk HTTP on
// loopback. Two clients submit in a closed loop.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"sharp/internal/core"
	"sharp/internal/service"
)

const (
	serviceWorkers     = 2
	serviceSpecs       = 64 // distinct specs in the op cycle
	serviceKSThreshold = 0.06
	serviceMaxRuns     = 600
	serviceParallel    = 8 // the coordinator's speculative batch width
)

type svc struct {
	dir    string
	tr     *tracer
	coord  *service.Coordinator
	client *service.Client
	srv    *http.Server
	stop   context.CancelFunc
	wg     sync.WaitGroup
	specs  []service.CampaignSpec
	refs   [][]byte

	// traced
	apis                                       []*timedWorkerAPI
	handler                                    *timedHandler
	lease, empty, complete, heartbeat, compute *layer
	idle                                       *layer
	leasedRuns                                 *atomic.Int64
	mu                                         sync.Mutex
	accepted                                   map[string]int64
	waitNS, waits                              int64
	runs                                       atomic.Int64
}

// serviceSpecsFor generates the op cycle's campaign specs from the seed:
// every workload × concurrency {1, 2} × {plain, chaos}, four times.
func serviceSpecsFor(seed uint64) []service.CampaignSpec {
	var specs []service.CampaignSpec
	for len(specs) < serviceSpecs {
		for _, wl := range campaignWorkloads {
			for _, conc := range []int{1, 2} {
				for _, chaos := range []bool{false, true} {
					s := service.CampaignSpec{
						Workload:    wl,
						Machine:     campaignMachine,
						Rule:        "ks",
						Threshold:   serviceKSThreshold,
						MaxRuns:     serviceMaxRuns,
						Seed:        mix(seed, 1000+len(specs)),
						Concurrency: conc,
						Parallel:    serviceParallel,
					}
					if chaos {
						s.Chaos = &service.ChaosSpec{ErrorRate: chaosErrorRate}
					}
					specs = append(specs, s)
				}
			}
		}
	}
	return specs[:serviceSpecs]
}

// referenceCSV runs the spec's sequential ground truth locally under the
// frozen clock and returns its CSV bytes.
func referenceCSV(spec service.CampaignSpec, dir string, i int) ([]byte, error) {
	e, err := spec.ReferenceExperiment()
	if err != nil {
		return nil, err
	}
	res, err := (&core.Launcher{Clock: frozenClock}).Run(context.Background(), e)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("ref%d.csv", i))
	if err := res.SaveCSV(path); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	return os.ReadFile(path)
}

func setupService(e env) (instance, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	s := &svc{dir: e.dir, tr: e.tr, specs: serviceSpecsFor(e.seed)}
	for i, spec := range s.specs {
		ref, err := referenceCSV(spec, e.dir, i)
		if err != nil {
			return nil, fmt.Errorf("reference campaign %d: %w", i, err)
		}
		s.refs = append(s.refs, ref)
	}

	cfg := service.Config{DataDir: filepath.Join(e.dir, "data"), Clock: frozenClock}
	if t := e.tr; t != nil {
		cfg.Tracer = t
		s.accepted = map[string]int64{}
		t.setHook(s.event)
	}
	coord, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	s.coord = coord
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	var h http.Handler = service.Handler(coord)
	if t := e.tr; t != nil {
		s.lease, s.empty, s.complete = t.layer("service.lease"), t.layer("service.lease.empty"), t.layer("service.complete")
		s.heartbeat, s.compute, s.idle = t.layer("service.heartbeat"), t.layer("service.worker.compute"), t.layer("service.lease.idle")
		s.leasedRuns = t.count("service.leased_runs")
		s.handler = &timedHandler{inner: h, tr: t, bytes: t.count("service.http.bytes"), routes: map[string]*layer{}}
		for _, r := range []string{"submit", "lease", "heartbeat", "complete", "other"} {
			s.handler.routes[r] = t.layer("service.http." + r)
		}
		h = s.handler
	}
	s.srv = &http.Server{Handler: h}
	go s.srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	s.client = service.NewHTTPClient(base)

	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	for i := 0; i < serviceWorkers; i++ {
		var api service.WorkerAPI = service.NewHTTPClient(base)
		if t := e.tr; t != nil {
			ta := &timedWorkerAPI{inner: api, tr: t, lease: s.lease, emptyLease: s.empty, complete: s.complete,
				heartbeat: s.heartbeat, compute: s.compute, idle: s.idle, leasedRuns: s.leasedRuns,
				leases: map[string]*leaseClock{}}
			api = ta
		}
		w := &service.Worker{ID: fmt.Sprintf("w%d", i+1), API: api}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx)
		}()
	}
	// Warm the path with one campaign per client before timing.
	for c := 0; c < 2; c++ {
		_, check, err := s.op(c, c)
		if err == nil {
			err = check()
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
	}
	if s.tr != nil {
		s.resetTrace()
	}
	return s, nil
}

// event receives the coordinator's trace events: the queue wait of a
// campaign runs from campaign.accepted to its first lease.granted.
func (s *svc) event(at int64, typ string, fields map[string]any) {
	id, _ := fields["campaign"].(string)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch typ {
	case "campaign.accepted":
		s.accepted[id] = at
	case "lease.granted":
		if t0, ok := s.accepted[id]; ok {
			s.waitNS += at - t0
			s.waits++
			delete(s.accepted, id)
		}
	}
}

func (s *svc) op(c, i int) (int, func() error, error) {
	k := i % len(s.specs)
	spec := s.specs[k]
	spec.Tenant = fmt.Sprintf("client%d", c)
	ctx := context.Background()
	id, err := s.client.Submit(ctx, spec)
	if err != nil {
		return 0, nil, err
	}
	st, err := s.coord.WaitCampaign(ctx, id)
	if err != nil {
		return 0, nil, err
	}
	if st.State != "done" {
		return 0, nil, fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Error)
	}
	s.runs.Add(int64(st.Runs))
	check := func() error {
		path := s.coord.ResultCSVPath(id)
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, p := range []string{path, filepath.Join(filepath.Dir(path), id+".spec.json"), filepath.Join(filepath.Dir(path), id+".meta.md")} {
			os.Remove(p)
		}
		if !bytes.Equal(got, s.refs[k]) {
			return fmt.Errorf("%w: campaign %s CSV (%d bytes) differs from its local reference (%d bytes)",
				errMismatch, id, len(got), len(s.refs[k]))
		}
		return nil
	}
	return st.Runs, check, nil
}

// resetTrace zeroes what the warm-up campaigns traced.
func (s *svc) resetTrace() {
	for _, l := range s.tr.layersSnapshot() {
		l.n.Store(0)
		l.ns.Store(0)
	}
	for _, c := range s.tr.countsSnapshot() {
		c.Store(0)
	}
	s.mu.Lock()
	s.waitNS, s.waits = 0, 0
	s.mu.Unlock()
	s.runs.Store(0)
}

func (s *svc) layers(ph *phase) map[string]float64 {
	if s.tr == nil {
		return nil
	}
	runs := float64(s.runs.Load())
	leases := float64(s.lease.n.Load())
	m := map[string]float64{
		"service.lease.rtt_us":              ratio(float64(s.lease.ns.Load())/1e3, leases),
		"service.lease.empty_ratio":         ratio(float64(s.empty.n.Load()), leases+float64(s.empty.n.Load())),
		"service.lease.idle_ms_per_op":      ratio(float64(s.idle.ns.Load())/1e6, float64(ph.ops)),
		"service.lease.runs_per_lease":      ratio(float64(s.leasedRuns.Load()), leases),
		"service.complete.rtt_us":           ratio(float64(s.complete.ns.Load())/1e3, float64(s.complete.n.Load())),
		"service.complete.calls_per_run":    ratio(float64(s.complete.n.Load()), runs),
		"service.heartbeat.calls_per_lease": ratio(float64(s.heartbeat.n.Load()), leases),
		"service.http.bytes_per_run":        ratio(float64(s.handler.bytes.Load()), runs),
		"service.worker.compute_us_per_run": ratio(float64(s.compute.ns.Load())/1e3, runs),
	}
	for _, r := range []string{"submit", "lease", "heartbeat", "complete"} {
		l := s.handler.routes[r]
		m["service.http.handler_us."+r] = ratio(float64(l.ns.Load())/1e3, float64(l.n.Load()))
	}
	s.mu.Lock()
	m["service.queue_wait_ms"] = ratio(float64(s.waitNS)/1e6, float64(s.waits))
	s.mu.Unlock()
	return m
}

func (s *svc) close() error {
	s.stop()
	s.wg.Wait()
	err := s.srv.Close()
	if cerr := s.coord.Close(); err == nil {
		err = cerr
	}
	if s.tr != nil {
		s.tr.setHook(nil)
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
