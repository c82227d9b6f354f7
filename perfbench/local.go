package main

// campaign-local: one op is one core.Launcher.Run campaign over a simulated
// backend, streaming its rows to a segmented .sharpb log.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/resilience"
	"sharp/internal/stopping"
)

// Campaign shape shared by campaign-local and campaign-service. The KS rule
// adapts its length to each campaign's samples; the cap keeps the slowest
// campaigns bounded.
var (
	campaignWorkloads = []string{"bfs", "hotspot", "leukocyte", "lud-CUDA"}
	campaignMachine   = "machine1"
	chaosErrorRate    = 0.05
)

const (
	localKSThreshold = 0.03
	localMaxRuns     = 8000
	logFlushEvery    = 64
	logSegmentRows   = 4096
)

// benchClock stamps every row, so the rows of two campaigns compare exactly.
var benchClock = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func frozenClock() time.Time { return benchClock }

// retryPolicy retries injected faults without a backoff. The 10 ms default
// would make the campaign measure time.Sleep, not SHARP, and so would any
// positive sub-millisecond delay: Go's timers round a 20 µs sleep up to
// about 0.7 ms on a 2-core Linux VM. A negative BaseDelay means no delay.
var retryPolicy = resilience.Policy{MaxAttempts: 3, BaseDelay: -1}

// localKind is one campaign configuration of the op cycle.
type localKind struct {
	workload string
	conc     int
	chaos    bool
	retry    bool
	parallel bool // Parallel: 2, the twin of the sequential op before it
}

// localKinds is the op cycle: per workload and concurrency, a plain and a
// chaos campaign each run sequentially and then again with Parallel: 2 as
// its twin, plus a sequential chaos campaign with retries. Retries are kept
// off the parallel engine because retried draws there are not yet
// bit-identical to sequential ones (a documented caveat of the launcher), so
// a twin check would fail for a known reason.
func localKinds() []localKind {
	var ks []localKind
	for _, wl := range campaignWorkloads {
		for _, conc := range []int{1, 2} {
			ks = append(ks,
				localKind{workload: wl, conc: conc},
				localKind{workload: wl, conc: conc, parallel: true},
				localKind{workload: wl, conc: conc, chaos: true},
				localKind{workload: wl, conc: conc, chaos: true, parallel: true},
				localKind{workload: wl, conc: conc, chaos: true, retry: true},
			)
		}
	}
	return ks
}

// mix derives a campaign seed from the benchmark seed and an index
// (splitmix64 finalizer).
func mix(seed uint64, i int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type local struct {
	seed  uint64
	dir   string
	kinds []localKind
	mach  *machine.Machine
	tr    *tracer
	prev  *core.Result // the last sequential campaign, for its twin

	// traced layers and their folds
	sim, chaos, retry, rule, write, campaign, openClose *layer
	evals                                               *atomic.Int64
	folds                                               localFolds
}

type localFolds struct {
	campaigns, runs, rows, bytes   int64
	chaosN, chaosSelf, faults      int64
	retryN, retrySelf, retryInner  int64
	topInvokes, layerNS, mergeSelf int64
}

func setupLocal(e env) (instance, error) {
	m, err := machine.ByName(campaignMachine)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	l := &local{seed: e.seed, dir: e.dir, kinds: localKinds(), mach: m, tr: e.tr}
	if t := e.tr; t != nil {
		l.sim, l.chaos, l.retry = t.layer("backend.sim"), t.layer("backend.chaos"), t.layer("resilience.retry")
		l.rule, l.write = t.layer("stopping.add"), t.layer("record.write")
		l.campaign, l.openClose = t.layer("core.campaign"), t.layer("record.open_close")
		l.evals = t.count("stopping.evals")
	}
	// Warm the op path with one pass over the op cycle, untraced, so lazy
	// initialisation is not timed.
	l.tr = nil
	for i := range l.kinds {
		_, check, err := l.op(0, i)
		if err == nil {
			err = check()
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up campaign %d: %w", i, err)
		}
	}
	l.tr, l.prev = e.tr, nil
	return l, nil
}

// experiment builds op i's experiment. It returns the Chaos layer (nil
// without chaos) so the op can read its fault counts.
func (l *local) experiment(i int) (core.Experiment, *backend.Chaos, error) {
	k := l.kinds[i%len(l.kinds)]
	pair := i
	if k.parallel {
		pair = i - 1 // a twin replays its sequential partner's seed
	}
	seed := mix(l.seed, pair)
	rule := stopping.NewKS(localKSThreshold, stopping.Bounds{MaxSamples: localMaxRuns})
	e := core.Experiment{
		Name:        fmt.Sprintf("%s-c%d", k.workload, k.conc),
		Workload:    k.workload,
		Concurrency: k.conc,
		Seed:        seed,
		Rule:        rule,
	}
	if k.parallel {
		e.Parallel = 2
	}
	var ch *backend.Chaos
	cfg := backend.ChaosConfig{Seed: seed ^ 0x5eed, ErrorRate: chaosErrorRate}
	if l.tr == nil {
		var b backend.Backend = backend.NewSim(l.mach, seed)
		if k.chaos {
			ch = backend.NewChaos(b, cfg)
			b = ch
		}
		e.Backend = b
		if k.retry {
			e.Retry = retryPolicy
		}
		return e, ch, nil
	}
	// Traced: the same chain with a timer around each layer. The retry
	// decorator is built here, not by the launcher, so it can be timed;
	// resilience.Wrap with the campaign seed is what the launcher would do.
	var b backend.Backend = &timedBackend{inner: backend.NewSim(l.mach, seed), tr: l.tr, l: l.sim, top: !k.chaos}
	if k.chaos {
		ch = backend.NewChaos(b, cfg)
		b = &timedBackend{inner: ch, tr: l.tr, l: l.chaos, top: !k.retry}
	}
	if k.retry {
		p := retryPolicy
		p.Seed = seed
		b = &timedBackend{inner: resilience.Wrap(b, p), tr: l.tr, l: l.retry, top: true}
	}
	e.Backend = b
	e.Rule = &timedRule{inner: rule, tr: l.tr, add: l.rule, evals: l.evals}
	return e, ch, nil
}

func (l *local) op(_, i int) (int, func() error, error) {
	k := l.kinds[i%len(l.kinds)]
	if !k.parallel {
		l.prev = nil // a failed sequential op leaves its twin nothing to match
	}
	e, ch, err := l.experiment(i)
	if err != nil {
		return 0, nil, err
	}
	path := l.logPath(i)
	var before [7]int64
	if l.tr != nil {
		before = [7]int64{l.sim.n.Load(), l.sim.ns.Load(), l.chaos.n.Load(), l.chaos.ns.Load(),
			l.retry.n.Load(), l.retry.ns.Load(), l.topN(k)}
	}

	t0 := l.now()
	w, err := record.CreateDurable(path, record.Options{FlushEvery: logFlushEvery, SegmentRows: logSegmentRows})
	if err != nil {
		return 0, nil, err
	}
	launcher := &core.Launcher{Clock: frozenClock, Log: w}
	if l.tr != nil {
		launcher.Log = &timedSink{inner: w, tr: l.tr, l: l.write}
	}
	t1 := l.now()
	res, runErr := launcher.Run(context.Background(), e)
	t2 := l.now()
	closeErr := w.Close()
	t3 := l.now()
	if runErr == nil {
		runErr = closeErr
	}
	if runErr != nil {
		removeLog(path)
		return 0, nil, runErr
	}

	if l.tr != nil {
		l.openClose.add((t1 - t0) + (t3 - t2))
		l.campaign.add(t2 - t1)
		f := &l.folds
		f.campaigns++
		covered := l.tr.covered()
		f.layerNS += covered + (t1 - t0) + (t3 - t2)
		f.mergeSelf += (t2 - t1) - covered
		f.topInvokes += l.topN(k) - before[6]
		simNS := l.sim.ns.Load() - before[1]
		chaosN, chaosNS := l.chaos.n.Load()-before[2], l.chaos.ns.Load()-before[3]
		if k.chaos {
			f.chaosN += chaosN
			f.chaosSelf += chaosNS - simNS
			for _, n := range ch.Injected() {
				f.faults += int64(n)
			}
		}
		if k.retry {
			f.retryN += l.retry.n.Load() - before[4]
			f.retrySelf += l.retry.ns.Load() - before[5] - chaosNS
			f.retryInner += chaosN
		}
		f.runs += int64(res.Runs)
		f.rows += int64(len(res.Rows))
	}

	check := func() error {
		defer removeLog(path)
		if l.tr != nil {
			l.folds.bytes += logBytes(path)
		}
		got, err := record.ReadFile(path)
		if err != nil {
			return fmt.Errorf("reading the campaign log back: %w", err)
		}
		if j, ok := rowsEqual(got, res.Rows); !ok {
			return fmt.Errorf("%w: log read back differs from Result.Rows at row %d of %d", errMismatch, j, len(res.Rows))
		}
		if !k.parallel {
			l.prev = res
			return nil
		}
		prev := l.prev
		l.prev = nil
		if prev == nil {
			return nil // the cycle began at this twin (set-up warm op)
		}
		if prev.Runs != res.Runs || prev.StopReason != res.StopReason || len(prev.Samples) != len(res.Samples) {
			return fmt.Errorf("%w: Parallel: 2 campaign stopped after %d runs (%q), its sequential twin after %d (%q)",
				errMismatch, res.Runs, res.StopReason, prev.Runs, prev.StopReason)
		}
		for j := range prev.Samples {
			if prev.Samples[j] != res.Samples[j] {
				return fmt.Errorf("%w: Parallel: 2 sample %d differs from its sequential twin", errMismatch, j)
			}
		}
		if j, ok := rowsEqual(prev.Rows, res.Rows); !ok {
			return fmt.Errorf("%w: Parallel: 2 row %d differs from its sequential twin", errMismatch, j)
		}
		return nil
	}
	return res.Runs, check, nil
}

// logPath is where op i streams its rows.
func (l *local) logPath(i int) string {
	return filepath.Join(l.dir, fmt.Sprintf("op%d%s", i, record.BinaryExt))
}

// now reads the tracer clock (0 when untraced).
func (l *local) now() int64 {
	if l.tr == nil {
		return 0
	}
	return l.tr.now()
}

// topN counts the calls into the outermost backend layer of kind k.
func (l *local) topN(k localKind) int64 {
	switch {
	case k.retry:
		return l.retry.n.Load()
	case k.chaos:
		return l.chaos.n.Load()
	}
	return l.sim.n.Load()
}

func (l *local) layers(ph *phase) map[string]float64 {
	if l.tr == nil {
		return nil
	}
	f := l.folds
	simN, simNS := l.tr.get("backend.sim")
	ruleN, ruleNS := l.tr.get("stopping.add")
	writeN, writeNS := l.tr.get("record.write")
	runs := float64(f.runs)
	return map[string]float64{
		"backend.sim.invoke_ns":             ratio(float64(simNS), float64(simN)),
		"backend.chaos.self_ns":             ratio(float64(f.chaosSelf), float64(f.chaosN)),
		"backend.chaos.faults_per_krun":     1000 * ratio(float64(f.faults), float64(f.chaosN)),
		"resilience.retry.attempts_per_run": ratio(float64(f.retryInner), float64(f.retryN)),
		"resilience.retry.self_ns":          ratio(float64(f.retrySelf), float64(f.retryN)),
		"stopping.add_ns":                   ratio(float64(ruleNS), float64(ruleN)),
		"stopping.evals_per_campaign":       ratio(float64(l.evals.Load()), float64(f.campaigns)),
		"record.write_ns":                   ratio(float64(writeNS), float64(writeN)),
		"record.bytes_per_row":              ratio(float64(f.bytes), float64(f.rows)),
		"core.merge_self_ns":                ratio(float64(f.mergeSelf), runs),
		"core.invokes_per_run":              ratio(float64(f.topInvokes), runs),
		"core.allocs_per_run":               ratio(float64(ph.mallocs), runs),
		"core.bytes_per_run":                ratio(float64(ph.alloced), runs),
		"trace.accounted_pct":               100 * ratio(float64(f.layerNS), float64(ph.wallNS)),
		"trace.merge_self_pct":              100 * ratio(float64(f.mergeSelf), float64(ph.wallNS)),
	}
}

func (l *local) close() error { return os.RemoveAll(l.dir) }

// rowsEqual compares two row logs field by field; on a mismatch it returns
// the first differing index.
func rowsEqual(a, b []record.Row) (int, bool) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if !x.Timestamp.Equal(y.Timestamp) {
			return i, false
		}
		x.Timestamp, y.Timestamp = time.Time{}, time.Time{}
		if x != y {
			return i, false
		}
	}
	return n, len(a) == len(b)
}

// logBytes is the on-disk size of a (possibly segmented) log.
func logBytes(path string) int64 {
	var total int64
	for _, p := range []string{path, path + ".idx"} {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	filepath.WalkDir(path+".seg", func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}

// removeLog deletes a (possibly segmented) log.
func removeLog(path string) {
	os.Remove(path)
	os.Remove(path + ".idx")
	os.RemoveAll(path + ".seg")
}
