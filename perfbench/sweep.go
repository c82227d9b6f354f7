package main

// sweep-budget: one op is one sweep.RunBudgeted UCB sweep over a 16-cell
// grid. Every op starts from the same cache state, in which half the cells
// are stored; the budget starves the other half.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"sharp/internal/cache"
	"sharp/internal/record"
	"sharp/internal/sweep"
)

// Sweep shape. The CI rule at this threshold never converges inside
// sweepMaxRuns, so every cell runs to its cap: stored cells replay
// sweepMaxRuns runs each and the budget is always spent to the last run.
// The cache rewrites its counters file, with two fsyncs, on every lookup and
// store, and on a shared disk an fsync takes from 0.3 to 1 ms. The grid is
// therefore small and its cells long, so that those fsyncs are a minor
// share of an op, while a 20 s run still completes over 100 ops.
var (
	sweepWorkloads = []string{"bfs", "hotspot", "srad", "kmeans"}
	sweepMachines  = []string{"machine1"}
)

const (
	sweepName      = "perfbench"
	sweepRule      = "ci"
	sweepThreshold = 0.0005
	sweepMaxRuns   = 800
	sweepBudget    = 4 * sweepMaxRuns // half of what the unstored cells need
	sweepStored    = 8                // cells stored before every op (day 1)
)

type sweeper struct {
	dir, template, work string
	seed                uint64
	tr                  *tracer
	want                []record.Row // Outcome rows of the first op
	hits, misses        uint64       // template counters

	// traced
	allocs, spent, ops int64
	batchNS, batchN    int64
	hitN, missN        uint64
}

func (s *sweeper) design(days []int, cacheDir string) sweep.Design {
	d := sweep.Design{
		Name:          sweepName,
		Workloads:     sweepWorkloads,
		Machines:      sweepMachines,
		Days:          days,
		Concurrencies: []int{1, 2},
		RuleName:      sweepRule,
		Threshold:     sweepThreshold,
		MaxRuns:       sweepMaxRuns,
		Seed:          s.seed,
		CacheDir:      cacheDir,
		Budget:        sweepBudget,
		BudgetPolicy:  "ucb",
	}
	d.SetClock(frozenClock)
	return d
}

func setupSweep(e env) (instance, error) {
	s := &sweeper{dir: e.dir, template: filepath.Join(e.dir, "template"), work: filepath.Join(e.dir, "work"), seed: e.seed, tr: e.tr}
	// Store the day-1 half of the grid: an exhaustive sweep over it fills the
	// cache under the same keys the full grid looks up.
	if _, err := sweep.Run(context.Background(), s.design([]int{1}, s.template)); err != nil {
		return nil, fmt.Errorf("filling the cache: %w", err)
	}
	st, err := cache.Open(s.template)
	if err != nil {
		return nil, err
	}
	c := st.Counters()
	s.hits, s.misses = c.Hits, c.Misses
	if err := linkDir(s.template, s.work); err != nil {
		return nil, err
	}
	// The first sweep fixes the Outcome every later op must reproduce.
	o, err := sweep.RunBudgeted(context.Background(), s.design([]int{1, 2}, s.work))
	if err != nil {
		return nil, err
	}
	s.want = o.Rows()
	if err := s.verify(o, nil); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweeper) op(_, i int) (int, func() error, error) {
	d := s.design([]int{1, 2}, s.work)
	var hook *sweepHook
	if s.tr != nil {
		d.Tracer = s.tr
		hook = &sweepHook{}
		s.tr.setHook(hook.event)
	}
	o, err := sweep.RunBudgeted(context.Background(), d)
	if s.tr != nil {
		s.tr.setHook(nil)
	}
	if err != nil {
		return 0, nil, err
	}
	units := o.Budget.Spent
	for _, c := range o.Cells {
		if c.Result != nil && c.Day == 1 { // replayed from the cache
			units += c.Result.Runs
		}
	}
	if hook != nil {
		s.ops++
		s.allocs += hook.allocs
		s.spent += int64(o.Budget.Spent)
		if hook.allocs > 1 {
			s.batchNS += hook.last - hook.first
			s.batchN += hook.allocs - 1
		}
	}
	return units, func() error { return s.verify(o, hook) }, nil
}

// verify checks one sweep's outputs and restores the op's starting cache
// state for the next op.
func (s *sweeper) verify(o *sweep.Outcome, hook *sweepHook) error {
	st, err := cache.Open(s.work)
	if err != nil {
		return err
	}
	c := st.Counters()
	hits, misses := c.Hits-s.hits, c.Misses-s.misses
	if hook != nil {
		s.hitN += hits
		s.missN += misses
	}
	if err := os.RemoveAll(s.work); err != nil {
		return err
	}
	if err := linkDir(s.template, s.work); err != nil {
		return err
	}
	if o.Budget.Spent != sweepBudget || !o.Budget.Exhausted {
		return fmt.Errorf("%w: ledger spent %d of %d runs (exhausted=%v)", errMismatch, o.Budget.Spent, sweepBudget, o.Budget.Exhausted)
	}
	if hits != sweepStored {
		return fmt.Errorf("%w: %d cache hits, want %d", errMismatch, hits, sweepStored)
	}
	if j, ok := rowsEqual(o.Rows(), s.want); !ok {
		return fmt.Errorf("%w: sweep Outcome differs from the first op's at row %d", errMismatch, j)
	}
	return nil
}

// sweepHook watches budget.allocate events during one sweep.
type sweepHook struct {
	allocs, first, last int64
}

func (h *sweepHook) event(at int64, typ string, _ map[string]any) {
	if typ != "budget.allocate" {
		return
	}
	if h.allocs == 0 {
		h.first = at
	}
	h.last = at
	h.allocs++
}

func (s *sweeper) layers(*phase) map[string]float64 {
	if s.tr == nil {
		return nil
	}
	ops := float64(s.ops)
	return map[string]float64{
		"budget.allocations_per_sweep": ratio(float64(s.allocs), ops),
		"budget.runs_spent_per_sweep":  ratio(float64(s.spent), ops),
		"budget.batch_ms":              ratio(float64(s.batchNS)/1e6, float64(s.batchN)),
		"cache.hit_ratio":              ratio(float64(s.hitN), float64(s.hitN+s.missN)),
	}
}

func (s *sweeper) close() error { return os.RemoveAll(s.dir) }

// linkDir hard-links the regular files of src into a new directory dst.
// The cache replaces a file by renaming a new one over it and never writes
// one in place, so a link gives the op the same starting state as a copy
// without the copy's I/O.
func linkDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range entries {
		if !de.Type().IsRegular() {
			continue
		}
		if err := os.Link(filepath.Join(src, de.Name()), filepath.Join(dst, de.Name())); err != nil {
			return err
		}
	}
	return nil
}
