package main

// The isolated per-layer cost ledger: each public entry point timed alone on
// fixed inputs, reported as ns, heap bytes and heap allocations per call.
// The inputs do not depend on --seed, so the byte and allocation counts
// repeat exactly from run to run; only the times vary.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"sharp/internal/backend"
	"sharp/internal/cache"
	"sharp/internal/core"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/stopping"
)

const (
	ledgerSeed     = 1
	ledgerInvokes  = 100000
	ledgerSamples  = 4000
	ledgerRows     = 20000 // rows per record write and read
	ledgerReplays  = 50
	ledgerWorkload = "leukocyte" // phase-decomposed: three metrics per run
)

var ledgerEntries = func() []string {
	out := []string{"backend.sim.invoke", "backend.chaos.invoke"}
	for _, name := range stopping.Names() {
		out = append(out, "stopping."+name+".add")
	}
	return append(out, "record.write.csv", "record.write.sharpb", "record.write.segmented",
		"record.readfile", "cache.get_replay")
}()

// callCost is one ledger entry's per-call cost.
type callCost struct{ ns, bytes, allocs float64 }

// measure runs a fresh instance of an entry point's workload twice, the
// first time to warm it, and returns the per-call cost of the second run.
// Like testing.AllocsPerRun it runs with GOMAXPROCS 1, and the GC is off
// during the measured run, so that no collection, finalizer or other
// goroutine adds to the count; the bytes per call show the GC pressure the
// entry point creates. newRun builds the workload; the workload returns its
// call count.
func measure(newRun func() func() (int, error)) (callCost, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := newRun()(); err != nil {
		return callCost{}, err
	}
	run := newRun()
	// Two collections empty every sync.Pool, so the run starts from the
	// same pool state each time.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	calls, err := run()
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	n := float64(max(calls, 1))
	return callCost{float64(d) / n, float64(b.TotalAlloc-a.TotalAlloc) / n, float64(b.Mallocs-a.Mallocs) / n}, err
}

// costLedger measures every ledger entry in dir and returns the metrics by
// name. An entry that fails is left out (reported as 0) and named on
// standard error.
func costLedger(dir string) map[string]float64 {
	out := map[string]float64{}
	put := func(entry string, c callCost, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ledger %s: %v\n", entry, err)
			return
		}
		out["ledger."+entry+".ns_per_call"] = c.ns
		out["ledger."+entry+".b_per_call"] = c.bytes
		out["ledger."+entry+".allocs_per_call"] = c.allocs
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: ledger: %v\n", err)
		return out
	}
	defer os.RemoveAll(dir)
	m, err := machine.ByName(campaignMachine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: ledger: %v\n", err)
		return out
	}
	ctx := context.Background()

	invoke := func(chaos bool) func() func() (int, error) {
		return func() func() (int, error) {
			var b backend.Backend = backend.NewSim(m, ledgerSeed)
			if chaos {
				b = backend.NewChaos(b, backend.ChaosConfig{Seed: ledgerSeed, ErrorRate: chaosErrorRate})
			}
			return func() (int, error) {
				req := backend.Request{Workload: ledgerWorkload, Concurrency: 1}
				for i := 0; i < ledgerInvokes; i++ {
					req.Run = i + 1
					if _, err := b.Invoke(ctx, req); err != nil {
						return i, err
					}
				}
				return ledgerInvokes, nil
			}
		}
	}
	c, err := measure(invoke(false))
	put("backend.sim.invoke", c, err)
	c, err = measure(invoke(true))
	put("backend.chaos.invoke", c, err)

	samples := make([]float64, ledgerSamples)
	sim := backend.NewSim(m, ledgerSeed)
	for i := range samples {
		invs, err := sim.Invoke(ctx, backend.Request{Workload: ledgerWorkload, Run: i + 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ledger: %v\n", err)
			return out
		}
		samples[i] = invs[0].ExecTime()
	}
	for _, name := range stopping.Names() {
		threshold := 0.0
		if name == "fixed" {
			threshold = ledgerSamples
		}
		c, err := measure(func() func() (int, error) {
			rule, err := stopping.NewNamed(name, threshold, stopping.Bounds{MaxSamples: ledgerSamples})
			return func() (int, error) {
				if err != nil {
					return 0, err
				}
				// Adds after the rule stops are no-ops; count the ones before.
				calls := 0
				for _, x := range samples {
					if rule.Done() {
						break
					}
					rule.Add(x)
					calls++
				}
				return calls, nil
			}
		})
		put("stopping."+name+".add", c, err)
	}

	// A campaign's rows feed the record and cache entries.
	e := ledgerExperiment(m)
	res, err := (&core.Launcher{Clock: frozenClock}).Run(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: ledger campaign: %v\n", err)
		return out
	}
	rows := res.Rows
	for _, f := range []struct {
		entry, file string
		opts        record.Options
	}{
		{"record.write.csv", "log.csv", record.Options{FlushEvery: logFlushEvery}},
		{"record.write.sharpb", "log" + record.BinaryExt, record.Options{FlushEvery: logFlushEvery}},
		{"record.write.segmented", "seg" + record.BinaryExt, record.Options{FlushEvery: logFlushEvery, SegmentRows: logSegmentRows}},
	} {
		path := filepath.Join(dir, f.file)
		c, err := measure(func() func() (int, error) {
			removeLog(path)
			return func() (int, error) {
				w, err := record.CreateDurable(path, f.opts)
				if err != nil {
					return 0, err
				}
				for _, r := range rows {
					if err := w.Write(r); err != nil {
						w.Close()
						return 0, err
					}
				}
				return len(rows), w.Close()
			}
		})
		put(f.entry, c, err)
	}
	c, err = measure(func() func() (int, error) {
		return func() (int, error) {
			got, err := record.ReadFile(filepath.Join(dir, "log"+record.BinaryExt))
			if err == nil && len(got) != len(rows) {
				err = fmt.Errorf("read %d rows, wrote %d", len(got), len(rows))
			}
			return len(got), err
		}
	})
	put("record.readfile", c, err)

	// The cache entry replays one cell shaped like sweep-budget's stored
	// cells, so its per-call time is also that workload's cost per hit.
	cell, err := (&core.Launcher{Clock: frozenClock}).Run(ctx, ledgerCell(m))
	var st *cache.Store
	if err == nil {
		st, err = cache.Open(filepath.Join(dir, "cache"))
	}
	if err == nil {
		err = st.Put("ledger", "perfbench/v1", cell.Experiment.Name, cell.Rows)
	}
	if err != nil {
		put("cache.get_replay", callCost{}, err)
		return out
	}
	c, err = measure(func() func() (int, error) {
		return func() (int, error) {
			for i := 0; i < ledgerReplays; i++ {
				got, _, err := st.Get("ledger", cell.Experiment.Name)
				if err != nil {
					return i, err
				}
				if _, err := (&core.Launcher{Clock: frozenClock}).ReplayLog(ledgerCell(m), got); err != nil {
					return i, err
				}
			}
			return ledgerReplays, nil
		}
	})
	put("cache.get_replay", c, err)
	return out
}

// ledgerExperiment is the fixed campaign whose rows the record and cache
// entries use: ledgerRows rows of a phase-decomposed workload.
func ledgerExperiment(m *machine.Machine) core.Experiment {
	return core.Experiment{
		Name: "ledger", Workload: ledgerWorkload, Backend: backend.NewSim(m, ledgerSeed),
		Rule: stopping.NewFixed(ledgerRows / 3), Seed: ledgerSeed,
	}
}

// ledgerCell is the fixed campaign the cache entry stores and replays: one
// sweep-budget cell, which runs to sweepMaxRuns under the sweep's rule.
func ledgerCell(m *machine.Machine) core.Experiment {
	rule, err := stopping.NewNamed(sweepRule, sweepThreshold, stopping.Bounds{MaxSamples: sweepMaxRuns})
	if err != nil {
		panic(err) // a constant rule name and threshold
	}
	return core.Experiment{
		Name: "ledger-cell", Workload: sweepWorkloads[0], Backend: backend.NewSim(m, ledgerSeed),
		Rule: rule, Seed: ledgerSeed,
	}
}
