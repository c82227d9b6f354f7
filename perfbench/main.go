// Command perfbench is SHARP's benchmark: four seeded closed-loop workloads
// that each exercise a different set of layers, measured end to end with
// tracing off and layer by layer in a separate traced run. See README.md for
// why each workload exists and how to read its numbers.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload campaign-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs one timed operation for a client. It returns the units of
	// work it did and a check of its outputs that runPhase runs untimed.
	op(client, i int) (units int, check func() error, err error)
	// layers computes the per-layer metrics of a traced phase (nil when the
	// instance is untraced).
	layers(ph *phase) map[string]float64
	close() error
}

// workload is one benchmark workload.
type workload struct {
	name string
	// clients is the number of closed-loop clients issuing ops.
	clients int
	setup   func(e env) (instance, error)
}

// env is what a workload's set-up receives.
type env struct {
	seed uint64
	dir  string  // empty scratch directory owned by the instance
	tr   *tracer // nil: untraced
}

var workloads = []workload{
	{name: "campaign-local", clients: 1, setup: setupLocal},
	{name: "campaign-service", clients: 2, setup: setupService},
	{name: "analyze-history", clients: 1, setup: setupHistory},
	{name: "sweep-budget", clients: 1, setup: setupSweep},
}

// setupRepeats is how many times set-up runs in an untraced run; setup_s is
// the median.
const setupRepeats = 9

// memOps is the number of ops in the memory pass that gives peak_rss_mb.
const memOps = 32

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: campaign-local, campaign-service, analyze-history or sweep-budget")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch := filepath.Join(wd, ".bench_build", "perfbench", fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d go=%s\n",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 0 {
		res, err = runUntraced(w, *seed, dur, scratch, stdout)
	} else {
		res, err = runTraced(w, *seed, dur, scratch, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runUntraced sets the workload up setupRepeats times, runs the memory pass
// and then one timed phase on the last instance, and reports the end-to-end
// metrics.
func runUntraced(w *workload, seed uint64, dur time.Duration, scratch string, log io.Writer) (result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", i))
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(env{seed: seed, dir: dir})
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rss, memFailed, err := memoryPass(inst)
	if err != nil {
		return result{}, err
	}
	ph := runPhase(inst, w.clients, 0, dur, nil)
	if err := inst.close(); err != nil {
		return result{}, err
	}
	ph.log(log, "untraced")
	fmt.Fprintf(log, "# memory pass: ops=%d failed=%d\n", memOps, memFailed)
	m := ph.endToEnd()
	m["setup_s"] = metric{median(setups), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	res := ph.result(m)
	res.Attempted += memOps
	res.Failed += memFailed
	res.Correct = res.Failed == 0
	return res, nil
}

// memoryPass measures peak_rss_mb. It runs memOps ops with one client, each
// from a clean heap (debug.FreeOSMemory collects and hands freed pages back
// to the OS) and with the peak RSS reset, and returns the median of the
// ops' peaks and the number of failed ops. Without the clean start an op's
// peak depends on where the collector last ran relative to the ops before
// it. A fixed op count keeps the result independent of throughput, which
// matters on campaign-service: its memory grows with the campaigns it has
// completed.
func memoryPass(inst instance) (float64, int, error) {
	peaks := make([]float64, 0, memOps)
	failed := 0
	for i := 0; i < memOps; i++ {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return 0, 0, fmt.Errorf("memory pass: %w", err)
		}
		_, check, err := inst.op(0, i)
		peak, rssErr := peakRSSMB()
		if rssErr != nil {
			return 0, 0, fmt.Errorf("memory pass: %w", rssErr)
		}
		peaks = append(peaks, peak)
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			failed++
		}
	}
	return median(peaks), failed, nil
}

// runTraced runs the workload untraced and with every layer wrapped, for
// half the time each, in the order untraced, traced, traced, untraced: a
// side that ran only later, in a process whose heap had already grown,
// would gain from that. It reports the per-layer metrics of the traced
// half, the tracing overhead between the halves and the isolated per-layer
// cost ledger. The folded spans go to a trace file beside the scratch
// directory.
func runTraced(w *workload, seed uint64, dur time.Duration, scratch string, log io.Writer) (result, error) {
	plain, err := w.setup(env{seed: seed, dir: filepath.Join(scratch, "untraced")})
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	inst, err := w.setup(env{seed: seed, dir: filepath.Join(scratch, "traced"), tr: tr})
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	base := runPhase(plain, w.clients, 0, dur/4, nil)
	ph := runPhase(inst, w.clients, 0, dur/4, tr)
	ph.add(runPhase(inst, w.clients, ph.ops, dur/4, tr))
	base.add(runPhase(plain, w.clients, base.ops, dur/4, nil))
	layers := inst.layers(ph)
	for _, i := range []instance{plain, inst} {
		if err := i.close(); err != nil {
			return result{}, err
		}
	}
	base.log(log, "untraced")
	ph.log(log, "traced")

	ledger := costLedger(filepath.Join(scratch, "ledger"))
	if w.name == "sweep-budget" {
		// The ledger's cache entry replays one sweep-budget cell.
		layers["cache.replay_ms_per_hit"] = ledger["ledger.cache.get_replay.ns_per_call"] / 1e6
	}
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{layers[d.name], d.unit}
	}
	b, t := base.endToEnd(), ph.endToEnd()
	m["trace.overhead.runs_per_s_pct"] = metric{100 * (ratio(b["runs_per_s"].Value, t["runs_per_s"].Value) - 1), "%"}
	m["trace.overhead.op_p50_pct"] = metric{100 * (ratio(t["op_p50_ms"].Value, b["op_p50_ms"].Value) - 1), "%"}
	for k, v := range ledger {
		m[k] = metric{v, m[k].Unit}
	}
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok && !d.always {
			fmt.Fprintf(log, "# %s: not exercised by %s (reported as 0)\n", d.name, w.name)
		}
	}
	path := filepath.Join(filepath.Dir(scratch), fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeOps(path, w.name); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(log, "# trace: %s\n", path)
	res := ph.result(m)
	res.Attempted += base.ops
	res.Failed += base.failed
	res.Correct = res.Failed == 0
	return res, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	ops      int
	failed   int
	firstErr error
	units    int
	lat      []float64 // op latencies in ms
	wallNS   int64     // timed wall time (see runPhase)
	cpuNS    int64     // process CPU time over the timed wall time
	mallocs  uint64    // heap allocations over the ops (traced phases only)
	alloced  uint64    // heap bytes allocated over the ops (traced phases only)
	marks    []mark    // the timed wall, CPU and units so far at each op's end
}

// mark is where a phase stood when an op ended: its timed wall and CPU
// time (see runPhase) and the units done.
type mark struct {
	wallNS, cpuNS int64
	units         int
}

// phaseBlocks is the number of blocks of consecutive ops whose median rate
// gives runs_per_s and cpu_us_per_run (see endToEnd).
const phaseBlocks = 10

// runPhase runs closed-loop clients, numbering their ops from first, until
// dur has elapsed. With one client
// the timed wall and CPU time are the sums over op intervals, so the
// untimed output checks between ops are excluded; with several clients they
// span the whole phase (their checks are byte comparisons). A GC runs
// before the phase, not between ops, so the ops pay for their own
// collections. A traced single-client phase also folds each op's spans and
// heap allocations.
func runPhase(inst instance, clients, first int, dur time.Duration, tr *tracer) *phase {
	runtime.GC()
	ph := &phase{}
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	cpu0 := cpuNow()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				var before map[string][2]int64
				var ms0 runtime.MemStats
				var spanStart int64
				if tr != nil && clients == 1 {
					runtime.ReadMemStats(&ms0)
					before = tr.snapshot()
					spanStart = tr.beginOp()
				}
				c0 := cpuNow()
				t0 := time.Now()
				units, check, err := inst.op(c, i)
				d := time.Since(t0)
				dc := cpuNow() - c0
				if tr != nil && clients == 1 {
					tr.endOp(i, spanStart, before, units)
					var ms1 runtime.MemStats
					runtime.ReadMemStats(&ms1)
					mu.Lock()
					ph.mallocs += ms1.Mallocs - ms0.Mallocs
					ph.alloced += ms1.TotalAlloc - ms0.TotalAlloc
					mu.Unlock()
				}
				if err == nil && check != nil {
					err = check()
				}
				mu.Lock()
				ph.ops++
				ph.lat = append(ph.lat, float64(d)/1e6)
				ph.units += units
				if clients == 1 {
					ph.wallNS += int64(d)
					ph.cpuNS += dc
					ph.marks = append(ph.marks, mark{ph.wallNS, ph.cpuNS, ph.units})
				} else {
					ph.marks = append(ph.marks, mark{int64(time.Since(start)), cpuNow() - cpu0, ph.units})
				}
				if err != nil {
					ph.failed++
					if ph.firstErr == nil {
						ph.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if clients > 1 {
		ph.wallNS = int64(time.Since(start))
		ph.cpuNS = cpuNow() - cpu0
	}
	return ph
}

// add appends the ops of a later phase to ph.
func (ph *phase) add(o *phase) {
	for _, m := range o.marks {
		ph.marks = append(ph.marks, mark{ph.wallNS + m.wallNS, ph.cpuNS + m.cpuNS, ph.units + m.units})
	}
	ph.ops += o.ops
	ph.failed += o.failed
	if ph.firstErr == nil {
		ph.firstErr = o.firstErr
	}
	ph.units += o.units
	ph.lat = append(ph.lat, o.lat...)
	ph.wallNS += o.wallNS
	ph.cpuNS += o.cpuNS
	ph.mallocs += o.mallocs
	ph.alloced += o.alloced
}

// endToEnd computes the end-to-end metrics of the phase (all but setup_s
// and peak_rss_mb). The throughput and the CPU per unit are medians over
// phaseBlocks blocks of consecutive ops, so that a burst of load from
// outside the benchmark that slows part of the phase moves them no more
// than it moves the median latency.
func (ph *phase) endToEnd() map[string]metric {
	var rates, cpus []float64
	n := len(ph.marks)
	var prev mark
	for b := 1; b <= min(phaseBlocks, n); b++ {
		m := ph.marks[b*n/min(phaseBlocks, n)-1]
		units := float64(m.units - prev.units)
		rates = append(rates, ratio(units, float64(m.wallNS-prev.wallNS)/1e9))
		cpus = append(cpus, ratio(float64(m.cpuNS-prev.cpuNS)/1e3, units))
		prev = m
	}
	return map[string]metric{
		"runs_per_s":     {median(rates), "1/s"},
		"op_p50_ms":      {quantile(ph.lat, 0.5), "ms"},
		"op_p90_ms":      {quantile(ph.lat, 0.9), "ms"},
		"cpu_us_per_run": {median(cpus), "us"},
	}
}

func (ph *phase) result(m map[string]metric) result {
	return result{Correct: ph.failed == 0, Attempted: ph.ops, Failed: ph.failed, Metrics: m}
}

func (ph *phase) log(w io.Writer, label string) {
	tail := ph.ops - int(math.Ceil(0.9*float64(ph.ops)))
	fmt.Fprintf(w, "# %s phase: ops=%d failed=%d units=%d wall_s=%.3f cpu_s=%.3f p90_tail_samples=%d\n",
		label, ph.ops, ph.failed, ph.units, float64(ph.wallNS)/1e9, float64(ph.cpuNS)/1e9, tail)
	if ph.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", ph.firstErr)
	}
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuNow is the process's user+system CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resetPeakRSS resets the process's peak resident set size to its current
// one (Linux's clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MB (10^6 bytes)
// since the last resetPeakRSS: VmHWM in /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var n float64
			if _, err := fmt.Sscanf(strings.TrimSpace(kb), "%g kB", &n); err != nil {
				return 0, fmt.Errorf("reading VmHWM: %w", err)
			}
			return n * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// errMismatch marks an op whose output failed its check.
var errMismatch = errors.New("output mismatch")
