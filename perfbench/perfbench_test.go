package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The traced run must measure the same program the untraced run does: with
// every timing wrapper in place, each workload's outputs are byte-identical
// to the untraced ones.

const testSeed = 7

func setupPair(t *testing.T, setup func(env) (instance, error)) (plain, traced instance, tr *tracer) {
	t.Helper()
	dir := t.TempDir()
	plain, err := setup(env{seed: testSeed, dir: filepath.Join(dir, "plain")})
	if err != nil {
		t.Fatalf("untraced set-up: %v", err)
	}
	t.Cleanup(func() { plain.close() })
	tr = newTracer()
	traced, err = setup(env{seed: testSeed, dir: filepath.Join(dir, "traced"), tr: tr})
	if err != nil {
		t.Fatalf("traced set-up: %v", err)
	}
	t.Cleanup(func() { traced.close() })
	return plain, traced, tr
}

// runChecked runs op i and its output check.
func runChecked(t *testing.T, inst instance, client, i int) {
	t.Helper()
	_, check, err := inst.op(client, i)
	if err == nil {
		err = check()
	}
	if err != nil {
		t.Fatalf("op %d: %v", i, err)
	}
}

// logContents concatenates every file of a (possibly segmented) log.
func logContents(t *testing.T, path string) []byte {
	t.Helper()
	files := []string{path}
	segs, _ := filepath.Glob(filepath.Join(path+".seg", "*"))
	sort.Strings(segs)
	var out []byte
	for _, f := range append(files, segs...) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

func TestTracedCampaignLocalMatchesUntraced(t *testing.T) {
	plain, traced, _ := setupPair(t, setupLocal)
	p, q := plain.(*local), traced.(*local)
	for i := 0; i < len(p.kinds); i++ {
		_, checkP, err := p.op(0, i)
		if err != nil {
			t.Fatal(err)
		}
		_, checkQ, err := q.op(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logContents(t, p.logPath(i)), logContents(t, q.logPath(i))) {
			t.Fatalf("op %d (%+v): traced log differs from untraced", i, p.kinds[i])
		}
		if err := checkP(); err != nil {
			t.Fatalf("untraced op %d: %v", i, err)
		}
		if err := checkQ(); err != nil {
			t.Fatalf("traced op %d: %v", i, err)
		}
	}
}

// Service results are checked byte for byte against one local reference, so
// a traced op that passes its check is byte-identical to an untraced one.
func TestTracedCampaignServiceMatchesUntraced(t *testing.T) {
	plain, traced, _ := setupPair(t, setupService)
	p, q := plain.(*svc), traced.(*svc)
	if !reflect.DeepEqual(p.refs, q.refs) {
		t.Fatal("traced and untraced set-ups built different references")
	}
	for i := 0; i < 4; i++ {
		runChecked(t, plain, i%2, i)
		runChecked(t, traced, i%2, i)
	}
}

func TestTracedAnalyzeHistoryMatchesUntraced(t *testing.T) {
	plain, traced, tr := setupPair(t, setupHistory)
	p, q := plain.(*history), traced.(*history)
	for i := 0; i < 8; i++ {
		a, err := p.query(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := q.query(i, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: traced answer %+v, untraced %+v", i, b, a)
		}
		if err := p.check(i, a); err != nil {
			t.Fatal(err)
		}
	}
}

// Each sweep op is checked against the Outcome of an untraced sweep made at
// set-up, so a traced op that passes its check matches untraced output.
func TestTracedSweepBudgetMatchesUntraced(t *testing.T) {
	plain, traced, _ := setupPair(t, setupSweep)
	if _, ok := rowsEqual(plain.(*sweeper).want, traced.(*sweeper).want); !ok {
		t.Fatal("traced and untraced set-ups swept different Outcomes")
	}
	runChecked(t, plain, 0, 0)
	runChecked(t, traced, 0, 0)
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := (&phase{}).endToEnd()
	e2e["setup_s"] = metric{Unit: "s"}
	e2e["peak_rss_mb"] = metric{Unit: "MB"}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// The ledger's byte and allocation counts come from fixed inputs, so they
// must repeat from one measurement to the next: within 0.1%, because the
// logs' temporary file names are random (a few bytes either way) and a
// measurement of 100,000 calls was seen to gain one allocation; the cache
// entry within 1%, as its counts move by about one allocation in 20 calls
// (the cause is not pinned down).
func TestLedgerCountsRepeat(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	a := costLedger(filepath.Join(t.TempDir(), "a"))
	b := costLedger(filepath.Join(t.TempDir(), "b"))
	if len(a) != 3*len(ledgerEntries) {
		t.Fatalf("ledger measured %d metrics, want %d", len(a), 3*len(ledgerEntries))
	}
	for k, v := range a {
		if strings.HasSuffix(k, ".ns_per_call") {
			continue
		}
		tol := 0.001
		if strings.HasPrefix(k, "ledger.cache.") {
			tol = 0.01
		}
		if math.Abs(b[k]-v) > tol*v {
			t.Errorf("%s: %v, then %v", k, v, b[k])
		}
	}
}
