package main

// analyze-history: one op is one history query over a .sharpb log that
// set-up builds from known distribution families with injected shifts.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sharp/internal/changepoint"
	"sharp/internal/classify"
	"sharp/internal/randx"
	"sharp/internal/record"
	"sharp/internal/similarity"
)

// History shape. A query reads the whole log (a history log has no index by
// series), keeps one series, runs scalar E-Divisive over its daily midmeans
// and distribution E-Divisive over its last historyWindow days, classifies
// each window day and compares the newest day with the one before.
const (
	historySeries     = 48
	historyDays       = 32
	historyWindow     = 16
	historySamples    = 64  // per series and day
	historyShift      = 1.3 // multiplicative shift injected at the series' shift day
	historyDistPerms  = 99
	historyScalarPerm = 199
)

// family is a synthetic distribution family the classifier must recover.
type family struct {
	class classify.Class
	draw  func(rng *randx.RNG, n int, scale float64) []float64
}

// historyFamilies are families the classifier recognises reliably at
// historySamples samples, so a correct program never fails the class check.
var historyFamilies = []family{
	{classify.Uniform, func(rng *randx.RNG, n int, s float64) []float64 {
		return randx.SampleN(randx.NewUniform(rng, 0.9*s, 1.1*s), n)
	}},
	{classify.Multimodal, func(rng *randx.RNG, n int, s float64) []float64 {
		return randx.SampleN(randx.NewBimodalNormal(rng, s, 0.02*s, 1.25*s, 0.02*s, 0.5), n)
	}},
	{classify.Autocorrelated, func(rng *randx.RNG, n int, s float64) []float64 {
		return randx.SampleN(randx.NewAR1(rng, s, 0.8, 0.02*s), n)
	}},
	{classify.HeavyTailed, func(rng *randx.RNG, n int, s float64) []float64 {
		return randx.SampleN(randx.NewCauchy(rng, s, 0.005*s), n)
	}},
}

type seriesInfo struct {
	name     string
	fam      family
	shiftDay int // first day of the shifted regime (1-based)
}

type history struct {
	dir    string
	path   string
	series []seriesInfo
	tr     *tracer

	// traced
	read, classify, similarity, scalar, dist *layer
	tests                                    int64
	readRows, readAllocs, cells, pairs       int64
	queries, accountedNS                     int64
}

func setupHistory(e env) (instance, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	h := &history{dir: e.dir, path: filepath.Join(e.dir, "history"+record.BinaryExt), tr: e.tr}
	rng := randx.New(e.seed)
	for s := 0; s < historySeries; s++ {
		h.series = append(h.series, seriesInfo{
			name:     fmt.Sprintf("series%02d", s),
			fam:      historyFamilies[s%len(historyFamilies)],
			shiftDay: historyDays - historyWindow + 7 + rng.IntN(4),
		})
	}
	w, err := record.CreateDurable(h.path, record.Options{})
	if err != nil {
		return nil, err
	}
	for day := 1; day <= historyDays; day++ {
		for _, s := range h.series {
			scale := 1.0
			if day >= s.shiftDay {
				scale = historyShift
			}
			for i, v := range s.fam.draw(rng.Fork(), historySamples, scale) {
				err := w.Write(record.Row{
					Timestamp: benchClock.Add(time.Duration(day) * 24 * time.Hour), Experiment: "history",
					Workload: s.name, Backend: "sim", Machine: campaignMachine, Day: day, Run: i + 1,
					Instance: 1, Metric: "exec_time", Value: v, Unit: "seconds", Status: record.StatusOK, Attempt: 1,
				})
				if err != nil {
					w.Close()
					return nil, err
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if t := e.tr; t != nil {
		h.read, h.classify, h.similarity = t.layer("record.read"), t.layer("classify"), t.layer("similarity")
		h.scalar, h.dist = t.layer("changepoint.scalar"), t.layer("changepoint.dist")
	}
	// Warm the query path once per family before timing.
	for i := 0; i < len(historyFamilies); i++ {
		a, err := h.query(i, nil)
		if err == nil {
			err = h.check(i, a)
		}
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *history) op(_, i int) (int, func() error, error) {
	a, err := h.query(i, h.tr)
	if err != nil {
		return 0, nil, err
	}
	return a.units, func() error { return h.check(i, a) }, nil
}

// answer is the output of one history query.
type answer struct {
	units        int // rows of the queried series
	classes      []classify.Class
	scalar, dist []changepoint.ChangePoint
	namd, ks     float64
}

// span times f as a top-level span of the op when traced.
func span(tr *tracer, l *layer, f func()) {
	if tr == nil {
		f()
		return
	}
	start := tr.now()
	f()
	tr.topSpan(l, start, tr.now())
}

// query runs history query i; tr is nil for untraced and warm-up queries.
func (h *history) query(i int, tr *tracer) (answer, error) {
	s := h.series[i%len(h.series)]
	var rows []record.Row
	var err error
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	span(tr, h.read, func() { rows, err = record.ReadFile(h.path) })
	if err != nil {
		return answer{}, err
	}
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		h.readRows += int64(len(rows))
		h.readAllocs += int64(ms1.Mallocs - ms0.Mallocs)
	}

	days := make([][]float64, historyDays)
	units := 0
	for _, r := range rows {
		if r.Workload == s.name && r.Day >= 1 && r.Day <= historyDays {
			days[r.Day-1] = append(days[r.Day-1], r.Value)
			units++
		}
	}
	for d, xs := range days {
		if len(xs) == 0 {
			return answer{}, fmt.Errorf("series %s has no samples on day %d", s.name, d+1)
		}
	}
	window := days[historyDays-historyWindow:]

	classes := make([]classify.Class, len(window))
	span(tr, h.classify, func() {
		for d, xs := range window {
			classes[d] = classify.Classify(xs).Class
		}
	})
	var namd, ks float64
	span(tr, h.similarity, func() {
		newest, prev := window[len(window)-1], window[len(window)-2]
		namd, err = similarity.NAMD(newest, prev)
		ks = similarity.KS(newest, prev)
	})
	if err != nil {
		return answer{}, err
	}

	midmeans := make([]float64, historyDays)
	for d, xs := range days {
		midmeans[d] = midmean(xs)
	}
	var scalarCPs, distCPs []changepoint.ChangePoint
	opts := changepoint.Options{Seed: uint64(i) + 1, Permutations: historyScalarPerm}
	var hook *testCounter
	if tr != nil {
		hook = &testCounter{}
		opts.Tracer = hook
	}
	span(tr, h.scalar, func() { scalarCPs = changepoint.Detect(midmeans, opts) })
	dopts := changepoint.DistOptions{Options: opts}
	dopts.Permutations = historyDistPerms
	span(tr, h.dist, func() { distCPs, err = changepoint.DetectDistributions(window, dopts) })
	if err != nil {
		return answer{}, err
	}
	if tr != nil {
		h.tests += hook.n
		h.cells += int64(len(window))
		h.pairs++
		h.queries++
		h.accountedNS += tr.covered()
	}

	return answer{units: units, classes: classes, scalar: scalarCPs, dist: distCPs, namd: namd, ks: ks}, nil
}

// check verifies that query i recovered its series' injected shift and
// distribution family.
func (h *history) check(i int, a answer) error {
	s := h.series[i%len(h.series)]
	if !hasIndex(a.scalar, s.shiftDay-1) {
		return fmt.Errorf("%w: %s: scalar change points %v miss the shift at day %d", errMismatch, s.name, indices(a.scalar), s.shiftDay)
	}
	if !hasIndex(a.dist, s.shiftDay-1-(historyDays-historyWindow)) {
		return fmt.Errorf("%w: %s: distribution change points %v miss the shift at day %d", errMismatch, s.name, indices(a.dist), s.shiftDay)
	}
	right := 0
	for _, c := range a.classes {
		if c == s.fam.class {
			right++
		}
	}
	if 2*right <= len(a.classes) {
		return fmt.Errorf("%w: %s: %d of %d window days classified %s, want a majority (%v)", errMismatch, s.name, right, len(a.classes), s.fam.class, a.classes)
	}
	if a.ks <= 0 || a.namd < 0 {
		return fmt.Errorf("%w: %s: newest-day similarity KS=%g NAMD=%g", errMismatch, s.name, a.ks, a.namd)
	}
	return nil
}

// testCounter counts changepoint.test events.
type testCounter struct{ n int64 }

func (c *testCounter) Emit(typ string, _ map[string]any) {
	if typ == "changepoint.test" {
		c.n++
	}
}

func hasIndex(cps []changepoint.ChangePoint, idx int) bool {
	for _, c := range cps {
		if c.Index == idx {
			return true
		}
	}
	return false
}

func indices(cps []changepoint.ChangePoint) []int {
	out := make([]int, len(cps))
	for i, c := range cps {
		out[i] = c.Index
	}
	return out
}

// midmean is the mean of the middle half of xs: a daily summary that stays
// put for heavy-tailed days (where the mean does not) and for bimodal days
// (where the median jumps between the modes).
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func (h *history) layers(ph *phase) map[string]float64 {
	if h.tr == nil {
		return nil
	}
	q := float64(h.queries)
	return map[string]float64{
		"record.read_ns_per_row":      ratio(float64(h.read.ns.Load()), float64(h.readRows)),
		"record.read_allocs_per_row":  ratio(float64(h.readAllocs), float64(h.readRows)),
		"classify.ms_per_cell":        ratio(float64(h.classify.ns.Load())/1e6, float64(h.cells)),
		"similarity.us_per_pair":      ratio(float64(h.similarity.ns.Load())/1e3, float64(h.pairs)),
		"changepoint.scalar_ms":       ratio(float64(h.scalar.ns.Load())/1e6, q),
		"changepoint.dist_ms":         ratio(float64(h.dist.ns.Load())/1e6, q),
		"changepoint.tests_per_query": ratio(float64(h.tests), q),
		"trace.accounted_pct":         100 * ratio(float64(h.accountedNS), float64(ph.wallNS)),
	}
}

func (h *history) close() error { return os.RemoveAll(h.dir) }
