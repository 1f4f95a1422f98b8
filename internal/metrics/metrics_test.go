package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {100, 5}, {99, 5},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Errorf("input mutated: %v", vals)
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := float64(pRaw) / 255 * 100
		got := Percentile(raw, p)
		sorted := make([]float64, len(raw))
		copy(sorted, raw)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationPercentile(t *testing.T) {
	vals := []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if got := DurationPercentile(vals, 100); got != 3*time.Millisecond {
		t.Errorf("got %v", got)
	}
	if DurationPercentile(nil, 50) != 0 {
		t.Error("empty should be 0")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	want := []CDFPoint{{1, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := range want {
		if pts[i].Value != want[i].Value || math.Abs(pts[i].Cum-want[i].Cum) > 1e-12 {
			t.Errorf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestTopFractionCDF(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i)
	}
	pts := TopFractionCDF(vals, 0.01)
	if len(pts) != 2 {
		t.Fatalf("top 1%% of 200 = %d points, want 2", len(pts))
	}
	if pts[0].Value != 198 || pts[1].Value != 199 {
		t.Errorf("top values = %v, %v", pts[0].Value, pts[1].Value)
	}
	if got := TopFractionCDF([]float64{7}, 0.01); len(got) != 1 {
		t.Errorf("singleton should yield 1 point, got %d", len(got))
	}
	if TopFractionCDF(nil, 0.01) != nil || TopFractionCDF(vals, 0) != nil {
		t.Error("degenerate inputs should be nil")
	}
}

// The TestLatencyRecorder* tests pin ShardedRecorder, the one latency
// recorder.

func TestLatencyRecorderWindows(t *testing.T) {
	r := NewShardedRecorder(time.Second)
	base := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	// Window 0: 100 obs of 10ms with one 600ms outlier at the p99 edge.
	for i := 0; i < 99; i++ {
		r.Record(base.Add(time.Duration(i)*time.Millisecond), 10*time.Millisecond)
	}
	r.Record(base.Add(500*time.Millisecond), 600*time.Millisecond)
	// Window 2: all slow.
	for i := 0; i < 10; i++ {
		r.Record(base.Add(2*time.Second+time.Duration(i)*time.Millisecond), 700*time.Millisecond)
	}
	ws := r.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	w0 := ws[0]
	if w0.Count != 100 || w0.P50 != 10*time.Millisecond || w0.P99 != 10*time.Millisecond || w0.Max != 600*time.Millisecond {
		t.Errorf("window 0 = %+v", w0)
	}
	w2 := ws[1]
	if !w2.Start.Equal(base.Add(2 * time.Second)) {
		t.Errorf("window 2 start = %v", w2.Start)
	}
	if w2.P50 != 700*time.Millisecond {
		t.Errorf("window 2 p50 = %v", w2.P50)
	}
	if r.Count() != 110 {
		t.Errorf("Count = %d, want 110", r.Count())
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := NewShardedRecorder(time.Second)
	base := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(base.Add(time.Duration(i)*time.Millisecond), time.Duration(g+1)*time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", r.Count())
	}
}

// TestLatencyRecorderRetention checks the bounded-memory contract: raw
// sample windows older than the horizon are summarized and evicted, totals
// and per-window stats stay intact, and late records into evicted windows
// are dropped and counted.
func TestLatencyRecorderRetention(t *testing.T) {
	r := NewShardedRecorder(time.Second)
	base := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 60; i++ {
		r.Record(base.Add(time.Duration(i)*time.Second), time.Duration(i+1)*time.Millisecond)
	}
	if raw := r.RawWindows(); raw > retainedWindows {
		t.Errorf("RawWindows = %d, want <= %d (horizon)", raw, retainedWindows)
	}
	if r.Count() != 60 {
		t.Errorf("Count = %d, want 60", r.Count())
	}
	ws := r.Windows()
	if len(ws) != 60 {
		t.Fatalf("windows = %d, want 60", len(ws))
	}
	for i, w := range ws {
		if w.Count != 1 || w.P50 != time.Duration(i+1)*time.Millisecond {
			t.Errorf("window %d = %+v", i, w)
		}
		if !w.Start.Equal(base.Add(time.Duration(i) * time.Second)) {
			t.Errorf("window %d start = %v", i, w.Start)
		}
	}
	// A record landing in an evicted window is dropped, not resurrected.
	if r.LateDropped() != 0 {
		t.Fatalf("LateDropped = %d before late record", r.LateDropped())
	}
	r.Record(base.Add(3*time.Second), time.Millisecond)
	if r.LateDropped() != 1 {
		t.Errorf("LateDropped = %d, want 1", r.LateDropped())
	}
	if r.Count() != 60 {
		t.Errorf("Count after late drop = %d, want 60", r.Count())
	}
}

// TestLatencyRecorderLateDrop pins the horizon's edge: once window n has
// an observation, windows up to n-retainedWindows are summarized, so a
// sample for window n-retainedWindows is dropped and counted while one for
// the window after it still lands.
func TestLatencyRecorderLateDrop(t *testing.T) {
	r := NewShardedRecorder(time.Second)
	base := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	const n = 10
	for i := 0; i < n; i++ {
		r.Record(base.Add(time.Duration(i)*time.Second), 5*time.Millisecond)
	}
	if raw := r.RawWindows(); raw != retainedWindows {
		t.Fatalf("RawWindows = %d, want %d", raw, retainedWindows)
	}
	edge := n - 1 - retainedWindows
	r.Record(base.Add(time.Duration(edge)*time.Second+time.Millisecond), 7*time.Millisecond)
	if r.LateDropped() != 1 {
		t.Errorf("LateDropped = %d after a sample for summarized window %d, want 1", r.LateDropped(), edge)
	}
	r.Record(base.Add(time.Duration(edge+1)*time.Second+time.Millisecond), 7*time.Millisecond)
	if r.LateDropped() != 1 {
		t.Errorf("LateDropped = %d after a sample for raw window %d, want 1", r.LateDropped(), edge+1)
	}
	if r.Count() != n+1 {
		t.Errorf("Count = %d, want %d", r.Count(), n+1)
	}
	ws := r.Windows()
	if len(ws) != n || ws[edge].Count != 1 || ws[edge+1].Count != 2 || ws[edge+1].Max != 7*time.Millisecond {
		t.Errorf("windows = %+v", ws)
	}
}

func TestSLAViolations(t *testing.T) {
	ws := []WindowStats{
		{P50: 100 * time.Millisecond, P95: 400 * time.Millisecond, P99: 600 * time.Millisecond},
		{P50: 600 * time.Millisecond, P95: 700 * time.Millisecond, P99: 800 * time.Millisecond},
		{P50: 10 * time.Millisecond, P95: 20 * time.Millisecond, P99: 30 * time.Millisecond},
	}
	rep := SLAViolations(ws, 500*time.Millisecond)
	if rep.P50Violations != 1 || rep.P95Violations != 1 || rep.P99Violations != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Windows != 3 {
		t.Errorf("windows = %d", rep.Windows)
	}
}

func TestPercentileSeries(t *testing.T) {
	ws := []WindowStats{
		{P50: 10 * time.Millisecond, P95: 20 * time.Millisecond, P99: 30 * time.Millisecond},
		{P50: 40 * time.Millisecond, P95: 50 * time.Millisecond, P99: 60 * time.Millisecond},
	}
	if got := PercentileSeries(ws, 95); got[0] != 20 || got[1] != 50 {
		t.Errorf("p95 series = %v", got)
	}
	if got := PercentileSeries(ws, 42); len(got) != 0 {
		t.Errorf("unknown percentile should be empty, got %v", got)
	}
}

func TestAllocationTrackerAverage(t *testing.T) {
	base := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	tr := NewAllocationTracker(base, 2)
	tr.Set(base.Add(10*time.Second), 4)
	tr.Set(base.Add(30*time.Second), 1)
	// 10s at 2, 20s at 4, 10s at 1 → (20+80+10)/40 = 2.75
	got := tr.Average(base.Add(40 * time.Second))
	if math.Abs(got-2.75) > 1e-9 {
		t.Errorf("Average = %v, want 2.75", got)
	}
	if tr.Current() != 1 {
		t.Errorf("Current = %d, want 1", tr.Current())
	}
	if s := tr.Series(); len(s) != 3 || s[1].Machines != 4 {
		t.Errorf("Series = %+v", s)
	}
	// Degenerate range.
	if got := tr.Average(base); got != 2 {
		t.Errorf("zero-length average = %v, want 2", got)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter(time.Second)
	base := time.Now()
	c.Add(base, 3)
	c.Add(base.Add(500*time.Millisecond), 2)
	c.Add(base.Add(2500*time.Millisecond), 7)
	if c.Total() != 12 {
		t.Errorf("Total = %d, want 12", c.Total())
	}
	rate := c.Rate()
	if len(rate) != 3 || rate[0] != 5 || rate[1] != 0 || rate[2] != 7 {
		t.Errorf("Rate = %v, want [5 0 7]", rate)
	}
	if NewCounter(0).Rate() != nil {
		t.Error("empty counter rate should be nil")
	}
}

func TestLatencyRecorderRandomizedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewShardedRecorder(time.Second)
	base := time.Now()
	var all []time.Duration
	for i := 0; i < 500; i++ {
		l := time.Duration(rng.Intn(1000)) * time.Millisecond
		r.Record(base.Add(time.Duration(rng.Intn(900))*time.Millisecond), l)
		all = append(all, l)
	}
	ws := r.Windows()
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	if want := DurationPercentile(all, 99); ws[0].P99 != want {
		t.Errorf("p99 = %v, want %v", ws[0].P99, want)
	}
	if want := DurationPercentile(all, 50); ws[0].P50 != want {
		t.Errorf("p50 = %v, want %v", ws[0].P50, want)
	}
}

func TestEventsCounters(t *testing.T) {
	e := NewEvents()
	if got := e.Get(EventShed); got != 0 {
		t.Errorf("fresh counter = %d, want 0", got)
	}
	e.Add(EventShed, 1)
	e.Add(EventShed, 2)
	e.Add(EventMigrationRetries, 5)
	if got := e.Get(EventShed); got != 3 {
		t.Errorf("shed = %d, want 3", got)
	}
	snap := e.Snapshot()
	if snap[EventShed] != 3 || snap[EventMigrationRetries] != 5 {
		t.Errorf("snapshot = %v", snap)
	}
	names := e.Names()
	if len(names) != 2 || names[0] != EventMigrationRetries || names[1] != EventShed {
		t.Errorf("names = %v", names)
	}
	// nil registry is a no-op everywhere (callers may run without metrics).
	var nilE *Events
	nilE.Add(EventShed, 1)
	if nilE.Get(EventShed) != 0 || nilE.Snapshot() != nil || nilE.Names() != nil {
		t.Error("nil Events should be inert")
	}
}

func TestEventsConcurrent(t *testing.T) {
	e := NewEvents()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Add(EventShed, 1)
			}
		}()
	}
	wg.Wait()
	if got := e.Get(EventShed); got != 8000 {
		t.Errorf("concurrent adds = %d, want 8000", got)
	}
}

func TestDurationHist(t *testing.T) {
	h := NewDurationHist()
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should read zero")
	}
	// 90 fast observations, 10 slow ones: p50 lands in the fast bucket,
	// p99 in the slow one. Log-2 buckets bound quantiles within 2×.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket [64µs, 128µs)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond) // bucket [8.192ms, 16.384ms)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Max() != 10*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if p50 := h.Quantile(0.5); p50 != 128*time.Microsecond {
		t.Errorf("p50 = %v, want 128µs (upper edge of the fast bucket)", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 16384*time.Microsecond {
		t.Errorf("p99 = %v, want 16.384ms (upper edge of the slow bucket)", p99)
	}
	if mean := h.Mean(); mean < time.Millisecond || mean > 2*time.Millisecond {
		t.Errorf("Mean = %v, want ~1.09ms", mean)
	}
	// Sub-microsecond and negative observations land in bucket 0.
	h.Observe(0)
	h.Observe(-time.Second)
	if snap := h.Snapshot(); snap[0] != 2 {
		t.Errorf("bucket 0 count = %d, want 2", snap[0])
	}
	// An absurdly large observation clamps to the last bucket, whose
	// quantile reads back the true max.
	h2 := NewDurationHist()
	h2.Observe(24 * time.Hour)
	if h2.Quantile(1) != 24*time.Hour {
		t.Errorf("overflow quantile = %v", h2.Quantile(1))
	}
}

func TestDurationHistConcurrent(t *testing.T) {
	h := NewDurationHist()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}
