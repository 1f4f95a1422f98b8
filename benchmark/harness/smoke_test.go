package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every workload so the whole set runs in seconds: one
// replayed day at 20 ms slots, 2 s hot loops, 2 000 carts. No value is gated
// here — only that every metric is emitted and every gate holds.
func smokeScale() Scale {
	return Scale{
		SlotWall:    20 * time.Millisecond,
		ScaleCarts:  2000,
		Dwell:       200 * time.Millisecond,
		Carts:       2000,
		Callers:     16,
		Warmup:      200 * time.Millisecond,
		SnapshotGap: 500 * time.Millisecond,
		ProbeCalls:  200,
		SetupReps:   1,
	}
}

func smokeOptions(t *testing.T, spec *Spec, workload string, traced bool) Options {
	seconds := 2.0
	if workload == WorkloadB2WDay {
		seconds = 144 * 0.020 // one day
	}
	return Options{
		Workload: workload, Seed: 7, Seconds: seconds, Traced: traced,
		Env: SizeProcess(), Scale: smokeScale(), Spec: spec, OutDir: t.TempDir(),
	}
}

func loadSpec(t *testing.T) *Spec {
	t.Helper()
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted asserts that the run emitted exactly the declared metrics,
// each finite, with its unit and a well-formed name.
func checkEmitted(t *testing.T, spec *Spec, r *Run) {
	t.Helper()
	if err := r.Metrics.Validate(spec.Declared(r.Traced)); err != nil {
		t.Error(err)
	}
	for name, m := range r.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is malformed", r.label(), name)
		}
		if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v %q is not a finite number with a unit", r.label(), name, m.Value, m.Unit)
		}
	}
	if !r.Correct {
		t.Errorf("%s: gates failed: %+v", r.label(), r.Gates)
	}
	if r.Attempted < 1 {
		t.Errorf("%s: attempted %d", r.label(), r.Attempted)
	}
}

// exercised asserts the named per-layer metrics have samples behind them.
func exercised(t *testing.T, r *Run, want bool, names ...string) {
	t.Helper()
	for _, name := range names {
		if got := r.Metrics[name].N > 0; got != want {
			t.Errorf("%s: metric %s has n=%d, exercised should be %v", r.label(), name, r.Metrics[name].N, want)
		}
	}
}

// checkSpansNest asserts every span with a parent lies inside it.
func checkSpansNest(t *testing.T, path string, wantNames ...string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint64]Span{}
	var spans []Span
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
		seen[strings.Fields(s.Name)[0]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s names missing parent %d", s.ID, s.Name, s.Parent)
		} else if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %s [%d,%d] escapes parent %s [%d,%d]", s.ID, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	for _, name := range wantNames {
		if !seen[name] {
			t.Errorf("trace %s has no %s span", filepath.Base(path), name)
		}
	}
}

func runBoth(t *testing.T, spec *Spec, workload string) (untraced, traced *Run) {
	t.Helper()
	for _, tr := range []bool{false, true} {
		r, err := Execute(smokeOptions(t, spec, workload, tr))
		if err != nil {
			t.Fatalf("%s traced=%v: %v", workload, tr, err)
		}
		if tr {
			r.SetTraceOverhead(untraced)
			traced = r
		} else {
			untraced = r
		}
		checkEmitted(t, spec, r)
	}
	return untraced, traced
}

func TestSmokeB2WDay(t *testing.T) {
	t.Parallel()
	spec := loadSpec(t)
	_, traced := runBoth(t, spec, WorkloadB2WDay)
	exercised(t, traced, true, "predict.forecast_us", "plan.bestmoves_us", "controller.step_p50_us", "predict.mre_1", "workload.next_us")
	exercised(t, traced, false, "server.wire_us", "durability.recover_s", "replication.ack_p50_us")
	checkSpansNest(t, traced.TraceFile, "client.call", "controller.step", "predict.forecast")
}

func TestSmokeScaleCycle(t *testing.T) {
	t.Parallel()
	spec := loadSpec(t)
	_, traced := runBoth(t, spec, WorkloadScaleCycle)
	// The control for any forecasting or planning change: neither runs here.
	exercised(t, traced, false, "predict.forecast_us", "predict.fit_ms", "plan.bestmoves_us", "controller.step_p50_us")
	if traced.Counters["predict_calls"] != 0 || traced.Counters["plan_calls"] != 0 {
		t.Errorf("scale_cycle called the predictor or planner: %v", traced.Counters)
	}
	if traced.Metrics["migration.moves"].Value < 1 {
		t.Errorf("scale_cycle saw no reconfiguration")
	}
	exercised(t, traced, true, "migration.move_s", "migration.stall_max_ms", "storage.bucket_handoff_us")
	checkSpansNest(t, traced.TraceFile, "client.call", "client.scale", "migration.run")
}

func TestSmokeCart(t *testing.T) {
	spec := loadSpec(t)
	for _, workload := range []string{WorkloadCartWrite, WorkloadCartRead} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			t.Parallel()
			untraced, traced := runBoth(t, spec, workload)
			for _, r := range []*Run{untraced, traced} {
				// Every write is one log record and one shipped record;
				// reads add none.
				c := r.Counters
				if c["writes"] == 0 || c["wal_appended"] != c["writes"] || c["repl_shipped"] != c["writes"] {
					t.Errorf("%s: writes %d, WAL appends %d, shipped records %d — all three must agree",
						r.label(), c["writes"], c["wal_appended"], c["repl_shipped"])
				}
				if workload == WorkloadCartRead && c["writes"]*5 > r.Attempted {
					t.Errorf("%s: %d writes in %d requests, want about 5%%", r.label(), c["writes"], r.Attempted)
				}
			}
			if traced.Metrics["migration.moves"].Value != 0 {
				t.Errorf("%s: saw a reconfiguration", workload)
			}
			exercised(t, traced, true, "server.ping_rtt_us", "server.wire_us", "stack.residual_us", "storage.getview_us",
				"durability.recover_s", "durability.snapshot_s", "metrics.record_ns", "trace.overhead_frac")
			exercised(t, traced, false, "predict.forecast_us", "plan.bestmoves_us", "migration.move_s")
			exercised(t, traced, workload == WorkloadCartWrite, "engine.exec_us", "storage.put_us", "durability.append_durable_us", "cluster.call_us")
			exercised(t, traced, workload == WorkloadCartRead, "cluster.readonly_us", "replication.fallback_read_frac")
			if len(traced.Stack) == 0 {
				t.Errorf("%s: no layer-stack table", workload)
			}
			checkSpansNest(t, traced.TraceFile, "client.call")
		})
	}
}

// TestBrokenAuditFails proves the acked-write gates can fail: one phantom
// acked write in the oracle must turn the run incorrect.
func TestBrokenAuditFails(t *testing.T) {
	t.Parallel()
	spec := loadSpec(t)
	for _, workload := range []string{WorkloadCartWrite, WorkloadScaleCycle} {
		o := smokeOptions(t, spec, workload, false)
		o.Seconds = 0.5
		o.BreakAudit = true
		r, err := Execute(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct {
			t.Errorf("%s: a phantom acked write passed the audit: %+v", workload, r.Gates)
		}
	}
}

func TestClaimDataDirRefusesLeftovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data-cart_write")
	if err := claimDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := claimDataDir(dir); err == nil {
		t.Error("a data dir left by a previous run was claimed again")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) = [2.75, 5.5, 8.25]
	got, ok := quartileSpread([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 20})
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := quartileSpread([]float64{1, 2, 3}); ok {
		t.Error("three values have no quartiles")
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{
		Workloads: []WorkloadSpec{{Name: "w"}},
		EndToEnd: []MetricSpec{
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "tput", Unit: "txn/s", Better: "higher", Bound: 0.10},
		},
	}
	write := func(name string, lat, tput []float64) string {
		l := &Ledger{}
		for i := range lat {
			m := Metrics{}
			m.Set("lat", lat[i], "ms", 1)
			m.Set("tput", tput[i], "txn/s", 1)
			l.Runs = append(l.Runs, &Run{Workload: "w", Metrics: m})
		}
		path := filepath.Join(t.TempDir(), name)
		if err := l.Write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{10}, []float64{100})
	cases := []struct {
		name   string
		other  string
		status int
		want   string
	}{
		{"same", write("b.json", []float64{10.5}, []float64{95}), 0, "ok"},
		{"slower", write("c.json", []float64{12}, []float64{100}), 1, "regressed"},
		{"less throughput", write("d.json", []float64{10}, []float64{80}), 1, "regressed"},
		{"faster is fine", write("e.json", []float64{5}, []float64{200}), 0, "ok"},
		{"noisy", write("f.json", []float64{8, 10, 12, 14, 9}, []float64{100, 100, 100, 100, 100}), 2, "unresolved"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		status, err := CompareFiles(&out, spec, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if status != tc.status || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: status %d, output:\n%s\nwant status %d and a %q row", tc.name, status, out.String(), tc.status, tc.want)
		}
	}
}
