package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Workload names are stable: later issues cite them.
const (
	WorkloadB2WDay     = "b2w_day"
	WorkloadScaleCycle = "scale_cycle"
	WorkloadCartWrite  = "cart_write"
	WorkloadCartRead   = "cart_read"
)

// SLO limits: QuickScale's SLA on the paced workloads; on the hot path a few
// times the closed loop's median (callers / throughput ≈ 7 ms), so the limit
// catches fsync, snapshot and GC stalls rather than cutting through the body
// of the distribution.
const (
	sloPaced = 50 * time.Millisecond
	sloCart  = 25 * time.Millisecond
)

// Scale holds the sizes a run uses. FullScale is what BENCHMARK.json
// measures; the smoke test shrinks it.
type Scale struct {
	SlotWall    time.Duration // b2w_day: wall time of one trace slot
	ScaleCarts  int           // scale_cycle: database size, sets how long a move lasts
	Dwell       time.Duration // scale_cycle: pause between moves
	Carts       int           // cart_*: preloaded carts
	Callers     int           // cart_*: closed-loop callers, split over the connections
	Warmup      time.Duration // cart_*: unmeasured lead-in
	SnapshotGap time.Duration // cart_*: periodic snapshot interval
	ProbeCalls  int           // cart_* traced: calls per layer-stack hop
	SetupReps   int           // fewest set-ups per run; setup_s is their median
	SetupSpend  time.Duration // keep setting up until this much time went into it
}

// FullScale is the benchmark's own sizing.
func FullScale() Scale {
	return Scale{
		SlotWall:    100 * time.Millisecond,
		ScaleCarts:  20000,
		Dwell:       time.Second,
		Carts:       50000,
		Callers:     256,
		Warmup:      2 * time.Second,
		SnapshotGap: 5 * time.Second,
		ProbeCalls:  2000,
		SetupReps:   3,
		SetupSpend:  2 * time.Second,
	}
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	Env      Env
	Scale    Scale
	// Spec is BENCHMARK.json: a traced run reports every per-layer metric it
	// declares, the ones this workload does not exercise as 0 with n=0.
	Spec *Spec
	// OutDir receives trace files and the temporary data directories.
	OutDir string
	// BreakAudit credits the oracle with a write that never happened, so
	// the acked-write audit must fail. Test-only.
	BreakAudit bool
}

// Gate is one correctness check of a run.
type Gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Run is the outcome of one measured run.
type Run struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Valid     bool      `json:"valid"` // false when the generator, not the system, was the limit
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   Metrics   `json:"metrics"`
	Gates     []Gate    `json:"gates"`
	Notes     []string  `json:"notes,omitempty"`
	SetupS    []float64 `json:"setup_s_samples"`
	TraceFile string    `json:"trace_file,omitempty"`
	// Stack is the layer-stack probe's hop table (traced cart_* runs).
	Stack []Hop `json:"stack,omitempty"`
	// Counters carries per-run facts tests assert on that are not metrics.
	Counters map[string]int64 `json:"counters,omitempty"`

	// throughput and cpuPerTxn are kept on traced runs too, so a traced and
	// an untraced run of the same workload yield trace.overhead_frac.
	throughput, cpuPerTxn float64
}

func (r *Run) gate(name string, err error) {
	g := Gate{Name: name, OK: err == nil}
	if err != nil {
		g.Detail = err.Error()
		r.Correct = false
	}
	r.Gates = append(r.Gates, g)
}

func (r *Run) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Execute performs one run of one workload.
func Execute(o Options) (*Run, error) {
	r := &Run{
		Workload: o.Workload, Traced: o.Traced, Seed: o.Seed, Seconds: o.Seconds,
		Correct: true, Valid: true, Metrics: Metrics{}, Counters: map[string]int64{},
	}
	var err error
	switch o.Workload {
	case WorkloadB2WDay:
		err = runB2WDay(o, r)
	case WorkloadScaleCycle:
		err = runScaleCycle(o, r)
	case WorkloadCartWrite, WorkloadCartRead:
		err = runCart(o, r)
	default:
		err = fmt.Errorf("harness: unknown workload %q", o.Workload)
	}
	if err != nil {
		return nil, err
	}
	if o.Traced {
		for _, d := range o.Spec.PerLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.Metrics.Set(d.Name, 0, d.Unit, 0)
			}
		}
	}
	return r, nil
}

// maxSetupReps bounds what a cheap set-up is repeated.
const maxSetupReps = 25

// repeatSetup builds the system at least o.SetupReps times, and on until
// o.SetupSpend went into building or maxSetupReps builds were made; it keeps
// the last and tears the others down, and returns every build's duration.
// setup_s is their median: a 30 ms set-up needs many more samples than an
// 800 ms one before a slow fsync or page fault stops reading as a regression.
func repeatSetup[T any](o Scale, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var zero T
	var took []float64
	var spent time.Duration
	for {
		start := time.Now()
		sys, err := build()
		if err != nil {
			return zero, nil, err
		}
		d := time.Since(start)
		spent += d
		took = append(took, d.Seconds())
		if n := len(took); n >= maxSetupReps || (n >= o.SetupReps && spent >= o.SetupSpend) {
			return sys, took, nil
		}
		teardown(sys)
	}
}

func medianOf(vals []float64) float64 {
	return NewDist(append([]float64(nil), vals...)).Median()
}

// dataDir returns the run's temporary data directory under OutDir.
func (o Options) dataDir() string {
	return filepath.Join(o.OutDir, "data-"+o.Workload)
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "pstore-bench: removing %s: %v\n", dir, err)
	}
}
