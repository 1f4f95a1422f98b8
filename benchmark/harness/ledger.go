package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Ledger is one invocation's record: what it ran on and every run's result.
type Ledger struct {
	Env     Env     `json:"env"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Runs    []*Run  `json:"runs"`
	// Claim is always null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`
}

// Write stores the ledger as indented JSON.
func (l *Ledger) Write(path string) error {
	raw, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadLedger loads a ledger file.
func ReadLedger(path string) (*Ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return &l, nil
}

// Summary is the closing line of a full set.
type Summary struct {
	Seed     int64            `json:"seed"`
	Runs     int              `json:"runs"`
	Correct  bool             `json:"correct"`
	Invalid  []string         `json:"invalid,omitempty"`
	Failed   map[string]int64 `json:"failed_requests"`
	GateFail []string         `json:"failed_gates,omitempty"`
	Claim    *string          `json:"claim"`
}

// Summary condenses the ledger; it ends with "claim": null.
func (l *Ledger) Summary() Summary {
	s := Summary{Seed: l.Seed, Runs: len(l.Runs), Correct: true, Failed: map[string]int64{}}
	for _, r := range l.Runs {
		s.Correct = s.Correct && r.Correct
		s.Failed[r.Workload] += r.Failed
		if !r.Valid {
			s.Invalid = append(s.Invalid, r.label())
		}
		for _, g := range r.Gates {
			if !g.OK {
				s.GateFail = append(s.GateFail, r.label()+":"+g.Name)
			}
		}
	}
	return s
}

func (r *Run) label() string {
	if r.Traced {
		return r.Workload + "/traced"
	}
	return r.Workload + "/untraced"
}

// driverResult is the object the benchmark driver reads from the last line
// of standard output.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// DriverResult renders the run for the benchmark driver.
func (r *Run) DriverResult() any {
	out := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// SetTraceOverhead compares this traced run with the untraced run of the
// same workload and seed: the throughput lost on a closed loop, the CPU per
// transaction gained on an open loop (whose throughput is the schedule's).
// Without the untraced twin the metric stays at its zero fill.
func (r *Run) SetTraceOverhead(untraced *Run) {
	if untraced == nil || untraced.throughput == 0 || untraced.cpuPerTxn == 0 {
		return
	}
	overhead := 1 - r.throughput/untraced.throughput
	if r.Workload == WorkloadB2WDay || r.Workload == WorkloadScaleCycle {
		overhead = r.cpuPerTxn/untraced.cpuPerTxn - 1
	}
	r.Metrics.Set("trace.overhead_frac", overhead, "ratio", 1)
}

// Print writes every metric of the run by name with unit and sample count,
// then the hop table, gates and notes.
func (r *Run) Print(w io.Writer, spec *Spec) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g attempted=%d failed=%d correct=%v valid=%v\n",
		r.label(), r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct, r.Valid)
	for _, d := range spec.Declared(r.Traced) {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-40s %16.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	if len(r.Stack) > 0 {
		fmt.Fprintf(w, "  layer stack (one caller, median µs per call):\n")
		for _, h := range r.Stack {
			fmt.Fprintf(w, "    %-40s %10.2f  n=%d\n", h.Name, h.US, h.N)
		}
		fmt.Fprintf(w, "    %-40s %10.2f\n", "stack.residual_us", r.Metrics["stack.residual_us"].Value)
	}
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED: " + g.Detail
		}
		fmt.Fprintf(w, "  gate %-34s %s\n", g.Name, status)
	}
	if len(r.Counters) > 0 {
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, r.Counters[k])
		}
		fmt.Fprintf(w, "  counters %s\n", strings.Join(parts, " "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
