// Package harness is the P-Store performance ledger: it assembles the
// system from the constructors cmd/pstore-server uses, drives it through
// server.Client over loopback TCP, and measures it from outside — timing
// calls into exported functions and reading counters the packages already
// export. See ../README.md for the workloads and how the metrics interact.
package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// MetricSpec is one metric declared in BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec names a workload and records why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json: the single source of metric names, units and
// bounds. The harness emits metrics by name and Validate checks them
// against it, so the file and the code cannot drift silently.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// FindRoot walks up from dir to the directory holding BENCHMARK.json.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("harness: no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// LoadSpec reads BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("harness: BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Declared returns the metrics a run of the given kind must emit: every
// end-to-end metric when untraced, every per-layer metric when traced.
func (s *Spec) Declared(traced bool) []MetricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// HasWorkload reports whether name is one of the declared workloads.
func (s *Spec) HasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
