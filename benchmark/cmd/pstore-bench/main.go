// Command pstore-bench is the P-Store performance ledger (see ../../README.md).
//
//	pstore-bench -workload all -seed N -out FILE     full set: every workload, untraced then traced
//	pstore-bench -workload W -seed N -seconds S -trace 0|1   one run; last stdout line is the driver's JSON
//	pstore-bench -compare A.json B.json              apply BENCHMARK.json's bounds to two ledgers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"pstore/benchmark/harness"
)

// config is the command line.
type config struct {
	workload, trace, out, root string
	seed                       int64
	seconds                    float64
	repeat                     int
	compare, breakAudit        bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "b2w_day, scale_cycle, cart_write, cart_read or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "derives the trace seed, the b2w.Driver seed and the key/SKU pickers")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measured seconds per run (default: run_seconds from BENCHMARK.json)")
	flag.StringVar(&cfg.trace, "trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
	flag.IntVar(&cfg.repeat, "repeat", 1, "repeat the set this many times on seeds seed, seed+1, …")
	flag.StringVar(&cfg.out, "out", "", "ledger file (default benchmark/out/ledger-<seed>.json)")
	flag.StringVar(&cfg.root, "root", "", "repository root holding BENCHMARK.json (default: found above the working directory)")
	flag.BoolVar(&cfg.compare, "compare", false, "compare two ledger files given as arguments")
	flag.BoolVar(&cfg.breakAudit, "break-audit", false, "test only: credit the oracle with a write that never happened; the run must fail")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pstore-bench: %v\n", err)
		if code, ok := err.(exitCode); ok {
			os.Exit(int(code))
		}
		os.Exit(1)
	}
}

// exitCode is an error that only sets the exit status (the rows already
// printed say why).
type exitCode int

func (e exitCode) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

func run(cfg config) error {
	root, seconds := cfg.root, cfg.seconds
	if root == "" {
		var err error
		if root, err = harness.FindRoot("."); err != nil {
			return err
		}
	}
	spec, err := harness.LoadSpec(root)
	if err != nil {
		return err
	}
	if cfg.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two ledger files")
		}
		status, err := harness.CompareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return err
		}
		if status != 0 {
			return exitCode(status)
		}
		return nil
	}

	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	var workloads []string
	switch {
	case cfg.workload == "all":
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	case spec.HasWorkload(cfg.workload):
		workloads = []string{cfg.workload}
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var traced []bool
	switch cfg.trace {
	case "0":
		traced = []bool{false}
	case "1":
		traced = []bool{true}
	case "both":
		traced = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, got %q", cfg.trace)
	}
	driverMode := len(workloads) == 1 && len(traced) == 1 && cfg.repeat == 1

	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Temporary data directories are removed on the way out of every run;
	// a signal must not leave one behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		for _, w := range workloads {
			os.RemoveAll(filepath.Join(outDir, "data-"+w))
		}
		os.Exit(130)
	}()

	ledger := &harness.Ledger{Env: harness.SizeProcess(), Seed: cfg.seed, Seconds: seconds}
	allCorrect := true
	for rep := 0; rep < cfg.repeat; rep++ {
		for _, w := range workloads {
			var untraced *harness.Run
			for _, tr := range traced {
				r, err := harness.Execute(harness.Options{
					Workload: w, Seed: cfg.seed + int64(rep), Seconds: seconds, Traced: tr,
					Env: ledger.Env, Scale: harness.FullScale(), Spec: spec, OutDir: outDir, BreakAudit: cfg.breakAudit,
				})
				if err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				if tr {
					r.SetTraceOverhead(untraced)
				} else {
					untraced = r
				}
				if err := r.Metrics.Validate(spec.Declared(tr)); err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				r.Print(os.Stdout, spec)
				allCorrect = allCorrect && r.Correct
				ledger.Runs = append(ledger.Runs, r)
			}
		}
	}

	if driverMode {
		// The driver reads the last line: exactly correct, attempted,
		// failed and metrics.
		line, err := json.Marshal(ledger.Runs[0].DriverResult())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	} else {
		out := cfg.out
		if out == "" {
			out = filepath.Join(outDir, fmt.Sprintf("ledger-%d.json", cfg.seed))
		}
		if err := ledger.Write(out); err != nil {
			return err
		}
		fmt.Printf("ledger written to %s\n", out)
		summary, err := json.Marshal(ledger.Summary())
		if err != nil {
			return err
		}
		fmt.Println(string(summary))
	}
	if !allCorrect {
		return exitCode(1)
	}
	return nil
}
