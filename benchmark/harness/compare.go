package harness

import (
	"fmt"
	"io"
	"sort"
)

// quartileSpread returns the distance between the first and third quartile
// as a share of the median, with the quartiles computed the way Python's
// statistics.quantiles(values, n=4) computes them — the benchmark driver's
// own steadiness rule. It needs at least four values.
func quartileSpread(vals []float64) (spread float64, ok bool) {
	n := len(vals)
	if n < 4 {
		return 0, false
	}
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0, false
	}
	return (q(3) - q(1)) / med, true
}

// CompareFiles applies BENCHMARK.json's bounds to two ledgers and prints one
// row per (end-to-end metric, workload): ok, regressed when B's median is
// worse than A's by more than the bound, or unresolved when either file's
// own run-to-run spread exceeds the bound (spread needs at least four runs
// of the workload in a file; single runs have none to show). The status is
// 1 if any row regressed, 2 if none did but some are unresolved, else 0.
func CompareFiles(w io.Writer, spec *Spec, pathA, pathB string) (int, error) {
	a, err := ReadLedger(pathA)
	if err != nil {
		return 0, err
	}
	b, err := ReadLedger(pathB)
	if err != nil {
		return 0, err
	}
	values := func(l *Ledger, workload, metric string) []float64 {
		var out []float64
		for _, r := range l.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				out = append(out, m.Value)
			}
		}
		return out
	}
	status := 0
	fmt.Fprintf(w, "%-20s %-12s %14s %14s %9s %7s  %s\n", "metric", "workload", "A median", "B median", "change", "bound", "verdict")
	for _, ws := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := values(a, ws.Name, ms.Name), values(b, ws.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				return 0, fmt.Errorf("harness: %s on %s is missing from one of the ledgers", ms.Name, ws.Name)
			}
			ma, mb := medianOf(va), medianOf(vb)
			worse := ratio(mb-ma, ma)
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			sa, okA := quartileSpread(va)
			sb, okB := quartileSpread(vb)
			switch {
			case okA && sa > ms.Bound, okB && sb > ms.Bound:
				verdict = fmt.Sprintf("unresolved (spread A %.3f, B %.3f)", sa, sb)
				if status == 0 {
					status = 2
				}
			case worse > ms.Bound:
				verdict = "regressed"
				status = 1
			}
			fmt.Fprintf(w, "%-20s %-12s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", ms.Name, ws.Name, ma, mb, ratio(mb-ma, ma)*100, ms.Bound*100, verdict)
		}
	}
	return status, nil
}
