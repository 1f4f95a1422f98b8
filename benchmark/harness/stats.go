package harness

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Metric is one reported number with its unit and the sample count behind
// it. N is 0 for counters and for metrics the workload does not exercise.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Metrics maps metric name to value.
type Metrics map[string]Metric

// Set records a metric. Non-finite values (an empty ratio) read as 0 so the
// ledger stays valid JSON; N tells the reader no sample backed them.
func (m Metrics) Set(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value, n = 0, 0
	}
	m[name] = Metric{Value: value, Unit: unit, N: n}
}

// Validate checks that exactly the declared metrics were emitted, with the
// declared units.
func (m Metrics) Validate(declared []MetricSpec) error {
	seen := make(map[string]bool, len(declared))
	for _, d := range declared {
		got, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("harness: metric %s declared in BENCHMARK.json was not emitted", d.Name)
		}
		if got.Unit != d.Unit {
			return fmt.Errorf("harness: metric %s emitted in %q, BENCHMARK.json says %q", d.Name, got.Unit, d.Unit)
		}
		seen[d.Name] = true
	}
	for name := range m {
		if !seen[name] {
			return fmt.Errorf("harness: metric %s emitted but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// minTailSamples is how many samples must lie beyond a percentile for it to
// be reported: fewer and the number is an extrapolation, not a measurement.
const minTailSamples = 10

// Dist is a sorted sample of one quantity.
type Dist []float64

// NewDist sorts vals in place and returns it as a distribution.
func NewDist(vals []float64) Dist {
	sort.Float64s(vals)
	return Dist(vals)
}

// Quantile returns the q-quantile (nearest rank) and whether the sample
// supports it — at least minTailSamples samples beyond it, or any sample at
// all for the median and below.
func (d Dist) Quantile(q float64) (float64, bool) {
	n := len(d)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	supported := q <= 0.5 || n-1-idx >= minTailSamples
	return d[idx], supported
}

// Median returns the median (0 for an empty sample).
func (d Dist) Median() float64 {
	v, _ := d.Quantile(0.5)
	return v
}

// Max returns the largest sample (0 for an empty sample).
func (d Dist) Max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (d Dist) Mean() float64 {
	if len(d) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// setQuantile emits the q-quantile of d scaled by scale, or 0 when the
// sample cannot support it (N still reports how many samples there were).
func (m Metrics) setQuantile(name string, d Dist, q, scale float64, unit string) {
	v, ok := d.Quantile(q)
	if !ok {
		v = 0
	}
	m.Set(name, v*scale, unit, len(d))
}

// timeSerial calls fn n times from the calling goroutine and returns the
// per-call durations in microseconds.
func timeSerial(n int, fn func(i int) error) (Dist, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return NewDist(out), nil
}

// timeBatched times fn in batches of batch calls (for operations too short
// to time singly) and returns per-call nanoseconds, one sample per batch.
func timeBatched(batches, batch int, fn func(i int)) Dist {
	out := make([]float64, 0, batches)
	i := 0
	for b := 0; b < batches; b++ {
		start := time.Now()
		for k := 0; k < batch; k++ {
			fn(i)
			i++
		}
		out = append(out, float64(time.Since(start).Nanoseconds())/float64(batch))
	}
	return NewDist(out)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
