package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two buckets. Bucket i covers
// [2^(i-1), 2^i) (bucket 0 holds 0), so a histogram spans 1 to ~10^9 — as
// microseconds, sub-microsecond to ~17 minutes.
const histBuckets = 31

// Hist is a fixed-size, log2-bucketed histogram of int64 values. It covers
// every pipeline quantity it records: records per ship batch, bytes per
// frame, ack-window occupancy, standby fsync batch sizes, microsecond
// latencies (DurationHist is its time-domain view). Concurrent and
// allocation-free on the record path, like every hot-path metric here.
type Hist struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHist returns an empty value histogram.
func NewHist() *Hist { return &Hist{} }

// valueIndex maps a value to its bucket.
func valueIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	idx := bits.Len64(uint64(v)) // 0 for 0, else floor(log2)+1
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Observe records one value; negative values count as 0.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[valueIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Hist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation.
func (h *Hist) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the average observation (0 when empty).
func (h *Hist) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the top
// edge of the bucket holding the q-th observation, exact to within 2× —
// plenty for "did the stall shrink by an order of magnitude" questions.
// The last bucket is open-ended, so a quantile landing there reads back
// the true maximum.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen > rank {
			if i == histBuckets-1 {
				return h.Max()
			}
			return int64(1) << uint(i)
		}
	}
	return h.Max()
}

// Snapshot returns the per-bucket counts; entry i is the count of
// observations in [2^(i-1), 2^i) (entry 0 counts zeros).
func (h *Hist) Snapshot() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DurationHist is Hist in the time domain: durations are observed as whole
// microseconds, so bucket i covers [2^(i-1), 2^i) µs. The migrator feeds
// it each bucket move's foreground stall window (detach → durable commit),
// the interval during which transactions for the bucket can only retry
// their routing — the quantity the pre-copy protocol exists to shrink from
// O(bucket) to O(delta).
type DurationHist Hist

// NewDurationHist returns an empty histogram.
func NewDurationHist() *DurationHist { return &DurationHist{} }

func (d *DurationHist) hist() *Hist { return (*Hist)(d) }

func micros(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// Observe records one duration; negative durations count as 0.
func (d *DurationHist) Observe(v time.Duration) { d.hist().Observe(int64(v / time.Microsecond)) }

// Count returns the number of observations.
func (d *DurationHist) Count() int64 { return d.hist().Count() }

// Max returns the largest observation.
func (d *DurationHist) Max() time.Duration { return micros(d.hist().Max()) }

// Mean returns the average observation (0 when empty).
func (d *DurationHist) Mean() time.Duration {
	return time.Duration(d.hist().Mean() * float64(time.Microsecond))
}

// Quantile returns an upper bound for the q-quantile, as Hist.Quantile.
func (d *DurationHist) Quantile(q float64) time.Duration { return micros(d.hist().Quantile(q)) }

// Snapshot returns the per-bucket counts, as Hist.Snapshot.
func (d *DurationHist) Snapshot() []int64 { return d.hist().Snapshot() }
