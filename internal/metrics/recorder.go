package metrics

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// WindowStats summarizes the latencies observed in one window (the paper
// windows by second; compressed-time experiments use shorter windows).
type WindowStats struct {
	Start time.Time
	Count int
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// retainedWindows is how many windows of raw samples a recorder keeps
// behind its newest observation before summarizing them. Every Record site
// stamps time.Now(), so no sample arrives more than a scheduling delay
// late, and a longer horizon only makes the heap grow with throughput:
// 8 bytes × txn/s × horizon.
const retainedWindows = 4

// ShardedRecorder collects transaction latencies into fixed-size time
// windows and summarizes each window's percentiles. It is safe for
// concurrent use and built for hot paths: observations are striped across
// per-shard sample buffers (each with its own mutex, on its own cache
// line), window bookkeeping is done with atomics, and shards are only
// merged on read, so many concurrent recorders — every executor and client
// goroutine — never cross a global mutex.
//
// Samples bucket into fixed windows from the first observation's epoch.
// Windows more than retainedWindows behind the newest observation are
// summarized into fixed-size WindowStats and their raw samples freed, so
// memory is bounded by the horizon, not the run length; observations
// arriving for an already-summarized window are dropped (and counted in
// LateDropped).
type ShardedRecorder struct {
	window time.Duration

	epochOnce sync.Once
	epoch     time.Time

	next   atomic.Uint64 // round-robin shard cursor
	maxIdx atomic.Int64  // newest window seen
	floor  atomic.Int64  // windows ≤ floor are summarized (or in progress)
	late   atomic.Int64

	shards []recorderShard

	fmu       sync.Mutex
	finalized map[int64]WindowStats
}

// recorderShard is one stripe: a mutex plus its own window→samples map,
// padded so neighboring shards do not share a cache line.
type recorderShard struct {
	mu      sync.Mutex
	buckets map[int64][]time.Duration
	_       [40]byte
}

// defaultShards sizes the stripe count to the machine (a power of two so
// the shard pick is a mask, capped to keep merge-on-read cheap).
func defaultShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 32 {
		n <<= 1
	}
	return n
}

// NewShardedRecorder returns a recorder with the given window size
// (typically one second, per the paper's SLA definition). Shard count
// scales with GOMAXPROCS.
func NewShardedRecorder(window time.Duration) *ShardedRecorder {
	if window <= 0 {
		window = time.Second
	}
	s := &ShardedRecorder{
		window:    window,
		shards:    make([]recorderShard, defaultShards()),
		finalized: make(map[int64]WindowStats),
	}
	for i := range s.shards {
		s.shards[i].buckets = make(map[int64][]time.Duration)
	}
	s.maxIdx.Store(-1)
	s.floor.Store(-1)
	return s
}

// Record adds one latency observation at the given time.
func (s *ShardedRecorder) Record(at time.Time, latency time.Duration) {
	s.epochOnce.Do(func() { s.epoch = at })
	idx := int64(at.Sub(s.epoch) / s.window)
	sh := &s.shards[s.next.Add(1)&uint64(len(s.shards)-1)]
	sh.mu.Lock()
	// The floor check happens under the shard lock: eviction advances the
	// floor while holding every shard lock, so a sample appended here can
	// never belong to a window eviction already swept.
	if idx <= s.floor.Load() {
		sh.mu.Unlock()
		s.late.Add(1)
		return
	}
	sh.buckets[idx] = append(sh.buckets[idx], latency)
	sh.mu.Unlock()
	for {
		m := s.maxIdx.Load()
		if idx <= m {
			return
		}
		if s.maxIdx.CompareAndSwap(m, idx) {
			s.evict()
			return
		}
	}
}

// evict summarizes and frees raw windows older than the horizon. Only the
// Record that advanced maxIdx pays this cost — once per window boundary,
// not per sample.
func (s *ShardedRecorder) evict() {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	target := s.maxIdx.Load() - retainedWindows
	if target <= s.floor.Load() {
		return
	}
	// Collect every stale window's samples from all shards. Holding all
	// shard locks while advancing the floor makes the sweep atomic with
	// respect to Record's floor check.
	merged := make(map[int64][]time.Duration)
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	s.floor.Store(target)
	for i := range s.shards {
		for idx, lat := range s.shards[i].buckets {
			if idx <= target {
				merged[idx] = append(merged[idx], lat...)
				delete(s.shards[i].buckets, idx)
			}
		}
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	for idx, lat := range merged {
		s.finalized[idx] = summarizeWindow(s.epoch, s.window, idx, lat)
	}
}

// merge returns all still-raw windows combined across shards. Caller must
// not hold any shard lock.
func (s *ShardedRecorder) merge() map[int64][]time.Duration {
	out := make(map[int64][]time.Duration)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for idx, lat := range sh.buckets {
			out[idx] = append(out[idx], lat...)
		}
		sh.mu.Unlock()
	}
	return out
}

// Count returns the total number of recorded observations (summarized
// windows included).
func (s *ShardedRecorder) Count() int {
	n := 0
	for _, lat := range s.merge() {
		n += len(lat)
	}
	s.fmu.Lock()
	for _, ws := range s.finalized {
		n += ws.Count
	}
	s.fmu.Unlock()
	return n
}

// LateDropped returns the number of observations dropped because their
// window had already been summarized and evicted.
func (s *ShardedRecorder) LateDropped() int64 { return s.late.Load() }

// RawWindows returns the number of windows still holding raw samples
// (bounded by the retention horizon).
func (s *ShardedRecorder) RawWindows() int { return len(s.merge()) }

// Windows returns per-window summaries in time order, merging summarized
// and still-raw windows.
func (s *ShardedRecorder) Windows() []WindowStats {
	// Pin the epoch if no observation has: reading it below must not race
	// with a first concurrent Record.
	s.epochOnce.Do(func() { s.epoch = time.Now() })
	raw := s.merge()
	s.fmu.Lock()
	defer s.fmu.Unlock()
	idxs := make([]int64, 0, len(raw)+len(s.finalized))
	for i := range raw {
		if _, done := s.finalized[i]; !done {
			idxs = append(idxs, i)
		}
	}
	for i := range s.finalized {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]WindowStats, 0, len(idxs))
	for _, i := range idxs {
		if ws, ok := s.finalized[i]; ok {
			out = append(out, ws)
			continue
		}
		out = append(out, summarizeWindow(s.epoch, s.window, i, raw[i]))
	}
	return out
}

// summarizeWindow computes one window's statistics.
func summarizeWindow(epoch time.Time, window time.Duration, idx int64, lat []time.Duration) WindowStats {
	sorted := make([]float64, len(lat))
	var sum, max time.Duration
	for j, l := range lat {
		sorted[j] = float64(l)
		sum += l
		if l > max {
			max = l
		}
	}
	sort.Float64s(sorted)
	ws := WindowStats{
		Start: epoch.Add(time.Duration(idx) * window),
		Count: len(lat),
		P50:   time.Duration(percentileSorted(sorted, 50)),
		P95:   time.Duration(percentileSorted(sorted, 95)),
		P99:   time.Duration(percentileSorted(sorted, 99)),
		Max:   max,
	}
	if len(lat) > 0 {
		ws.Mean = sum / time.Duration(len(lat))
	}
	return ws
}

// SLAReport counts, per percentile, the number of windows whose percentile
// latency exceeded the threshold — Table 2's "number of SLA violations".
type SLAReport struct {
	Threshold     time.Duration
	Windows       int
	P50Violations int
	P95Violations int
	P99Violations int
}

// SLAViolations evaluates the windows against a latency threshold (the
// paper uses 500 ms, the largest delay unnoticeable to users).
func SLAViolations(windows []WindowStats, threshold time.Duration) SLAReport {
	rep := SLAReport{Threshold: threshold, Windows: len(windows)}
	for _, w := range windows {
		if w.P50 > threshold {
			rep.P50Violations++
		}
		if w.P95 > threshold {
			rep.P95Violations++
		}
		if w.P99 > threshold {
			rep.P99Violations++
		}
	}
	return rep
}

// PercentileSeries extracts one percentile (50, 95 or 99) across windows,
// in milliseconds — the input to the Fig 10 CDFs.
func PercentileSeries(windows []WindowStats, p int) []float64 {
	out := make([]float64, 0, len(windows))
	for _, w := range windows {
		var v time.Duration
		switch p {
		case 50:
			v = w.P50
		case 95:
			v = w.P95
		case 99:
			v = w.P99
		default:
			continue
		}
		out = append(out, float64(v)/float64(time.Millisecond))
	}
	return out
}
