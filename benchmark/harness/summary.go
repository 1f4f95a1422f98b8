package harness

import (
	"sort"
	"time"
)

// loadResult is what a workload's measured window produced, before it is
// turned into metrics.
type loadResult struct {
	samples     []sample
	moves       []interval // reconfigurations seen during the window
	wall        time.Duration
	cpu         time.Duration // process user+sys CPU over the window, generator included
	rssMax      int64
	avgMachines float64
	slo         time.Duration
	before      runtimeSnap
	after       runtimeSnap
}

// latencySplit sorts the OK samples' latencies (ms) into all / due during a
// move / due outside any move, and counts outcomes.
type latencySplit struct {
	all, move, steady Dist
	attempted, ok     int64
	sloMiss           int64 // failed, refused, never sent, or slower than the limit
}

func splitLatencies(lr *loadResult) latencySplit {
	var sp latencySplit
	all := make([]float64, 0, len(lr.samples))
	var move, steady []float64
	for _, s := range lr.samples {
		sp.attempted++
		if s.lat < 0 {
			sp.sloMiss++
			continue
		}
		sp.ok++
		if time.Duration(s.lat) > lr.slo {
			sp.sloMiss++
		}
		ms := float64(s.lat) / 1e6
		all = append(all, ms)
		if inMove(lr.moves, s.due) {
			move = append(move, ms)
		} else {
			steady = append(steady, ms)
		}
	}
	sp.all, sp.move, sp.steady = NewDist(all), NewDist(move), NewDist(steady)
	return sp
}

// tailBlocks is how many equal blocks a run's requests are cut into for
// lat_p99_ms: 5 % of the run each, so a block of the shortest run the
// benchmark makes (40 000 requests) still has 20 samples beyond its p99.
const tailBlocks = 20

// blockP99 cuts the answered requests, in the order they were due, into
// tailBlocks equal blocks and returns the median of the blocks' p99 latencies
// in ms, with the number of blocks that could support a p99. A whole-run p99
// rests on the slowest 1 % of requests, which a single stall of the host —
// 100 ms of a descheduled vCPU is 200 requests at 2 000 tps — fills on its
// own; such a stall moves one block's p99 and leaves the median of the blocks
// alone, while a tail the system itself produces (queueing, group commit,
// moves) is in most blocks and moves it.
func blockP99(samples []sample) (float64, int) {
	answered := make([]sample, 0, len(samples))
	for _, s := range samples {
		if s.lat >= 0 {
			answered = append(answered, s)
		}
	}
	sort.Slice(answered, func(i, j int) bool { return answered[i].due < answered[j].due })
	var p99s []float64
	for b := 0; b < tailBlocks; b++ {
		block := answered[b*len(answered)/tailBlocks : (b+1)*len(answered)/tailBlocks]
		ms := make([]float64, len(block))
		for i, s := range block {
			ms[i] = float64(s.lat) / 1e6
		}
		if v, ok := NewDist(ms).Quantile(0.99); ok {
			p99s = append(p99s, v)
		}
	}
	return medianOf(p99s), len(p99s)
}

// finishRun fills in what every workload reports the same way: outcome
// counts, then the end-to-end metrics (untraced run) or the workload- and
// runtime-layer metrics (traced run).
func finishRun(r *Run, lr *loadResult, setup []float64) latencySplit {
	sp := splitLatencies(lr)
	r.Attempted, r.Failed = sp.attempted, sp.attempted-sp.ok
	r.SetupS = setup
	r.throughput = ratio(float64(sp.ok), lr.wall.Seconds())
	r.cpuPerTxn = ratio(float64(lr.cpu.Microseconds()), float64(sp.ok))
	m := r.Metrics
	n := len(sp.all)
	if !r.Traced {
		m.Set("setup_s", medianOf(setup), "s", len(setup))
		m.Set("throughput_tps", r.throughput, "txn/s", n)
		m.setQuantile("lat_p50_ms", sp.all, 0.50, 1, "ms")
		p99, blocks := blockP99(lr.samples)
		m.Set("lat_p99_ms", p99, "ms", blocks)
		m.Set("slo_met_frac", 1-ratio(float64(sp.sloMiss), float64(sp.attempted)), "ratio", int(sp.attempted))
		m.Set("avg_machines", lr.avgMachines, "nodes", 0)
		m.Set("rss_peak_mb", float64(lr.rssMax)/(1<<20), "MiB", 0)
		return sp
	}
	m.Set("workload.failed_frac", ratio(float64(r.Failed), float64(sp.attempted)), "ratio", int(sp.attempted))
	m.Set("workload.slo_miss_frac", ratio(float64(sp.sloMiss), float64(sp.attempted)), "ratio", int(sp.attempted))
	m.setQuantile("workload.lat_p99_run_ms", sp.all, 0.99, 1, "ms")
	m.setQuantile("migration.lat_p99_move_ms", sp.move, 0.99, 1, "ms")
	m.setQuantile("migration.lat_p99_steady_ms", sp.steady, 0.99, 1, "ms")
	m.Set("runtime.cpu_us_per_txn", r.cpuPerTxn, "us", n)
	ok := float64(sp.ok)
	m.Set("runtime.allocs_per_txn", ratio(float64(lr.after.mallocs-lr.before.mallocs), ok), "count", n)
	m.Set("runtime.alloc_bytes_per_txn", ratio(float64(lr.after.allocBytes-lr.before.allocBytes), ok), "B", n)
	m.Set("runtime.gc_pause_max_us", float64(lr.after.maxPauseSince(lr.before).Microseconds()), "us", int(lr.after.numGC-lr.before.numGC))
	m.Set("runtime.gc_cpu_frac", lr.after.gcCPUFrac, "ratio", 0)
	return sp
}
