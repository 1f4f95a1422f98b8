package harness

import (
	"io/fs"
	"math"
	"path/filepath"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/metrics"
	"pstore/internal/storage"
)

// histSnap is a point-in-time copy of a metrics.Hist, so a window's
// distribution is the difference of two snapshots.
type histSnap struct {
	buckets    []int64
	count, sum int64
}

func snapHist(h *metrics.Hist) histSnap {
	return histSnap{buckets: h.Snapshot(), count: h.Count(), sum: h.Sum()}
}

func (after histSnap) since(before histSnap) histSnap {
	d := histSnap{buckets: make([]int64, len(after.buckets)), count: after.count - before.count, sum: after.sum - before.sum}
	for i := range d.buckets {
		d.buckets[i] = after.buckets[i]
		if i < len(before.buckets) {
			d.buckets[i] -= before.buckets[i]
		}
	}
	return d
}

func (h histSnap) mean() float64 { return ratio(float64(h.sum), float64(h.count)) }

// quantile returns the upper edge of the log2 bucket holding the q-th
// observation (exact to within 2×, like metrics.Hist.Quantile).
func (h histSnap) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			return math.Ldexp(1, i)
		}
	}
	return math.Ldexp(1, len(h.buckets)-1)
}

// counterSnap is every exported counter the per-layer metrics read, taken at
// the start and end of the measured window so ratios are measured where the
// work happens.
type counterSnap struct {
	at         time.Time
	events     map[string]int64
	processed  map[int]int64 // partition → Executor.Processed
	aborted    map[int]int64
	shed       int64
	retries    int64 // Client.Retries summed over clients
	wireReads  int64
	wireWrites int64
	wireBytes  int64
	appended   int64 // WAL records appended, summed over partitions
	dirBytes   int64
	ackLatency histSnap
	ackWindow  histSnap
	shipBatch  histSnap
	fsyncBatch histSnap
}

func (s *System) snapCounters() counterSnap {
	c := s.Cluster
	ev := c.Events()
	cs := counterSnap{
		at:         time.Now(),
		events:     ev.Snapshot(),
		processed:  map[int]int64{},
		aborted:    map[int]int64{},
		shed:       c.ShedTotal(),
		ackLatency: snapHist(ev.Hist(metrics.HistReplAckLatencyUS)),
		ackWindow:  snapHist(ev.Hist(metrics.HistReplAckWindow)),
		shipBatch:  snapHist(ev.Hist(metrics.HistReplBatchRecords)),
		fsyncBatch: snapHist(ev.Hist(metrics.HistReplStandbyFsyncBatch)),
	}
	for _, e := range c.Executors() {
		pid := e.Partition()
		cs.processed[pid] = e.Processed()
		cs.aborted[pid] = e.Aborted()
		if mgr := c.DurabilityOf(pid); mgr != nil {
			cs.appended += mgr.Appended()
		}
	}
	for _, cl := range s.Clients {
		cs.retries += cl.Retries()
	}
	if s.Wire != nil {
		cs.wireReads, cs.wireWrites, cs.wireBytes = s.Wire.reads.Load(), s.Wire.writes.Load(), s.Wire.bytes.Load()
	}
	if dir := s.clusterCfg.DataDir; dir != "" {
		cs.dirBytes = dirSize(dir)
	}
	return cs
}

// dirSize sums the sizes of the regular files under dir. Files that vanish
// mid-walk (log truncation) are skipped.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

func (cs counterSnap) event(name string) int64 { return cs.events[name] }

// emitLayerCounters turns the counter deltas of one measured window into the
// server, cluster, engine, replication and migration metrics that come from
// counters. ok is the number of OK replies; serviceTime prices executor
// utilisation.
func emitLayerCounters(m Metrics, c *cluster.Cluster, before, after counterSnap, ok int64, serviceTime time.Duration, busy int64) {
	okf := float64(ok)
	d := func(name string) float64 { return float64(after.event(name) - before.event(name)) }
	wall := after.at.Sub(before.at)

	m.Set("server.write_syscalls_per_txn", ratio(float64(after.wireWrites-before.wireWrites), okf), "count", int(ok))
	m.Set("server.read_syscalls_per_txn", ratio(float64(after.wireReads-before.wireReads), okf), "count", int(ok))
	m.Set("server.bytes_per_txn", ratio(float64(after.wireBytes-before.wireBytes), okf), "B", int(ok))
	m.Set("server.busy_replies", float64(busy), "count", 0)
	m.Set("server.client_retries", float64(after.retries-before.retries), "count", 0)

	m.Set("cluster.shed", float64(after.shed-before.shed), "count", 0)
	m.Set("cluster.route_retries_per_ktxn", ratio(1000*d(metrics.EventMigrationRetries), okf), "count", int(ok))

	// Executors come and go with scale-out and scale-in: utilisation is the
	// maximum over those alive at the end, skew is taken over those alive
	// throughout (every partition but the migrated-in ones).
	var procSum, procMax, abortSum, stable, stableSum, stableMax float64
	for pid, p := range after.processed {
		delta := float64(p - before.processed[pid])
		procSum += delta
		procMax = math.Max(procMax, delta)
		abortSum += float64(after.aborted[pid] - before.aborted[pid])
		if _, was := before.processed[pid]; was {
			stable++
			stableSum += delta
			stableMax = math.Max(stableMax, delta)
		}
	}
	m.Set("engine.util_max", ratio(procMax*serviceTime.Seconds(), wall.Seconds()), "ratio", len(after.processed))
	m.Set("engine.partition_skew", ratio(stableMax, ratio(stableSum, stable)), "ratio", int(stable))
	m.Set("engine.aborted_frac", ratio(abortSum, procSum), "ratio", int(procSum))

	if windows := c.Latencies().Windows(); len(windows) > 0 {
		p50s := NewDist(metrics.PercentileSeries(windows, 50))
		p99s := NewDist(metrics.PercentileSeries(windows, 99))
		// PercentileSeries is in milliseconds; the medians over windows are
		// the typical server-side enqueue→result time.
		m.Set("engine.txn_p50_us", p50s.Median()*1e3, "us", len(windows))
		m.Set("engine.txn_p99_us", p99s.Median()*1e3, "us", len(windows))
	}

	ack := after.ackLatency.since(before.ackLatency)
	m.Set("replication.ack_p50_us", ack.quantile(0.50), "us", int(ack.count))
	m.Set("replication.ack_p99_us", ack.quantile(0.99), "us", int(ack.count))
	ship := after.shipBatch.since(before.shipBatch)
	m.Set("replication.ship_batch_mean", ship.mean(), "count", int(ship.count))
	win := after.ackWindow.since(before.ackWindow)
	m.Set("replication.ack_window_p99", win.quantile(0.99), "count", int(win.count))
	m.Set("replication.window_stalls", d(metrics.EventReplWindowStalls), "count", 0)
	fsb := after.fsyncBatch.since(before.fsyncBatch)
	m.Set("replication.standby_fsync_batch_mean", fsb.mean(), "count", int(fsb.count))
	reads := d(metrics.EventReplicaReads) + d(metrics.EventReplFallbackReads)
	m.Set("replication.fallback_read_frac", ratio(d(metrics.EventReplFallbackReads), reads), "ratio", int(reads))
	m.Set("replication.stale_wait_frac", ratio(d(metrics.EventReplStaleWaits), reads), "ratio", int(reads))

	moved := d(metrics.EventPreCopyRows) + d(metrics.EventDeltaRows)
	m.Set("migration.delta_row_frac", ratio(d(metrics.EventDeltaRows), moved), "ratio", int(moved))
	m.Set("migration.move_retries", d(metrics.EventMoveRetries), "count", 0)
	m.Set("migration.rollbacks", d(metrics.EventMoveRollbacks), "count", 0)
	stalls := c.MoveStalls()
	if n := stalls.Count(); n > 0 {
		m.Set("migration.delta_rounds_per_bucket", ratio(d(metrics.EventDeltaRounds), float64(n)), "count", int(n))
		m.Set("migration.stall_max_ms", float64(stalls.Max().Microseconds())/1e3, "ms", int(n))
		p99 := 0.0
		if n/100 >= minTailSamples {
			// The histogram answers with a bucket's upper edge, which can
			// overshoot the largest stall it holds.
			p99 = float64(min(stalls.Quantile(0.99), stalls.Max()).Microseconds()) / 1e3
		}
		m.Set("migration.stall_p99_ms", p99, "ms", int(n))
	}
}

// timeWindows prices the latency recorder's merge-on-read and returns the
// windows it produced.
func timeWindows(m Metrics, c *cluster.Cluster) []metrics.WindowStats {
	start := time.Now()
	windows := c.Latencies().Windows()
	m.Set("metrics.windows_ms", float64(time.Since(start).Microseconds())/1e3, "ms", 1)
	return windows
}

// emitMoves reports the reconfigurations a run saw: how many, how long, how
// fast, and the Fig 8 extrapolation of D — the time for one sender-receiver
// pair to move the whole database — that each implies under Eq. 3.
func emitMoves(m Metrics, moves []interval, from, to []int, rowsMoved float64, wall, slotWall time.Duration, partitionsPerNode int) {
	m.Set("migration.moves", float64(len(moves)), "count", 0)
	var secs, dSlots []float64
	var inMoveNs int64
	for i, mv := range moves {
		dur := time.Duration(mv.end - mv.start)
		inMoveNs += mv.end - mv.start
		secs = append(secs, dur.Seconds())
		b, a := from[i], to[i]
		if b == a || b < 1 || a < 1 {
			continue
		}
		small, large := min(b, a), max(b, a)
		par := float64(partitionsPerNode * min(small, large-small))
		frac := 1 - float64(small)/float64(large)
		dSlots = append(dSlots, dur.Seconds()/slotWall.Seconds()*par/frac)
	}
	m.Set("migration.move_s", NewDist(secs).Median(), "s", len(secs))
	m.Set("migration.rows_per_s", ratio(rowsMoved, float64(inMoveNs)/1e9), "1/s", len(moves))
	m.Set("migration.reconfig_time_frac", ratio(float64(inMoveNs), float64(wall.Nanoseconds())), "ratio", len(moves))
	m.Set("migration.d_measured_slots", NewDist(dSlots).Median(), "slots", len(dSlots))
}

// timeBucketHandoff prices storage's by-reference bucket handoff: extract a
// bucket's pages from one partition and apply them to another, per bucket.
func timeBucketHandoff(src *storage.Partition, buckets []int) (Dist, error) {
	dst := storage.NewPartition(src.ID()+1, src.NBuckets(), nil)
	for _, t := range src.Tables() {
		dst.CreateTable(t)
	}
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		start := time.Now()
		pages, err := src.ExtractBucketPages(b)
		if err != nil {
			return nil, err
		}
		if err := dst.ApplyBucketPages(pages); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return NewDist(out), nil
}
