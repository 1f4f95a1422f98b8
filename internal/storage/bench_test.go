package storage

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
)

// largeTables caches the populated partitions across b.N calibration runs:
// building ten million rows dwarfs any measurable loop, so each size is
// built exactly once per process.
var largeTables = map[int]*Partition{}

func largeTable(b *testing.B, n int) *Partition {
	b.Helper()
	if p, ok := largeTables[n]; ok {
		return p
	}
	const nBuckets = 64
	owned := make([]int, nBuckets)
	for i := range owned {
		owned[i] = i
	}
	p := NewPartition(0, nBuckets, owned)
	p.CreateTable("t")
	cols := map[string]string{"qty": "", "price": "9.99", "state": "active"}
	var key []byte
	for i := 0; i < n; i++ {
		key = append(key[:0], "row-"...)
		key = strconv.AppendInt(key, int64(i), 10)
		cols["qty"] = strconv.Itoa(i & 1023)
		if err := p.Put("t", string(key), cols); err != nil {
			b.Fatal(err)
		}
	}
	largeTables[n] = p
	return p
}

// BenchmarkLargeTable prices the steady state the arena layout exists for:
// point writes against a table of millions of resident rows, with the GC
// walking the whole heap underneath. ns/op is the overwrite cost (index
// lookup + arena append); the reported metrics capture what the boxed-row
// layout could not bound — max-gc-pause-ns is the longest stop-the-world
// pause over a forced collection of the full table (acceptance: <10ms and
// roughly flat from 1M to 10M rows, since tuples live in pages of up to
// 64KB the collector scans as single objects, not per-row map/string
// graphs), and heap-objects counts reachable allocations after collection
// (~index buckets + pages, not rows).
func BenchmarkLargeTable(b *testing.B) {
	for _, n := range []int{1_000_000, 10_000_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			p := largeTable(b, n)
			cols := map[string]string{"qty": "", "price": "9.99", "state": "active"}
			var before runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			var key []byte
			for i := 0; i < b.N; i++ {
				key = append(key[:0], "row-"...)
				key = strconv.AppendInt(key, int64(i%n), 10)
				cols["qty"] = strconv.Itoa(i & 1023)
				if err := p.Put("t", string(key), cols); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Force two collections over the fully populated table and pull
			// the max pause out of the PauseNs ring for the cycles this
			// sub-benchmark caused (forced GCs included — they are the
			// worst-case full-heap cycles).
			runtime.GC()
			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			var maxPause uint64
			for gc := before.NumGC; gc < after.NumGC; gc++ {
				if pause := after.PauseNs[gc%uint32(len(after.PauseNs))]; pause > maxPause {
					maxPause = pause
				}
			}
			b.ReportMetric(float64(maxPause), "max-gc-pause-ns")
			b.ReportMetric(float64(after.HeapObjects), "heap-objects")
		})
	}
}
