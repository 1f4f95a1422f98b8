package migration

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/storage"
)

// BenchmarkMigrationStall measures what a foreground transaction experiences
// while its bucket is being moved: a hammer goroutine issues Gets against a
// hot key in the moving bucket and records end-to-end wall latency (queueing
// and routing retries included) while the bucket ping-pongs between two
// partitions on the same node. The p99 of those samples is the per-move
// stall: O(residual delta) plus one copy slice of queueing.
// MigrationRowCost makes row transfer time physical: the hot bucket costs
// 30ms to stream (hotRows × MigrationRowCost) at the source and again at
// the destination, pipelined against each other. Each visit carries the
// engine's slice budget, max(ServiceTime, 1ms)/MigrationRowCost clamped to
// 256: here the cap, 256 rows (256µs), because the 2µs transactions are
// shorter than the 1ms floor.
//
// Reported metrics:
//
//	p99stall_ns — 99th percentile foreground Get latency during moves
//	move_ns     — mean end-to-end time of one bucket move
func BenchmarkMigrationStall(b *testing.B) {
	b.Run("precopy", runMigrationStallBench)
}

func runMigrationStallBench(b *testing.B) {
	const (
		nBuckets = 8
		hotRows  = 30000
	)
	c, err := cluster.New(cluster.Config{
		InitialNodes:      1,
		PartitionsPerNode: 2,
		NBuckets:          nBuckets,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
		Engine: engine.Config{
			ServiceTime:      2 * time.Microsecond,
			MigrationRowCost: time.Microsecond,
		},
		RetryInterval: 50 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()

	// Pick a bucket partition 0 owns and fill it with hotRows rows.
	exec0, _ := c.ExecutorOf(0)
	var bucket int
	if err := exec0.Do(func(p *storage.Partition) (int, error) {
		bucket = p.OwnedBuckets()[0]
		return 0, nil
	}); err != nil {
		b.Fatal(err)
	}
	hotKey := ""
	for i, n := 0, 0; n < hotRows; i++ {
		k := fmt.Sprintf("hot-%d", i)
		if storage.BucketOf(k, nBuckets) != bucket {
			continue
		}
		if err := c.LoadRow("T", k, map[string]string{"v": k}); err != nil {
			b.Fatal(err)
		}
		if hotKey == "" {
			hotKey = k
		}
		n++
	}

	// Foreground hammer: sequential Gets on the hot key, wall-clock timed.
	stop := make(chan struct{})
	var lats []time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			res := c.Call(&engine.Txn{Proc: "Get", Key: hotKey})
			if res.Err == nil {
				lats = append(lats, time.Since(t0))
			}
		}
	}()

	opts := Options{MoveRetries: -1, Seed: 1}.normalized()
	m := newHandle(opts)
	b.ResetTimer()
	moveStart := time.Now()
	for i := 0; i < b.N; i++ {
		from, to := 0, 1
		if i%2 == 1 {
			from, to = 1, 0
		}
		if err := m.moveBucket(c, bucketMove{bucket: bucket, fromPart: from, toPart: to}, opts); err != nil {
			b.Fatal(err)
		}
		m.movedMu.Lock()
		delete(m.moved, bucket) // let the next iteration move it back
		m.movedMu.Unlock()
	}
	moveDur := time.Since(moveStart)
	b.StopTimer()
	close(stop)
	wg.Wait()

	if len(lats) == 0 {
		b.Fatal("hammer recorded no samples")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99stall_ns")
	b.ReportMetric(float64(moveDur.Nanoseconds())/float64(b.N), "move_ns")
}
