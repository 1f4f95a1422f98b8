package migration

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/storage"
	"pstore/internal/testutil"
)

// newCostedCluster is newTestCluster with a migration row cost, so the
// engine's slice budget — max(ServiceTime, 1ms) / MigrationRowCost — cuts
// buckets into several slices.
func newCostedCluster(t *testing.T, nodes, nBuckets int, service, rowCost time.Duration) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		InitialNodes:      nodes,
		PartitionsPerNode: 2,
		NBuckets:          nBuckets,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
		Engine:            engine.Config{ServiceTime: service, MigrationRowCost: rowCost},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// hookStageRows replaces the destination's stage step for the test's
// duration with fn, which sees each batch before (and instead of) the real
// StageRows.
func hookStageRows(t *testing.T, fn func(p *storage.Partition, bucket int, batch *storage.TupleBatch) error) {
	t.Helper()
	real := stageRows
	stageRows = fn
	t.Cleanup(func() { stageRows = real })
}

// fillBucket loads n rows into a bucket partition 0 owns and returns the
// bucket and its keys.
func fillBucket(t *testing.T, c *cluster.Cluster, n int) (int, []string) {
	t.Helper()
	exec0, _ := c.ExecutorOf(0)
	var bucket int
	if err := exec0.Do(func(p *storage.Partition) (int, error) {
		bucket = p.OwnedBuckets()[0]
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("b-%d", i)
		if storage.BucketOf(k, c.NBuckets()) != bucket {
			continue
		}
		if err := c.LoadRow("T", k, map[string]string{"v": k}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return bucket, keys
}

// checkAbortedAtSource asserts a failed move left nothing behind: no capture
// at the source, no staging at the destination, and every row still served
// from the source.
func checkAbortedAtSource(t *testing.T, c *cluster.Cluster, bucket int, keys []string) {
	t.Helper()
	for pid, want := range map[int]bool{0: true, 1: false} {
		exec, _ := c.ExecutorOf(pid)
		if err := exec.Do(func(p *storage.Partition) (int, error) {
			if p.Capturing(bucket) {
				t.Errorf("partition %d still capturing bucket %d", pid, bucket)
			}
			if p.Staged(bucket) != nil {
				t.Errorf("partition %d still staging bucket %d", pid, bucket)
			}
			if p.Owns(bucket) != want {
				t.Errorf("partition %d owns bucket %d = %v, want %v", pid, bucket, !want, want)
			}
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		res := c.Call(&engine.Txn{Proc: "Get", Key: k})
		if res.Err != nil || res.Out["v"] != k {
			t.Fatalf("get %s after the aborted move: %q, %v", k, res.Out["v"], res.Err)
		}
		if res.Partition != 0 {
			t.Fatalf("get %s served by partition %d, want the source 0", k, res.Partition)
		}
	}
}

// TestPipelinedCopyRollbackOnDestinationFailure fails the destination's
// third stage while the source is still copying: the move must stop the
// copier, wait out the stager, and roll back to exactly the pre-move state.
func TestPipelinedCopyRollbackOnDestinationFailure(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := newCostedCluster(t, 1, 8, 0, 100*time.Microsecond) // 10-row slices
	bucket, keys := fillBucket(t, c, 200)
	var mu sync.Mutex
	calls := 0
	hookStageRows(t, func(p *storage.Partition, b int, batch *storage.TupleBatch) error {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 3 {
			return errors.New("destination failed mid-stream")
		}
		return p.StageRows(b, batch)
	})
	m := newHandle(Options{MoveRetries: -1, Seed: 1}.normalized())
	err := m.moveBucketPreCopy(c, bucketMove{bucket: bucket, fromPart: 0, toPart: 1})
	if err == nil || !strings.Contains(err.Error(), "destination failed mid-stream") {
		t.Fatalf("move error = %v, want the destination's failure", err)
	}
	if m.rollbacks.Load() != 1 {
		t.Errorf("rollbacks = %d, want 1", m.rollbacks.Load())
	}
	// The source charges every row it copies: a copier that kept going
	// after the failure would have copied all 200.
	exec0, _ := c.ExecutorOf(0)
	if copied := exec0.MigratedRows(); copied >= int64(len(keys)) {
		t.Errorf("source copied %d of %d rows after the destination failed; the copier did not stop", copied, len(keys))
	}
	checkAbortedAtSource(t, c, bucket, keys)
}

// TestPipelinedCopyCancelMidStream cancels the run while the stream is in
// flight: the move must abort at the next slice and leave the bucket whole
// at its source.
func TestPipelinedCopyCancelMidStream(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := newCostedCluster(t, 1, 8, 0, 100*time.Microsecond)
	bucket, keys := fillBucket(t, c, 200)
	m := newHandle(Options{MoveRetries: -1, Seed: 1}.normalized())
	var mu sync.Mutex
	calls := 0
	hookStageRows(t, func(p *storage.Partition, b int, batch *storage.TupleBatch) error {
		mu.Lock()
		calls++
		if calls == 3 {
			m.abort()
		}
		mu.Unlock()
		return p.StageRows(b, batch)
	})
	err := m.moveBucketPreCopy(c, bucketMove{bucket: bucket, fromPart: 0, toPart: 1})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("move error = %v, want a cancellation", err)
	}
	checkAbortedAtSource(t, c, bucket, keys)
}

// TestPreCopySlicesWithinBudget moves a QuickScale-costed cluster from one
// node to two and checks that no copied batch exceeds the executors'
// budget (8 rows: one 1.2ms transaction of 150µs rows) while every row
// still lands.
func TestPreCopySlicesWithinBudget(t *testing.T) {
	c := newCostedCluster(t, 1, 16, 1200*time.Microsecond, 150*time.Microsecond)
	loadKeys(t, c, 300)
	exec0, _ := c.ExecutorOf(0)
	budget := exec0.MigrationSliceRows()
	if budget != 8 {
		t.Fatalf("QuickScale slice budget = %d, want 8", budget)
	}
	var mu sync.Mutex
	batches, largest := 0, 0
	hookStageRows(t, func(p *storage.Partition, b int, batch *storage.TupleBatch) error {
		mu.Lock()
		batches++
		largest = max(largest, batch.Len())
		mu.Unlock()
		return p.StageRows(b, batch)
	})
	rep, err := Run(c, 2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if largest > budget {
		t.Errorf("a copied batch carried %d rows, budget %d", largest, budget)
	}
	if batches <= rep.BucketsMoved {
		t.Errorf("%d batches for %d buckets: no bucket was cut into slices", batches, rep.BucketsMoved)
	}
	verifyKeys(t, c, 300)
}
