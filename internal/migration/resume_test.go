package migration

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/metrics"
)

// transientHook fails a bucket move's pre-extract check the first failN
// times it is consulted for any bucket, then passes forever — a node that
// stalls briefly and recovers.
type transientHook struct {
	mu    sync.Mutex
	calls int
	failN int
}

func (h *transientHook) hook(bucket, from, to int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	if h.calls <= h.failN {
		return fmt.Errorf("transient fault %d", h.calls)
	}
	return nil
}

func TestMoveRetriesTransientFaults(t *testing.T) {
	c := newTestCluster(t, 1, 2, 32)
	loadKeys(t, c, 200)
	sumBefore, rowsBefore, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	h := &transientHook{failN: 4}
	opts := fastOpts()
	opts.MoveRetries = 3
	opts.FaultHook = h.hook
	rep, err := Run(c, 2, opts)
	if err != nil {
		t.Fatalf("migration should survive transient faults: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("report shows zero retries despite injected faults")
	}
	if rep.BucketsRemaining != 0 {
		t.Errorf("BucketsRemaining = %d, want 0", rep.BucketsRemaining)
	}
	if rep.FailedBucket != -1 {
		t.Errorf("FailedBucket = %d on a successful run, want -1", rep.FailedBucket)
	}
	if got := c.Events().Get(metrics.EventMoveRetries); got == 0 {
		t.Error("move_retries event counter not incremented")
	}
	sumAfter, rowsAfter, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if sumAfter != sumBefore || rowsAfter != rowsBefore {
		t.Errorf("checksum changed: %x/%d rows → %x/%d rows", sumBefore, rowsBefore, sumAfter, rowsAfter)
	}
	verifyKeys(t, c, 200)
	verifyBalanced(t, c)
}

func TestRollbackOnPostExtractFault(t *testing.T) {
	c := newTestCluster(t, 1, 2, 32)
	loadKeys(t, c, 200)
	// Fail exactly one post-extract check. Per bucket, hook calls alternate
	// pre-extract (1st) / post-extract (2nd) within an attempt, so failing
	// a bucket's second call hits the rollback path with the bucket
	// already extracted and routing repointed — regardless of how many
	// transfer pairs run concurrently.
	var mu sync.Mutex
	perBucket := make(map[int]int)
	victim := -1
	opts := fastOpts()
	opts.MoveRetries = 3
	opts.FaultHook = func(bucket, from, to int) error {
		mu.Lock()
		defer mu.Unlock()
		if victim == -1 {
			victim = bucket
		}
		perBucket[bucket]++
		if bucket == victim && perBucket[bucket] == 2 {
			return errors.New("fault after extract")
		}
		return nil
	}
	rep, err := Run(c, 2, opts)
	if err != nil {
		t.Fatalf("migration should retry through the rollback: %v", err)
	}
	if rep.Rollbacks == 0 {
		t.Error("report shows zero rollbacks despite a post-extract fault")
	}
	if got := c.Events().Get(metrics.EventMoveRollbacks); got == 0 {
		t.Error("move_rollbacks event counter not incremented")
	}
	verifyKeys(t, c, 200)
	verifyBalanced(t, c)
}

func TestFailedMigrationReportsAndResumes(t *testing.T) {
	c := newTestCluster(t, 1, 2, 32)
	loadKeys(t, c, 200)
	sumBefore, rowsBefore, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	// Persistently fail every move of one chosen bucket until the outage
	// flag clears — a destination that stays down past the retry budget.
	var outage atomic.Bool
	outage.Store(true)
	var victim atomic.Int64
	victim.Store(-1)
	opts := fastOpts()
	opts.MoveRetries = 1
	opts.FaultHook = func(bucket, from, to int) error {
		if !outage.Load() {
			return nil
		}
		victim.CompareAndSwap(-1, int64(bucket))
		if int64(bucket) == victim.Load() {
			return errors.New("destination down")
		}
		return nil
	}
	m, err := Start(c, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Wait()
	if err == nil {
		t.Fatal("migration should fail while the outage lasts")
	}
	if rep.FailedBucket != int(victim.Load()) {
		t.Errorf("FailedBucket = %d, want %d", rep.FailedBucket, victim.Load())
	}
	if rep.FailedFrom == rep.FailedTo {
		t.Errorf("failing pair = %d→%d, want distinct partitions", rep.FailedFrom, rep.FailedTo)
	}
	if rep.BucketsRemaining == 0 {
		t.Error("failed run reports zero remaining buckets")
	}
	if rep.BucketsMoved+rep.BucketsRemaining != int(m.totalBuckets) {
		t.Errorf("moved %d + remaining %d != total %d", rep.BucketsMoved, rep.BucketsRemaining, m.totalBuckets)
	}
	// Every key stays readable mid-failure: unmoved buckets at the source,
	// moved ones at the destination, the failed one rolled back.
	verifyKeys(t, c, 200)

	// Outage ends; resume finishes the job without re-moving landed buckets.
	outage.Store(false)
	m2, err := m.Resume(c)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := m2.Wait()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.BucketsRemaining != 0 {
		t.Errorf("resume left %d buckets", rep2.BucketsRemaining)
	}
	if rep2.BucketsMoved != int(m.totalBuckets) {
		t.Errorf("cumulative moved = %d, want %d", rep2.BucketsMoved, m.totalBuckets)
	}
	if c.NumNodes() != 2 {
		t.Errorf("nodes = %d, want 2", c.NumNodes())
	}
	sumAfter, rowsAfter, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if sumAfter != sumBefore || rowsAfter != rowsBefore {
		t.Errorf("rows lost or duplicated: %x/%d → %x/%d", sumBefore, rowsBefore, sumAfter, rowsAfter)
	}
	verifyKeys(t, c, 200)
	verifyBalanced(t, c)

	// A clean migration has nothing to resume.
	if _, err := m2.Resume(c); err == nil {
		t.Error("Resume after success should fail")
	}
}

func TestResumeScaleInRemovesRetiredNodes(t *testing.T) {
	c := newTestCluster(t, 3, 1, 30)
	loadKeys(t, c, 150)
	var outage atomic.Bool
	outage.Store(true)
	var faults atomic.Int64
	opts := fastOpts()
	opts.MoveRetries = 1
	opts.FaultHook = func(bucket, from, to int) error {
		if outage.Load() && faults.Add(1) > 6 {
			return errors.New("sender stalling")
		}
		return nil
	}
	m, err := Start(c, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(); err == nil {
		t.Fatal("scale-in should fail during the outage")
	}
	if c.NumNodes() != 3 {
		t.Errorf("retired node removed before its buckets drained: nodes = %d", c.NumNodes())
	}
	outage.Store(false)
	m2, err := m.Resume(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Wait(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if c.NumNodes() != 2 {
		t.Errorf("nodes = %d after resumed scale-in, want 2", c.NumNodes())
	}
	verifyKeys(t, c, 150)
	verifyBalanced(t, c)
}

func TestResumeWhileRunningRejected(t *testing.T) {
	c := newTestCluster(t, 1, 1, 16)
	loadKeys(t, c, 50)
	opts := Options{BucketsPerChunk: 1, ChunkInterval: 5 * time.Millisecond}
	m, err := Start(c, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(c); err == nil {
		t.Error("Resume on a running migration should fail")
	}
	if _, err := m.Wait(); err != nil {
		t.Fatal(err)
	}
}
