package migration

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/storage"
)

func testRegistry() *engine.Registry {
	reg := engine.NewRegistry()
	reg.Register("Put", func(tx *engine.Txn) error {
		return tx.Put("T", tx.Key, map[string]string{"v": tx.Arg("v")})
	})
	reg.Register("Get", func(tx *engine.Txn) error {
		r, ok, err := tx.Get("T", tx.Key)
		if err != nil {
			return err
		}
		if !ok {
			return tx.Abort("not found")
		}
		tx.SetOut("v", r.Cols["v"])
		return nil
	})
	reg.Register("Delete", func(tx *engine.Txn) error {
		_, err := tx.Delete("T", tx.Key)
		return err
	})
	return reg
}

func newTestCluster(t *testing.T, nodes, partsPerNode, nBuckets int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		InitialNodes:      nodes,
		PartitionsPerNode: partsPerNode,
		NBuckets:          nBuckets,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func loadKeys(t *testing.T, c *cluster.Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.LoadRow("T", key, map[string]string{"v": key}); err != nil {
			t.Fatal(err)
		}
	}
}

func verifyKeys(t *testing.T, c *cluster.Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		res := c.Call(&engine.Txn{Proc: "Get", Key: key})
		if res.Err != nil {
			t.Fatalf("get %s: %v", key, res.Err)
		}
		if res.Out["v"] != key {
			t.Fatalf("get %s = %q", key, res.Out["v"])
		}
	}
}

func fastOpts() Options {
	return Options{BucketsPerChunk: 4, ChunkInterval: 100 * time.Microsecond}
}

func verifyBalanced(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	counts := c.BucketCounts()
	min, max := 1<<30, 0
	for _, n := range counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if len(counts) != c.NumNodes()*c.PartitionsPerNode() {
		t.Errorf("bucket owners span %d partitions, want %d", len(counts), c.NumNodes()*c.PartitionsPerNode())
	}
	if max-min > 1 {
		t.Errorf("bucket counts unbalanced: min %d max %d (%v)", min, max, counts)
	}
}

func TestScaleOutPreservesDataAndBalances(t *testing.T) {
	c := newTestCluster(t, 2, 2, 64)
	loadKeys(t, c, 400)
	rep, err := Run(c, 4, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if rep.BucketsMoved == 0 || rep.RowsMoved == 0 {
		t.Errorf("report = %+v", rep)
	}
	verifyKeys(t, c, 400)
	verifyBalanced(t, c)
	if n, _ := c.TotalRows(); n != 400 {
		t.Errorf("TotalRows = %d", n)
	}
}

func TestScaleInPreservesDataAndBalances(t *testing.T) {
	c := newTestCluster(t, 4, 2, 64)
	loadKeys(t, c, 400)
	_, err := Run(c, 2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	verifyKeys(t, c, 400)
	verifyBalanced(t, c)
}

func TestScaleOutThreePhaseCase(t *testing.T) {
	// 3 → 14 with 1 partition per node exercises the three-phase schedule
	// (Table 1).
	c := newTestCluster(t, 3, 1, 140)
	loadKeys(t, c, 300)
	rep, err := Run(c, 14, Options{BucketsPerChunk: 8, ChunkInterval: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 11 {
		t.Errorf("rounds = %d, want 11", rep.Rounds)
	}
	verifyKeys(t, c, 300)
	verifyBalanced(t, c)
}

func TestMigrationNoop(t *testing.T) {
	c := newTestCluster(t, 2, 2, 64)
	rep, err := Run(c, 2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BucketsMoved != 0 {
		t.Errorf("no-op moved %d buckets", rep.BucketsMoved)
	}
}

func TestMigrationInvalidTarget(t *testing.T) {
	c := newTestCluster(t, 2, 2, 64)
	if _, err := Run(c, 0, fastOpts()); err == nil {
		t.Error("target 0 should fail")
	}
}

func TestMigrationUnderLiveTraffic(t *testing.T) {
	c := newTestCluster(t, 2, 2, 128)
	loadKeys(t, c, 600)

	stop := make(chan struct{})
	var failures atomic.Int64
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", (g*150+i)%600)
				res := c.Call(&engine.Txn{Proc: "Get", Key: key})
				calls.Add(1)
				if res.Err != nil {
					failures.Add(1)
				}
				i++
			}
		}(g)
	}

	// Scale out then back in while reads hammer the cluster.
	if _, err := Run(c, 4, fastOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, 2, fastOpts()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if calls.Load() == 0 {
		t.Fatal("no traffic ran")
	}
	if f := failures.Load(); f != 0 {
		t.Errorf("%d/%d reads failed during live migration", f, calls.Load())
	}
	verifyKeys(t, c, 600)
	if n, _ := c.TotalRows(); n != 600 {
		t.Errorf("TotalRows = %d", n)
	}
}

func TestMigrationProgressTracking(t *testing.T) {
	c := newTestCluster(t, 1, 2, 64)
	loadKeys(t, c, 200)
	m, err := Start(c, 2, Options{BucketsPerChunk: 1, ChunkInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m.FromNodes() != 1 || m.ToNodes() != 2 {
		t.Errorf("from/to = %d/%d", m.FromNodes(), m.ToNodes())
	}
	var sawPartial bool
	for {
		select {
		case <-m.Done():
			goto done
		default:
		}
		if f := m.MovedFraction(); f > 0 && f < 1 {
			sawPartial = true
		}
		time.Sleep(time.Millisecond)
	}
done:
	rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !sawPartial {
		t.Error("never observed partial progress")
	}
	if m.MovedFraction() != 1 {
		t.Errorf("final MovedFraction = %v", m.MovedFraction())
	}
	if rep.Duration <= 0 {
		t.Errorf("duration = %v", rep.Duration)
	}
	verifyKeys(t, c, 200)
}

func TestRateMultiplierNormalization(t *testing.T) {
	o := Options{BucketsPerChunk: 2, ChunkInterval: 8 * time.Millisecond, RateMultiplier: 8}.normalized()
	if o.BucketsPerChunk != 16 {
		t.Errorf("BucketsPerChunk = %d, want 16", o.BucketsPerChunk)
	}
	if o.ChunkInterval != time.Millisecond {
		t.Errorf("ChunkInterval = %v, want 1ms", o.ChunkInterval)
	}
	d := Options{}.normalized()
	if d.BucketsPerChunk != 1 || d.ChunkInterval != time.Millisecond || d.RateMultiplier != 1 {
		t.Errorf("defaults = %+v", d)
	}
}

func TestRepeatedScaleCycles(t *testing.T) {
	c := newTestCluster(t, 1, 2, 96)
	loadKeys(t, c, 300)
	for _, target := range []int{3, 1, 4, 2, 5, 1} {
		if _, err := Run(c, target, fastOpts()); err != nil {
			t.Fatalf("scale to %d: %v", target, err)
		}
		if c.NumNodes() != target {
			t.Fatalf("NumNodes = %d, want %d", c.NumNodes(), target)
		}
		verifyBalanced(t, c)
	}
	verifyKeys(t, c, 300)
}

func TestConcurrentMigrationsRejected(t *testing.T) {
	c := newTestCluster(t, 2, 2, 128)
	loadKeys(t, c, 400)
	m, err := Start(c, 4, Options{BucketsPerChunk: 1, ChunkInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(c, 3, fastOpts()); err != ErrInProgress {
		t.Errorf("second Start err = %v, want ErrInProgress", err)
	}
	if !c.Reconfiguring() {
		t.Error("cluster should report reconfiguring")
	}
	if _, err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Reconfiguring() {
		t.Error("cluster should be done reconfiguring")
	}
	// A new migration is accepted after completion.
	if _, err := Run(c, 2, fastOpts()); err != nil {
		t.Fatal(err)
	}
	verifyKeys(t, c, 400)
}

func TestNoopMigrationReleasesLock(t *testing.T) {
	c := newTestCluster(t, 2, 2, 64)
	if _, err := Run(c, 2, fastOpts()); err != nil {
		t.Fatal(err)
	}
	if c.Reconfiguring() {
		t.Error("no-op migration must release the reconfiguration lock")
	}
}

func TestBalanceEvensSkewedOwnership(t *testing.T) {
	c := newTestCluster(t, 2, 2, 64)
	loadKeys(t, c, 300)
	// Manufacture skew: push every bucket of partition 0 onto partition 1.
	src, _ := c.ExecutorOf(0)
	dst, _ := c.ExecutorOf(1)
	var buckets []int
	if err := src.Do(func(p *storage.Partition) (int, error) {
		buckets = p.OwnedBuckets()
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, b := range buckets {
		var pages *storage.BucketPages
		if err := src.Do(func(p *storage.Partition) (int, error) {
			var err error
			pages, err = p.ExtractBucketPages(b)
			return 0, err
		}); err != nil {
			t.Fatal(err)
		}
		c.SetOwner(b, 1)
		if err := dst.Do(func(p *storage.Partition) (int, error) {
			return 0, p.ApplyBucketPages(pages)
		}); err != nil {
			t.Fatal(err)
		}
	}
	counts := c.BucketCounts()
	if counts[0] != 0 || counts[1] != 32 {
		t.Fatalf("setup failed: %v", counts)
	}

	moved, err := Balance(c, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("nothing moved")
	}
	verifyBalanced(t, c)
	verifyKeys(t, c, 300)
	if c.Reconfiguring() {
		t.Error("balance must release the reconfiguration lock")
	}
	// A balanced cluster is a no-op.
	moved, err = Balance(c, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("balanced cluster moved %d buckets", moved)
	}
}
