package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/metrics"
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
	return reg
}

func testConfig() Config {
	return Config{
		InitialNodes:      2,
		PartitionsPerNode: 2,
		NBuckets:          64,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
	}
}

func TestClusterBasicRouting(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
		if res.Err != nil {
			t.Fatalf("put %s: %v", key, res.Err)
		}
		if res.Latency <= 0 {
			t.Fatalf("put %s: latency %v, want positive", key, res.Latency)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		res := c.Call(&engine.Txn{Proc: "Get", Key: key})
		if res.Err != nil {
			t.Fatalf("get %s: %v", key, res.Err)
		}
		if res.Out["v"] != key {
			t.Errorf("get %s = %q", key, res.Out["v"])
		}
	}
	if n, err := c.TotalRows(); err != nil || n != 100 {
		t.Errorf("TotalRows = %d, %v", n, err)
	}
	if c.Latencies().Count() != 200 {
		t.Errorf("latencies recorded = %d, want 200", c.Latencies().Count())
	}
	if c.OfferedLoad().Total() != 200 {
		t.Errorf("offered = %d, want 200", c.OfferedLoad().Total())
	}
	checkWiring(t, c)
}

func TestClusterValidation(t *testing.T) {
	bad := testConfig()
	bad.InitialNodes = 0
	if _, err := New(bad); err == nil {
		t.Error("InitialNodes=0 should fail")
	}
	bad = testConfig()
	bad.PartitionsPerNode = 0
	if _, err := New(bad); err == nil {
		t.Error("PartitionsPerNode=0 should fail")
	}
	bad = testConfig()
	bad.NBuckets = 1
	if _, err := New(bad); err == nil {
		t.Error("tiny NBuckets should fail")
	}
	bad = testConfig()
	bad.Registry = nil
	if _, err := New(bad); err == nil {
		t.Error("nil registry should fail")
	}
}

func TestClusterBucketsDealtEvenly(t *testing.T) {
	c, err := New(testConfig()) // 4 partitions, 64 buckets
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	counts := c.BucketCounts()
	if len(counts) != 4 {
		t.Fatalf("partitions = %d", len(counts))
	}
	for pid, n := range counts {
		if n != 16 {
			t.Errorf("partition %d owns %d buckets, want 16", pid, n)
		}
	}
}

func TestClusterAddRemoveNode(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	node := c.AddNode()
	if c.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if len(node.Partitions) != 2 {
		t.Errorf("new node partitions = %v", node.Partitions)
	}
	checkWiring(t, c)
	// New node owns nothing → removable.
	if err := c.RemoveNode(node.ID); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 2 {
		t.Errorf("NumNodes = %d after remove", c.NumNodes())
	}
	checkWiring(t, c)
	// Nodes owning buckets are not removable.
	first := c.Nodes()[0]
	if err := c.RemoveNode(first.ID); err == nil {
		t.Error("removing a node that owns buckets should fail")
	}
	if err := c.RemoveNode(999); err == nil {
		t.Error("removing unknown node should fail")
	}
}

func TestClusterCannotRemoveLastNode(t *testing.T) {
	cfg := testConfig()
	cfg.InitialNodes = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.RemoveNode(c.Nodes()[0].ID); err == nil {
		t.Error("removing the last node should fail")
	}
}

func TestClusterConcurrentCalls(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": "x"}}); res.Err != nil {
					t.Errorf("put: %v", res.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := c.TotalRows(); n != 800 {
		t.Errorf("TotalRows = %d, want 800", n)
	}
}

func TestClusterLoadRow(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.LoadRow("T", "bulk1", map[string]string{"v": "42"}); err != nil {
		t.Fatal(err)
	}
	res := c.Call(&engine.Txn{Proc: "Get", Key: "bulk1"})
	if res.Err != nil || res.Out["v"] != "42" {
		t.Errorf("get after LoadRow: %v %v", res.Out, res.Err)
	}
	// LoadRow must not count toward offered load or latencies.
	if c.OfferedLoad().Total() != 1 {
		t.Errorf("offered = %d, want 1 (only the Get)", c.OfferedLoad().Total())
	}
}

// TestRecoverRefusesOutOfRangeBucket: a CRC-valid snapshot whose bucket
// frame names bucket NBuckets must make recovery return an error, not
// install a bucket that indexes past the routing table.
func TestRecoverRefusesOutOfRangeBucket(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()

	mgr, err := durability.Open(c.partitionDir(0), 0, cfg.Durability)
	if err != nil {
		t.Fatal(err)
	}
	part := storage.NewPartition(0, cfg.NBuckets, []int{cfg.NBuckets})
	part.CreateTable("T")
	if err := mgr.Snapshot(part); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	if c2, err := New(cfg); err == nil {
		c2.Stop()
		t.Fatalf("recovery accepted a snapshot naming bucket %d of %d", cfg.NBuckets, cfg.NBuckets)
	}
}

func TestClusterStopIdempotent(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop()
}

// results is a Completion that forwards every result to a buffered channel.
type results chan engine.Result

func (r results) Complete(res engine.Result) { r <- res }

// strayCluster starts a test cluster with the given retry budget whose
// "Count" procedure counts its attempts, and routes the returned key's
// bucket to a partition that does not own it. When restoreAt > 0, attempt
// number restoreAt points the bucket back at its owner, so a later attempt
// lands.
func strayCluster(t *testing.T, attempts *atomic.Int64, restoreAt int64, retryAttempts int, interval time.Duration) (*Cluster, string) {
	t.Helper()
	var restore func()
	cfg := testConfig()
	cfg.Registry.Register("Count", func(tx *engine.Txn) error {
		if attempts.Add(1) == restoreAt {
			go restore() // SetOwner takes c.mu, which an executor must not wait on
		}
		_, _, err := tx.Get("T", tx.Key)
		return err
	})
	cfg.retryAttempts = retryAttempts
	cfg.RetryInterval = interval
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	const key = "stray"
	bucket := storage.BucketOf(key, cfg.NBuckets)
	owner := c.OwnerOf(bucket)
	restore = func() { c.SetOwner(bucket, owner) }
	c.SetOwner(bucket, (owner+1)%len(c.Executors()))
	return c, key
}

// TestRetryBudgetSameSyncAndAsync pins one attempt budget for every routed
// call: with a 3-attempt cap and a key whose bucket is routed to a
// partition that does not own it, Call and CallAsync each make exactly 3
// attempts, count 2 migration retries and return NotOwned — and a call
// whose bucket's owner is restored mid-budget succeeds.
func TestRetryBudgetSameSyncAndAsync(t *testing.T) {
	var attempts atomic.Int64
	c, key := strayCluster(t, &attempts, 0, 3, 100*time.Microsecond)
	calls := []struct {
		name string
		run  func() engine.Result
	}{
		{"Call", func() engine.Result { return c.Call(&engine.Txn{Proc: "Count", Key: key}) }},
		{"CallAsync", func() engine.Result {
			done := make(results, 1)
			c.CallAsync(&engine.Txn{Proc: "Count", Key: key}, done)
			return <-done
		}},
	}
	for _, call := range calls {
		attempts.Store(0)
		retries := c.Events().Get(metrics.EventMigrationRetries)
		res := call.run()
		if !storage.IsNotOwned(res.Err) {
			t.Errorf("%s: err = %v, want NotOwned", call.name, res.Err)
		}
		if n := attempts.Load(); n != 3 {
			t.Errorf("%s: %d attempts, want 3", call.name, n)
		}
		if n := c.Events().Get(metrics.EventMigrationRetries) - retries; n != 2 {
			t.Errorf("%s: %d migration retries, want 2", call.name, n)
		}
	}

	// Ownership restored while the call is retrying: a later attempt lands.
	var landed atomic.Int64
	c, key = strayCluster(t, &landed, 2, 1000, time.Millisecond)
	res := c.Call(&engine.Txn{Proc: "Count", Key: key})
	if res.Err != nil {
		t.Fatalf("call after ownership restored: %v", res.Err)
	}
	n := landed.Load()
	if retries := c.Events().Get(metrics.EventMigrationRetries); n < 3 || retries != n-1 {
		t.Errorf("%d attempts, %d migration retries; want ≥ 3 attempts, one retry before each after the first", n, retries)
	}
}
