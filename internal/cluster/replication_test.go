package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/engine"
	"pstore/internal/metrics"
	"pstore/internal/replication"
)

func replConfig(k int) Config {
	cfg := testConfig()
	cfg.ReplicationFactor = k
	cfg.Replication = replication.Options{Seed: 1}
	return cfg
}

func waitQuiesced(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.WaitReplicasCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("WaitReplicasCaughtUp: %v", err)
	}
}

func TestReplicatedWritesReachReplicas(t *testing.T) {
	c, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
		if res.Err != nil {
			t.Fatalf("put %s: %v", key, res.Err)
		}
		if res.LSN == 0 {
			t.Fatalf("put %s: result carries no LSN", key)
		}
	}
	waitQuiesced(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatalf("VerifyReplicas: %v", err)
	}
	s := c.ReplicationStats()
	if s.Factor != 1 {
		t.Errorf("Factor = %d, want 1", s.Factor)
	}
	if want := 2 * 2; s.Replicas != want { // one standby per partition
		t.Errorf("Replicas = %d, want %d", s.Replicas, want)
	}
	if s.Records < 200 {
		t.Errorf("Records = %d, want ≥ 200", s.Records)
	}
	if s.MaxLagRecords != 0 {
		t.Errorf("MaxLagRecords = %d after quiesce, want 0", s.MaxLagRecords)
	}
	checkWiring(t, c)
}

func TestLoadRowShipsToReplicas(t *testing.T) {
	c, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("load%d", i)
		if err := c.LoadRow("T", key, map[string]string{"v": key}); err != nil {
			t.Fatalf("LoadRow %s: %v", key, err)
		}
	}
	waitQuiesced(t, c)
	if err := c.VerifyReplicas(); err != nil {
		t.Fatalf("VerifyReplicas after LoadRow: %v", err)
	}
}

func TestKillNodeFailoverPreservesAckedWrites(t *testing.T) {
	cfg := replConfig(1)
	cfg.DataDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	put := func(key string) error {
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
		return res.Err
	}
	for i := 0; i < 200; i++ {
		if err := put(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("put before kill: %v", err)
		}
	}
	waitQuiesced(t, c)

	victim := c.Nodes()[1].ID
	start := time.Now()
	if err := c.KillNode(victim); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	// Writes must keep succeeding through the failover (retried by Call).
	for i := 200; i < 400; i++ {
		if err := put(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("put during failover: %v", err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Fatalf("failover + 200 writes took %v, want seconds-scale", elapsed)
	}

	// Every acked write must be readable from the promoted primaries.
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("k%d", i)
		res := c.Call(&engine.Txn{Proc: "Get", Key: key})
		if res.Err != nil {
			t.Fatalf("get %s after failover: %v", key, res.Err)
		}
		if res.Out["v"] != key {
			t.Errorf("get %s = %q after failover", key, res.Out["v"])
		}
	}

	s := c.ReplicationStats()
	if s.Failovers == 0 || s.Promotions == 0 {
		t.Errorf("stats after kill: failovers=%d promotions=%d, want both > 0", s.Failovers, s.Promotions)
	}
	// The monitor respawns standbys on the surviving node; once they are
	// caught up the replicas must mirror the promoted primaries exactly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.WaitReplicasCaughtUp(10 * time.Second); err == nil {
			if err := c.VerifyReplicas(); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("VerifyReplicas after failover: %v", err)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("replicas never converged after failover: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkWiring(t, c)
}

func TestKillNodeContentChecksumMatchesOracle(t *testing.T) {
	// Oracle: the same writes with no fault.
	oracle, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Stop()
	c, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	write := func(cl *Cluster, i int) error {
		key := fmt.Sprintf("w%d", i)
		res := cl.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
		return res.Err
	}
	for i := 0; i < 150; i++ {
		if err := write(oracle, i); err != nil {
			t.Fatal(err)
		}
		if err := write(c, i); err != nil {
			t.Fatal(err)
		}
	}
	// With no DataDir the replicas are the only redundancy; writes made
	// before they seed have nowhere to survive a kill, so quiesce first —
	// that matches the k-safety contract (acks gate on live subscribers).
	waitQuiesced(t, c)
	if err := c.KillNode(c.Nodes()[0].ID); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	for i := 150; i < 300; i++ {
		if err := write(oracle, i); err != nil {
			t.Fatal(err)
		}
		if err := write(c, i); err != nil {
			t.Fatalf("write %d during failover: %v", i, err)
		}
	}
	wantSum, wantRows, err := oracle.QuiescedChecksum(10 * time.Second)
	if err != nil {
		t.Fatalf("oracle checksum: %v", err)
	}
	gotSum, gotRows, err := c.QuiescedChecksum(10 * time.Second)
	if err != nil {
		t.Fatalf("faulted checksum: %v", err)
	}
	if gotSum != wantSum || gotRows != wantRows {
		t.Fatalf("checksum after kill = %x (%d rows), oracle %x (%d rows)", gotSum, gotRows, wantSum, wantRows)
	}
	checkWiring(t, c)
}

func TestCallReadOnlySessionConsistency(t *testing.T) {
	c, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	session := make(map[int]uint64)
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("s%d", i)
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
		if res.Err != nil {
			t.Fatalf("put: %v", res.Err)
		}
		mu.Lock()
		if res.LSN > session[res.Partition] {
			session[res.Partition] = res.LSN
		}
		mu.Unlock()
		// Read-your-writes: the replica must wait for the write just made.
		r := c.CallReadOnly("Get", key, nil, session)
		if r.Err != nil {
			t.Fatalf("read %s: %v", key, r.Err)
		}
		if r.Out["v"] != key {
			t.Fatalf("read %s = %q, session consistency violated", key, r.Out["v"])
		}
	}
	s := c.ReplicationStats()
	if s.ReplicaReads == 0 && s.FallbackReads == 0 {
		t.Error("no replica or fallback reads recorded")
	}
}

func TestCallReadOnlyFallsBackWhenStale(t *testing.T) {
	cfg := replConfig(1)
	cfg.Replication.StaleReadTimeout = 5 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	key := "fb"
	res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": "1"}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// A session claiming an LSN far past the feed head can never be served
	// by a replica; the read must fall back to the primary, not fail.
	session := map[int]uint64{res.Partition: res.LSN + 1_000_000}
	r := c.CallReadOnly("Get", key, nil, session)
	if r.Err != nil {
		t.Fatalf("fallback read: %v", r.Err)
	}
	if r.Out["v"] != "1" {
		t.Fatalf("fallback read = %q", r.Out["v"])
	}
	if got := c.Events().Get(metrics.EventReplFallbackReads); got == 0 {
		t.Error("fallback not counted")
	}
}

// TestReadOnlyCountedOncePerRead pins the accounting the controller's
// MeasureLoad rests on: every session read adds exactly one unit of offered
// load and one latency sample, whether the non-blocking attempt serves it
// (TryReadOnly, or CallReadOnly's first try) or it has to wait and fall back
// to the primary — retries of that fallback included — and an attempt that
// declines adds nothing.
func TestReadOnlyCountedOncePerRead(t *testing.T) {
	cfg := replConfig(1)
	cfg.Replication.StaleReadTimeout = 5 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	key := "once"
	res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": "1"}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	waitQuiesced(t, c)
	current := map[int]uint64{res.Partition: res.LSN}
	ahead := map[int]uint64{res.Partition: res.LSN + 1_000_000}
	counts := func() (offered, samples int, replica, fallback int64) {
		return c.OfferedLoad().Total(), c.Latencies().Count(),
			c.Events().Get(metrics.EventReplicaReads), c.Events().Get(metrics.EventReplFallbackReads)
	}
	off0, lat0, rep0, fb0 := counts()

	const n = 20
	for i := 0; i < n; i++ {
		if r, ok := c.TryReadOnly("Get", key, nil, current); !ok || r.Err != nil || r.Out["v"] != "1" {
			t.Fatalf("TryReadOnly = %+v, %v; want served by the standby", r, ok)
		}
		if r := c.CallReadOnly("Get", key, nil, current); r.Err != nil || r.Out["v"] != "1" {
			t.Fatalf("CallReadOnly = %+v", r)
		}
	}
	off, lat, rep, fb := counts()
	if off-off0 != 2*n || lat-lat0 != 2*n || rep-rep0 != 2*n || fb != fb0 {
		t.Fatalf("after %d standby reads: offered +%v, samples +%d, replica reads +%d, fallbacks +%d",
			2*n, off-off0, lat-lat0, rep-rep0, fb-fb0)
	}

	for i := 0; i < n; i++ {
		if _, ok := c.TryReadOnly("Get", key, nil, ahead); ok {
			t.Fatal("TryReadOnly served a read its standby has not caught up to")
		}
	}
	if o, l, _, _ := counts(); o != off || l != lat {
		t.Fatalf("declined attempts were counted: offered +%v, samples +%d", o-off, l-lat)
	}
	for i := 0; i < n; i++ {
		if r := c.CallReadOnly("Get", key, nil, ahead); r.Err != nil || r.Out["v"] != "1" {
			t.Fatalf("waiting CallReadOnly = %+v", r)
		}
	}
	if o, l, _, f := counts(); o-off != n || l-lat != n || f-fb != n {
		t.Fatalf("after %d waiting reads: offered +%v, samples +%d, fallbacks +%d", n, o-off, l-lat, f-fb)
	}

	// No replicas (k=0): the read goes straight to the primary, whose bucket
	// is routed elsewhere until the fallback has retried.
	var attempts atomic.Int64
	p, stray := strayCluster(t, &attempts, 2, 1000, time.Millisecond)
	r := p.CallReadOnly("Count", stray, nil, nil)
	if r.Err != nil {
		t.Fatalf("primary-fallback read after ownership restored: %v", r.Err)
	}
	if retries := p.Events().Get(metrics.EventMigrationRetries); retries == 0 {
		t.Error("primary-fallback read never retried NotOwned")
	}
	if o, l := p.OfferedLoad().Total(), p.Latencies().Count(); o != 1 || l != 1 {
		t.Fatalf("retried primary-fallback read: offered %v, samples %d; want 1 each", o, l)
	}
}

func TestKillNodeValidation(t *testing.T) {
	c, err := New(testConfig()) // replication off
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.KillNode(c.Nodes()[0].ID); err == nil {
		t.Error("KillNode without replication should fail")
	}

	r, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.KillNode(9999); err == nil {
		t.Error("KillNode of unknown node should fail")
	}
	n0, n1 := r.Nodes()[0].ID, r.Nodes()[1].ID
	if err := r.KillNode(n0); err != nil {
		t.Fatalf("first kill: %v", err)
	}
	if err := r.KillNode(n0); err == nil {
		t.Error("double kill should fail")
	}
	if err := r.KillNode(n1); err == nil {
		t.Error("killing the last alive node should fail")
	}
	if got := r.DeadNodes(); len(got) != 1 || got[0] != n0 {
		t.Errorf("DeadNodes = %v", got)
	}
}

func TestReplicationDurableRestart(t *testing.T) {
	cfg := replConfig(1)
	cfg.DataDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("d%d", i)
		if res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	waitQuiesced(t, c)
	sum1, rows1, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer c2.Stop()
	if !c2.Recovered() {
		t.Fatal("expected recovery from DataDir")
	}
	sum2, rows2, err := c2.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 || rows1 != rows2 {
		t.Fatalf("restart checksum %x (%d rows), want %x (%d rows)", sum2, rows2, sum1, rows1)
	}
	// Fresh standbys must resync and converge after the restart too.
	waitQuiesced(t, c2)
	if err := c2.VerifyReplicas(); err != nil {
		t.Fatalf("VerifyReplicas after restart: %v", err)
	}
	checkWiring(t, c2)
}

func TestFencedFeedRejectsWrites(t *testing.T) {
	f := replication.NewFeed(0, nil, 1, 0, replication.Options{}, metrics.NewEvents())
	f.Fence()
	done := make(chan error, 1)
	f.Append("Put", "k", nil, func(_ uint64, err error) { done <- err })
	if err := <-done; !errors.Is(err, replication.ErrFenced) {
		t.Fatalf("append to fenced feed: %v, want ErrFenced", err)
	}
}

// TestMaxLagRecordsClampsStaleHead: ReplicationStats reads a feed head and
// then each replica's applied LSN. A replica that applies past the head read
// first is caught up; the unsigned gap must clamp at zero, not wrap.
func TestMaxLagRecordsClampsStaleHead(t *testing.T) {
	c, err := New(replConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	put := func(key string) engine.Result {
		res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": key}})
		if res.Err != nil {
			t.Fatalf("put %s: %v", key, res.Err)
		}
		return res
	}
	pid := put("lag-0").Partition
	waitQuiesced(t, c)
	c.mu.RLock()
	feed, rep := c.primaries[pid].feed, c.replicas[pid][0].rep
	c.mu.RUnlock()
	head := feed.LSN()
	for i := 1; rep.Applied() <= head; i++ {
		if res := put(fmt.Sprintf("lag-%d", i)); res.Partition == pid {
			waitQuiesced(t, c)
		}
	}
	if lag := lagRecords(head, rep.Applied()); lag != 0 {
		t.Fatalf("replica applied %d past stale head %d: lag = %d, want 0", rep.Applied(), head, lag)
	}
	if got := lagRecords(head, head-1); got != 1 {
		t.Fatalf("lagRecords(%d, %d) = %d, want 1", head, head-1, got)
	}
}
