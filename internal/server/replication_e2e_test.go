package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/migration"
	"pstore/internal/replication"
)

func replRegistry() *engine.Registry {
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

func replClusterConfig(k int, seed int64) cluster.Config {
	return cluster.Config{
		InitialNodes:      2,
		PartitionsPerNode: 2,
		NBuckets:          64,
		Tables:            []string{"T"},
		Registry:          replRegistry(),
		Engine:            engine.Config{ServiceTime: 0},
		ReplicationFactor: k,
		Replication:       replication.Options{Seed: seed},
	}
}

// TestReplicationKillPrimaryEndToEnd is the acceptance test for the
// replication subsystem over the wire: a k=1 cluster runs a write workload
// through robust network clients, a node hosting primaries is killed
// mid-workload via the protocol's chaos hook, and the invariants are:
//
//   - writes stall only for a seconds-scale failover window, then resume
//     (the clients' retries absorb the gap — no write is lost or doubled,
//     every write is retried until acked);
//   - after the workload quiesces, the cluster's content checksum equals a
//     fault-free oracle fed the same writes: failover lost nothing;
//   - read-your-writes holds across the failover: session-consistent reads
//     see every write their client made, even served from replicas;
//   - the promoted primaries' new standbys reconverge (VerifyReplicas).
func TestReplicationKillPrimaryEndToEnd(t *testing.T) {
	seed := chaosSeed(t)
	c, err := cluster.New(replClusterConfig(1, seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	oracle, err := cluster.New(replClusterConfig(0, seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(oracle.Stop)

	srv := New(c, migration.Options{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	const (
		workers        = 4
		writesPerPhase = 100
	)
	copts := Options{
		CallTimeout: 2 * time.Second,
		MaxRetries:  20,
		retryBase:   2 * time.Millisecond,
		Reconnect:   true,
	}
	clients := make([]*Client, workers)
	for g := range clients {
		cl, err := DialOptions(addr, copts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients[g] = cl
	}

	// write retries until the put is acked. Puts are idempotent (same key,
	// same value), so ambiguous failures retry blindly via CallIdempotent.
	write := func(cl *Client, g, i int) string {
		key := fmt.Sprintf("w-%d-%d", g, i)
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, err := cl.CallIdempotent(context.Background(), "Put", key, map[string]string{"v": key})
			if err == nil {
				return key
			}
			if time.Now().After(deadline) {
				t.Errorf("worker %d: write %s never acked: %v", g, key, err)
				return key
			}
		}
	}
	phase := func(base int) [][]string {
		written := make([][]string, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < writesPerPhase; i++ {
					written[g] = append(written[g], write(clients[g], g, base+i))
				}
			}(g)
		}
		wg.Wait()
		return written
	}

	// Phase 1: calm writes, then quiesce so every write is replica-covered
	// before the kill (the k-safety contract: only replicated writes can
	// survive losing their primary's memory).
	keys := phase(0)
	if err := c.WaitReplicasCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("quiesce before kill: %v", err)
	}

	// Kill a node through the protocol, mid-workload: phase 2 writes race
	// the failover.
	victim := c.Nodes()[1].ID
	var failoverDone atomic.Int64
	start := time.Now()
	phase2 := make(chan [][]string, 1)
	go func() { phase2 <- phase(writesPerPhase) }()
	if err := clients[0].KillNode(victim); err != nil {
		t.Fatalf("KillNode over the wire: %v", err)
	}
	more := <-phase2
	failoverDone.Store(int64(time.Since(start)))
	for g := range keys {
		keys[g] = append(keys[g], more[g]...)
	}
	// 400 tiny writes take milliseconds on a healthy cluster; the bound
	// leaves room only for a seconds-scale failover, not a minutes-scale
	// rebuild.
	if d := time.Duration(failoverDone.Load()); d > 20*time.Second {
		t.Fatalf("workload through failover took %v, want seconds-scale", d)
	}

	// Read-your-writes: every client must see its own writes through
	// session-consistent reads (some served by replicas).
	for g, cl := range clients {
		for _, key := range keys[g] {
			res, err := cl.Read("Get", key, nil)
			if err != nil {
				t.Fatalf("client %d: read %s: %v", g, key, err)
			}
			if res.Out["v"] != key {
				t.Fatalf("client %d: read %s = %q: stale read-your-writes", g, key, res.Out["v"])
			}
		}
	}

	// Oracle equality: the same writes with no fault must leave identical
	// content.
	for g := range keys {
		for _, key := range keys[g] {
			txn := engine.AcquireTxn("Put", key, map[string]string{"v": key})
			if res := oracle.Call(txn); res.Err != nil {
				t.Fatalf("oracle write %s: %v", key, res.Err)
			}
			txn.Release()
		}
	}
	wantSum, wantRows, err := oracle.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	gotSum, gotRows, err := c.QuiescedChecksum(15 * time.Second)
	if err != nil {
		t.Fatalf("quiesced checksum after failover: %v", err)
	}
	if gotSum != wantSum || gotRows != wantRows {
		t.Fatalf("content after failover = %x (%d rows), oracle %x (%d rows): writes lost or duplicated",
			gotSum, gotRows, wantSum, wantRows)
	}
	// The monitor must have respawned standbys for the promoted primaries
	// and they must mirror them exactly.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := c.VerifyReplicas(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("replicas never reconverged after failover: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	st, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplFactor != 1 || st.ReplFailovers == 0 || st.ReplPromotions == 0 || st.DeadNodes != 1 {
		t.Errorf("stats after kill: factor=%d failovers=%d promotions=%d dead=%d",
			st.ReplFactor, st.ReplFailovers, st.ReplPromotions, st.DeadNodes)
	}
	t.Logf("seed=%d: %d writes through failover in %v, failovers=%d promotions=%d resyncs=%d replicaReads=%d fallbackReads=%d",
		seed, workers*2*writesPerPhase, time.Duration(failoverDone.Load()),
		st.ReplFailovers, st.ReplPromotions, st.ReplResyncs, st.ReplReplicaReads, st.ReplFallbackReads)
}

// TestReadSessionConsistencyOverWire: a client that writes then reads with
// its session vector must always see the write, even when replicas lag.
func TestReadSessionConsistencyOverWire(t *testing.T) {
	c, err := cluster.New(replClusterConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	srv := New(c, migration.Options{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("s%d", i)
		if _, err := cl.Call("Put", key, map[string]string{"v": key}); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		res, err := cl.Read("Get", key, nil)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if res.Out["v"] != key {
			t.Fatalf("read %s = %q right after writing it", key, res.Out["v"])
		}
	}
	if len(cl.Session()) == 0 {
		t.Fatal("client session vector never advanced despite routed write responses")
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplReplicaReads == 0 && st.ReplFallbackReads == 0 {
		t.Error("reads touched neither replicas nor the fallback path")
	}
}
