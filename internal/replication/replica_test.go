package replication

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pstore/internal/durability"
	"pstore/internal/storage"
)

func seededReplica(t *testing.T, nBuckets int) *Replica {
	t.Helper()
	r := NewReplica(0, nBuckets, "n", testReg(), Options{Seed: 1}, newTestEvents())
	snap := &Snapshot{Tables: []string{"T"}, LSN: 0, Epoch: 1}
	for b := 0; b < nBuckets; b++ {
		snap.Buckets = append(snap.Buckets, &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{}})
	}
	if err := r.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return r
}

func txnRec(lsn, epoch uint64, key string) *durability.Record {
	return &durability.Record{LSN: lsn, Epoch: epoch, Kind: durability.KindTxn, Proc: "Put", Key: key, Args: map[string]string{"v": key}}
}

func TestReplicaApplyIdempotentAndGapDetecting(t *testing.T) {
	r := seededReplica(t, 8)
	if err := r.Apply(txnRec(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	// A duplicate from a catch-up overlap is skipped, not re-applied.
	if err := r.Apply(txnRec(1, 1, "a")); err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	if got := r.Applied(); got != 1 {
		t.Fatalf("applied = %d, want 1", got)
	}
	// A gap forces a resync; silently skipping it would diverge the replica.
	err := r.Apply(txnRec(3, 1, "c"))
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap apply: %v, want gap error", err)
	}
	if err := r.Apply(txnRec(2, 1, "b")); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaFencesOldEpoch(t *testing.T) {
	r := seededReplica(t, 8)
	if err := r.Apply(txnRec(1, 3, "a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(txnRec(2, 2, "b")); !errors.Is(err, ErrFenced) {
		t.Fatalf("lower-epoch record: %v, want ErrFenced", err)
	}
	if got := r.Epoch(); got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}
}

func TestReplicaSeededFlag(t *testing.T) {
	r := NewReplica(0, 8, "n", testReg(), Options{Seed: 1}, newTestEvents())
	if r.Seeded() {
		t.Fatal("fresh replica reports seeded")
	}
	if err := r.Apply(&durability.Record{LSN: 1, Epoch: 1, Kind: durability.KindBucketIn, Bucket: 0,
		Data: &storage.BucketData{Bucket: 0, Tables: map[string][]storage.Row{}}}); err != nil {
		t.Fatal(err)
	}
	if !r.Seeded() {
		t.Fatal("replica not seeded after first applied record")
	}
}

func TestReplicaSessionRead(t *testing.T) {
	r := seededReplica(t, 8)
	if err := r.Apply(txnRec(1, 1, "k")); err != nil {
		t.Fatal(err)
	}
	out, err := r.SessionRead("Get", "k", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out["v"] != "k" {
		t.Fatalf("read = %q, want %q", out["v"], "k")
	}
	// A session LSN past the horizon times out with ErrStaleRead.
	r2 := seededReplica(t, 8)
	r2.opts.StaleReadTimeout = 10 * time.Millisecond
	if _, err := r2.SessionRead("Get", "k", nil, 99); !errors.Is(err, ErrStaleRead) {
		t.Fatalf("stale read: %v, want ErrStaleRead", err)
	}
	// A writing procedure routed to a replica must fail, not diverge it.
	if _, err := r.SessionRead("Put", "k2", map[string]string{"v": "x"}, 0); err == nil {
		t.Fatal("write procedure on replica succeeded")
	}
	if _, ok, _ := readRow(r, "T", "k2"); ok {
		t.Fatal("rejected write procedure still mutated the replica")
	}
}

func readRow(r *Replica, table, key string) (storage.Row, bool, error) {
	var row storage.Row
	var ok bool
	var err error
	r.Inspect(func(p *storage.Partition) { row, ok, err = p.Get(table, key) })
	return row, ok, err
}

func TestReplicaWaitAppliedUnblocksOnApply(t *testing.T) {
	r := seededReplica(t, 8)
	done := make(chan error, 1)
	go func() { done <- r.WaitApplied(1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := r.Apply(txnRec(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitApplied never unblocked")
	}
}

func TestReplicaKillUnblocksWaiters(t *testing.T) {
	r := seededReplica(t, 8)
	done := make(chan error, 1)
	go func() { done <- r.WaitApplied(5, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	r.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrReplicaGone) {
			t.Fatalf("wait after kill: %v, want ErrReplicaGone", err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitApplied never unblocked after Kill")
	}
	if err := r.Apply(txnRec(1, 1, "a")); !errors.Is(err, ErrReplicaGone) {
		t.Fatalf("apply after kill: %v, want ErrReplicaGone", err)
	}
}

// TestReplicaPromoteHandsOffState: promotion surrenders the partition at
// the applied horizon and retires the standby.
func TestReplicaPromoteHandsOffState(t *testing.T) {
	r := seededReplica(t, 8)
	for i := uint64(1); i <= 3; i++ {
		if err := r.Apply(txnRec(i, 2, "k")); err != nil {
			t.Fatal(err)
		}
	}
	part, applied, epoch, mgr := r.Promote()
	if applied != 3 || epoch != 2 {
		t.Fatalf("promote = (lsn %d, epoch %d), want (3, 2)", applied, epoch)
	}
	if mgr != nil {
		t.Fatal("non-durable replica handed off a durability manager")
	}
	if _, ok, _ := part.Get("T", "k"); !ok {
		t.Fatal("promoted partition missing applied row")
	}
	if r.Serving() {
		t.Fatal("replica still serving after promotion")
	}
}
