package migration

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/metrics"
	"pstore/internal/storage"
)

// TestHammerWritesDuringMove is the pre-copy protocol's correctness gauntlet:
// writer goroutines hammer Put/Delete continuously while the cluster scales
// out and back in, so captured deltas land on every phase — during the
// snapshot stream, between drain rounds, and inside the flip window. Each
// writer owns a disjoint key range and journals its last committed op, so
// the expected final state is exact. Afterwards every key must read back its
// last write (exactly once — no lost delta, no double-applied delta changes
// a last-writer-wins value, but a lost one does), and the cluster's
// content checksum must equal a single-partition oracle loaded with the
// journaled state.
func TestHammerWritesDuringMove(t *testing.T) {
	c := newTestCluster(t, 2, 2, 64)
	const writers, keysPer = 4, 120

	type journal struct {
		vals map[string]string // key → last Put value; absent → deleted or never written
	}
	journals := make([]journal, writers)
	stop := make(chan struct{})
	var writeFailures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		journals[g] = journal{vals: make(map[string]string)}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j := journals[g]
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("h%d-%d", g, seq%keysPer)
				if seq%7 == 3 {
					res := c.Call(&engine.Txn{Proc: "Delete", Key: key})
					if res.Err != nil {
						writeFailures.Add(1)
						continue
					}
					delete(j.vals, key)
				} else {
					val := fmt.Sprintf("g%d-s%d", g, seq)
					res := c.Call(&engine.Txn{Proc: "Put", Key: key, Args: map[string]string{"v": val}})
					if res.Err != nil {
						writeFailures.Add(1)
						continue
					}
					j.vals[key] = val
				}
			}
		}(g)
	}

	// Scale out and back while the writers run: every bucket moves at least
	// once, most twice.
	if _, err := Run(c, 4, fastOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, 2, fastOpts()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if n := writeFailures.Load(); n != 0 {
		t.Errorf("%d writes failed during live moves", n)
	}
	// The default path must actually have pre-copied: rows streamed off the
	// critical path, flip stalls measured.
	if c.Events().Get(metrics.EventPreCopyRows) == 0 {
		t.Error("no rows went through the pre-copy stream")
	}
	if c.MoveStalls().Count() == 0 {
		t.Error("no move stalls recorded")
	}

	// Exactly-once: every journaled key reads back its last committed write;
	// deleted keys stay gone.
	expected := make(map[string]string)
	for g := 0; g < writers; g++ {
		for k, v := range journals[g].vals {
			expected[k] = v
		}
		for i := 0; i < keysPer; i++ {
			key := fmt.Sprintf("h%d-%d", g, i)
			res := c.Call(&engine.Txn{Proc: "Get", Key: key})
			want, live := journals[g].vals[key]
			switch {
			case live && res.Err != nil:
				t.Fatalf("key %s: %v, want %q", key, res.Err, want)
			case live && res.Out["v"] != want:
				t.Fatalf("key %s = %q, want %q", key, res.Out["v"], want)
			case !live && !engine.IsAbort(res.Err):
				t.Fatalf("key %s should be absent, got err=%v out=%v", key, res.Err, res.Out)
			}
		}
	}

	// Checksum the whole cluster against a single-partition oracle holding
	// exactly the journaled state — catches stray rows the per-key reads
	// cannot see (e.g. a resurrected delete on a third key).
	oracle, err := cluster.New(cluster.Config{
		InitialNodes:      1,
		PartitionsPerNode: 1,
		NBuckets:          64,
		Tables:            []string{"T"},
		Registry:          testRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Stop()
	for k, v := range expected {
		if err := oracle.LoadRow("T", k, map[string]string{"v": v}); err != nil {
			t.Fatal(err)
		}
	}
	sum, rows, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantRows, err := oracle.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if rows != wantRows || sum != wantSum {
		t.Errorf("cluster holds %d rows (sum %x), oracle %d rows (sum %x)", rows, sum, wantRows, wantSum)
	}
}

// TestHammerFaultMidDrainRollbackAndResume is the chaos-interop case the
// pre-copy protocol adds: a fault at the mid-drain injection site (the
// second hook call per bucket — capture live, snapshot staged) must abort
// the capture, discard the staging, and leave the bucket fully live at the
// source; once the outage lifts, Resume finishes without re-moving landed
// buckets and without losing a row.
func TestHammerFaultMidDrainRollbackAndResume(t *testing.T) {
	c := newTestCluster(t, 1, 2, 32)
	loadKeys(t, c, 200)
	sumBefore, rowsBefore, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}

	var outage atomic.Bool
	outage.Store(true)
	var mu sync.Mutex
	perBucket := make(map[int]int)
	victim := -1
	opts := fastOpts()
	opts.MoveRetries = 1
	opts.Seed = 7
	opts.FaultHook = func(bucket, from, to int) error {
		mu.Lock()
		defer mu.Unlock()
		if !outage.Load() {
			return nil
		}
		if victim == -1 {
			victim = bucket
		}
		perBucket[bucket]++
		// A failed attempt makes exactly two hook calls (pre-capture, then
		// mid-drain), so every even call lands on the mid-drain site — on
		// the first attempt and on every retry.
		if bucket == victim && perBucket[bucket]%2 == 0 {
			return errors.New("destination stalled mid-drain")
		}
		return nil
	}

	m, err := Start(c, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Wait()
	if err == nil {
		t.Fatal("migration should fail while the mid-drain fault persists")
	}
	if rep.Rollbacks == 0 {
		t.Error("mid-drain faults should count as rollbacks")
	}
	if got := c.Events().Get(metrics.EventMoveRollbacks); got == 0 {
		t.Error("move_rollbacks event counter not incremented")
	}
	// The aborted bucket never left the source: all data still readable and
	// byte-identical.
	sumMid, rowsMid, err := c.ContentChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if sumMid != sumBefore || rowsMid != rowsBefore {
		t.Errorf("aborted pre-copy changed content: %x/%d → %x/%d", sumBefore, rowsBefore, sumMid, rowsMid)
	}
	verifyKeys(t, c, 200)
	mu.Lock()
	bucket := victim
	mu.Unlock()
	for _, n := range c.Nodes() {
		for _, pid := range n.Partitions {
			exec, _ := c.ExecutorOf(pid)
			if err := exec.Do(func(p *storage.Partition) (int, error) {
				if p.Capturing(bucket) || p.Staged(bucket) != nil {
					t.Errorf("partition %d still capturing or staging bucket %d after the failed run", pid, bucket)
				}
				return 0, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	outage.Store(false)
	m2, err := m.Resume(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Wait(); err != nil {
		t.Fatalf("resume: %v", err)
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
}

// TestRunCancelsSleepingPairsOnFailure pins the cancellable-sleep contract:
// when one transfer pair fails terminally, pairs sleeping out their
// ChunkInterval pacing must wake immediately instead of serving the full
// sleep. With a 5s interval and ~16 buckets per pair, a non-cancellable
// sleep would hold Run for over a minute; cancellation ends it in
// milliseconds.
func TestRunCancelsSleepingPairsOnFailure(t *testing.T) {
	c := newTestCluster(t, 2, 1, 64)
	loadKeys(t, c, 200)
	opts := Options{
		BucketsPerChunk: 1,
		ChunkInterval:   5 * time.Second,
		MoveRetries:     -1, // no retries: first failure is terminal
		FaultHook: func(bucket, from, to int) error {
			if from == 1 {
				return errors.New("partition 1 unreachable")
			}
			return nil
		},
	}
	start := time.Now()
	_, err := Run(c, 4, opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run should fail")
	}
	if elapsed >= 2*time.Second {
		t.Errorf("failed run took %v; sleeping pairs were not canceled", elapsed)
	}
	// The healthy pair's aborted chunk leaves all data intact and readable.
	verifyKeys(t, c, 200)
}

// TestSeededBackoffDeterministic pins the contract that a pinned
// Options.Seed makes retry-backoff jitter reproducible (PSTORE_CHAOS_SEED
// chaos runs replay byte-identically), while distinct seeds diverge.
func TestSeededBackoffDeterministic(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		rng := newLockedRand(seed)
		out := make([]time.Duration, 12)
		for i := range out {
			out[i] = backoff(rng, i%6)
		}
		return out
	}
	a, b, other := seq(42), seq(42), seq(43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter sequences")
	}
	for i, d := range a {
		base := retryBackoff << uint(i%6)
		if d < base/2 || d > base+base/2 {
			t.Errorf("backoff[%d] = %v outside ±50%% of %v", i, d, base)
		}
	}
}
