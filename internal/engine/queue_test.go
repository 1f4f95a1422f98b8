package engine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/storage"
)

// Tests for the task queue: both lanes carry pooled *task, so a queue's
// buffer costs a pointer per slot, while its bound and shedding rule stay
// those of QueueDepth.

// benchQueueDepth is the queue depth the experiments run with.
const benchQueueDepth = 1 << 15

// TestNewExecutorQueueFootprint guards the queue's memory: at the
// experiments' depth an executor allocates its pointer buffer (256 KiB) and
// little else, where a buffer of task values cost 1.75 MiB.
func TestNewExecutorQueueFootprint(t *testing.T) {
	p := storage.NewPartition(0, 16, allBuckets(16))
	reg := testRegistry()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewExecutor(p, reg, Config{QueueDepth: benchQueueDepth})
	runtime.ReadMemStats(&after)
	defer e.Stop()
	const limit = 320 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("NewExecutor(QueueDepth %d) allocated %d bytes, want ≤ %d", benchQueueDepth, got, limit)
	}
}

// countingCompletion counts completions and the ErrOverloaded among them.
type countingCompletion struct{ done, overloaded, failed atomic.Int64 }

func (c *countingCompletion) Complete(res Result) {
	switch {
	case errors.Is(res.Err, ErrOverloaded):
		c.overloaded.Add(1)
	case res.Err != nil:
		c.failed.Add(1)
	}
	c.done.Add(1)
}

// TestQueueShedsAtExactCapacity pins the admission rule: with the run loop
// parked, exactly QueueCapacity transactions are accepted and the next one
// is shed with ErrOverloaded; every accepted one then runs.
func TestQueueShedsAtExactCapacity(t *testing.T) {
	cfg := Config{QueueDepth: benchQueueDepth}
	e := newTestExecutor(cfg)
	defer e.Stop()
	release, err := e.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	comp := &countingCompletion{}
	txn := &Txn{Proc: "Get", Key: "k"}
	for i := 0; i < cfg.QueueCapacity(); i++ {
		e.CallAsync(txn, comp)
	}
	if n := comp.overloaded.Load(); n != 0 {
		t.Fatalf("%d of %d transactions shed below capacity", n, cfg.QueueCapacity())
	}
	if got := e.QueueLen(); got != cfg.QueueCapacity() {
		t.Fatalf("QueueLen = %d, want %d", got, cfg.QueueCapacity())
	}
	e.CallAsync(txn, comp)
	if comp.overloaded.Load() != 1 || e.Shed() != 1 {
		t.Fatalf("transaction past capacity: %d overloaded, Shed %d; want 1, 1", comp.overloaded.Load(), e.Shed())
	}
	release()
	want := int64(cfg.QueueCapacity() + 1)
	for deadline := time.Now().Add(10 * time.Second); comp.done.Load() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d transactions completed", comp.done.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	// The accepted transactions ran: Get on a missing key aborts, it does
	// not fail with an enqueue error.
	if got := e.Processed(); got != int64(cfg.QueueCapacity()) {
		t.Errorf("Processed = %d, want %d", got, cfg.QueueCapacity())
	}
}

// TestQueuedDoAllocatesNothing pins the queued visit's budget: a Do handed
// to the run loop behind a transaction takes its task and reply channel
// from pools.
func TestQueuedDoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	e, _, _ := blockingExecutor(Config{ServiceTime: time.Millisecond})
	defer e.Stop()
	txn := &Txn{Proc: "Noop", Key: "k"}
	acks := make(collect, 1)
	var runs, handedOff int
	fn := func(*storage.Partition) (int, error) {
		runs++
		if e.unfinished.Load() != 0 {
			handedOff++
		}
		return 0, nil
	}
	visit := func() {
		e.CallAsync(txn, acks)
		if err := e.Do(fn); err != nil {
			t.Fatal(err)
		}
		<-acks
	}
	visit()
	if allocs := testing.AllocsPerRun(200, visit); allocs != 0 {
		t.Errorf("queued Do allocates %.1f objects, want 0", allocs)
	}
	// The transaction's service time keeps the partition busy when Do
	// arrives, so the visits measured were (nearly all) queued ones.
	if handedOff*2 < runs {
		t.Errorf("only %d of %d visits were queued", handedOff, runs)
	}
}
