package durability

// BenchmarkDurabilityOverhead measures executor write throughput in three
// configurations: command logging off (the in-memory fast path), group
// commit (the default), and per-transaction fsync. Clients keep a window of
// transactions in flight, as a real workload would, so group commit can
// amortize its syncs across the pipeline.

import (
	"fmt"
	"testing"
	"time"

	"pstore/internal/engine"
)

func benchmarkExecutorWrites(b *testing.B, opts *Options) {
	reg := testRegistry()
	part := newTestPartition(8)
	cfg := engine.Config{}
	var mgr *Manager
	if opts != nil {
		var err error
		mgr, err = Open(b.TempDir(), part.ID(), *opts)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Log = mgr
	}
	e := engine.NewExecutor(part, reg, cfg)
	defer func() {
		e.Stop()
		if mgr != nil {
			mgr.Close()
		}
	}()

	const window = 256
	done := make(results, window)
	pending := 0
	drain := func() {
		for ; pending > 0; pending-- {
			if res := <-done; res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := engine.Txn{Proc: "set", Key: fmt.Sprintf("k-%d", i%97),
			Args: map[string]string{"v": "benchmark-value"}}
		e.CallAsync(&txn, done)
		if pending++; pending == window {
			drain()
		}
	}
	drain()
}

// results is a Completion that forwards every result to a buffered channel.
type results chan engine.Result

func (r results) Complete(res engine.Result) { r <- res }

func BenchmarkDurabilityOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchmarkExecutorWrites(b, nil)
	})
	b.Run("group-commit", func(b *testing.B) {
		benchmarkExecutorWrites(b, &Options{GroupCommitInterval: 2 * time.Millisecond})
	})
	b.Run("fsync-every-txn", func(b *testing.B) {
		benchmarkExecutorWrites(b, &Options{SyncEvery: true})
	})
}
