package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/storage"
)

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("Put", func(tx *Txn) error {
		return tx.Put("T", tx.Key, map[string]string{"v": tx.Arg("v")})
	})
	reg.Register("Get", func(tx *Txn) error {
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
	reg.Register("Delete", func(tx *Txn) error {
		_, err := tx.Delete("T", tx.Key)
		return err
	})
	return reg
}

func allBuckets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func newTestExecutor(cfg Config) *Executor {
	p := storage.NewPartition(0, 16, allBuckets(16))
	p.CreateTable("T")
	return NewExecutor(p, testRegistry(), cfg)
}

func TestExecutorBasicTxns(t *testing.T) {
	e := newTestExecutor(Config{})
	defer e.Stop()
	res := e.Call(&Txn{Proc: "Put", Key: "k1", Args: map[string]string{"v": "hello"}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	res = e.Call(&Txn{Proc: "Get", Key: "k1"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Out["v"] != "hello" {
		t.Errorf("out = %v", res.Out)
	}
	if e.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", e.Processed())
	}
}

func TestExecutorAbort(t *testing.T) {
	e := newTestExecutor(Config{})
	defer e.Stop()
	res := e.Call(&Txn{Proc: "Get", Key: "missing"})
	if !IsAbort(res.Err) {
		t.Errorf("err = %v, want abort", res.Err)
	}
	if e.Aborted() != 1 {
		t.Errorf("Aborted = %d, want 1", e.Aborted())
	}
}

func TestExecutorUnknownProcedure(t *testing.T) {
	e := newTestExecutor(Config{})
	defer e.Stop()
	res := e.Call(&Txn{Proc: "Nope", Key: "k"})
	if res.Err == nil {
		t.Error("unknown procedure should fail")
	}
}

func TestExecutorSerializesConcurrentWrites(t *testing.T) {
	e := newTestExecutor(Config{})
	defer e.Stop()
	var wg sync.WaitGroup
	const n = 500
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := e.Call(&Txn{Proc: "Put", Key: fmt.Sprintf("k%d", i), Args: map[string]string{"v": "x"}})
			if res.Err != nil {
				t.Errorf("put %d: %v", i, res.Err)
			}
		}(i)
	}
	wg.Wait()
	if got := e.Processed(); got != n {
		t.Errorf("Processed = %d, want %d", got, n)
	}
}

func TestExecutorServiceTimeBoundsThroughput(t *testing.T) {
	e := newTestExecutor(Config{ServiceTime: 2 * time.Millisecond})
	defer e.Stop()
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		if res := e.Call(&Txn{Proc: "Put", Key: "k", Args: map[string]string{"v": "x"}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if elapsed := time.Since(start); elapsed < n*2*time.Millisecond {
		t.Errorf("20 txns at 2ms service time took %v, want ≥ 40ms", elapsed)
	}
}

func TestExecutorOverload(t *testing.T) {
	e := newTestExecutor(Config{ServiceTime: 50 * time.Millisecond, QueueDepth: 2})
	defer e.Stop()
	// A shed call completes synchronously, on the caller's goroutine, so
	// its result is already in done when CallAsync returns.
	done := make(collect, 20)
	var overloaded bool
	for i := 0; i < 20 && !overloaded; i++ {
		e.CallAsync(&Txn{Proc: "Put", Key: "k", Args: map[string]string{"v": "x"}}, done)
		for len(done) > 0 {
			overloaded = overloaded || errors.Is((<-done).Err, ErrOverloaded)
		}
	}
	if !overloaded {
		t.Error("tiny queue should overflow")
	}
}

func TestExecutorStop(t *testing.T) {
	e := newTestExecutor(Config{})
	e.Stop()
	if res := e.Call(&Txn{Proc: "Put", Key: "k"}); !errors.Is(res.Err, ErrStopped) {
		t.Errorf("err = %v, want ErrStopped", res.Err)
	}
	if err := e.Do(func(p *storage.Partition) (int, error) { return 0, nil }); !errors.Is(err, ErrStopped) {
		t.Errorf("Do err = %v, want ErrStopped", err)
	}
}

func TestExecutorDoMigrationWork(t *testing.T) {
	e := newTestExecutor(Config{MigrationRowCost: time.Microsecond})
	defer e.Stop()
	for i := 0; i < 50; i++ {
		e.Call(&Txn{Proc: "Put", Key: fmt.Sprintf("k%d", i), Args: map[string]string{"v": "x"}})
	}
	var pages *storage.BucketPages
	err := e.Do(func(p *storage.Partition) (int, error) {
		var err error
		pages, err = p.ExtractBucketPages(p.OwnedBuckets()[0])
		if err != nil {
			return 0, err
		}
		return pages.RowCount(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.MigratedRows() != int64(pages.RowCount()) {
		t.Errorf("MigratedRows = %d, want %d", e.MigratedRows(), pages.RowCount())
	}
}

// TestMigrationSliceRows pins the background visit budget: one slice costs
// about max(ServiceTime, minVisit), clamped to [1, maxSliceRows].
func TestMigrationSliceRows(t *testing.T) {
	for _, tc := range []struct {
		name             string
		service, rowCost time.Duration
		want             int
	}{
		// experiments.QuickScale: one 1.2ms transaction of 150µs rows.
		{"quickscale", 1200 * time.Microsecond, 150 * time.Microsecond, 8},
		// pstore-server defaults: -service-time 200µs, rows at a twentieth;
		// the 1ms floor, not the service time, sizes the visit.
		{"server-defaults", 200 * time.Microsecond, 10 * time.Microsecond, 100},
		{"free-rows", time.Millisecond, 0, maxSliceRows},
		// BenchmarkMigrationStall: the floor allows 1000 rows; the cap holds.
		{"capped", 2 * time.Microsecond, time.Microsecond, maxSliceRows},
		{"row-dearer-than-visit", time.Millisecond, 5 * time.Millisecond, 1},
	} {
		e := newTestExecutor(Config{ServiceTime: tc.service, MigrationRowCost: tc.rowCost})
		got := e.MigrationSliceRows()
		e.Stop()
		if got != tc.want {
			t.Errorf("%s: MigrationSliceRows = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// collect is a Completion that forwards every result to a buffered channel.
type collect chan Result

func (c collect) Complete(res Result) { c <- res }

// groupLog is a CommandLog that holds appends until flush, then fires their
// callbacks in LSN order from a goroutine of its own — group commit in
// miniature.
type groupLog struct {
	mu      sync.Mutex
	lsn     uint64
	pending []func()
}

func (g *groupLog) Append(_, _ string, _ map[string]string, onDurable func(uint64, error)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lsn++
	lsn := g.lsn
	g.pending = append(g.pending, func() { onDurable(lsn, nil) })
}

func (g *groupLog) flush() {
	g.mu.Lock()
	batch := g.pending
	g.pending = nil
	g.mu.Unlock()
	fired := make(chan struct{})
	go func() {
		for _, ack := range batch {
			ack()
		}
		close(fired)
	}()
	<-fired
}

// TestLoggedWriteCompletesOnceWhenDurable pins the logged-write contract:
// a write's completion fires exactly once, from the group committer, after
// its record is durable and carrying its LSN; a read is completed by the
// executor directly, with no LSN.
func TestLoggedWriteCompletesOnceWhenDurable(t *testing.T) {
	log := &groupLog{}
	e := newTestExecutor(Config{Log: log})
	defer e.Stop()
	done := make(collect, 8)
	const writes = 3
	for i := 1; i <= writes; i++ {
		e.CallAsync(&Txn{Proc: "Put", Key: fmt.Sprintf("k%d", i), Args: map[string]string{"v": "x"}}, done)
	}
	// The executor is FIFO: once this read returns, every write has run.
	if res := e.Call(&Txn{Proc: "Get", Key: "k1"}); res.Err != nil || res.LSN != 0 {
		t.Fatalf("read = %+v, want served with no LSN", res)
	}
	if len(done) != 0 {
		t.Fatalf("%d writes completed before their records were durable", len(done))
	}
	log.flush()
	for i := 1; i <= writes; i++ {
		if res := <-done; res.Err != nil || res.LSN != uint64(i) {
			t.Errorf("write %d completed with %+v, want LSN %d", i, res, i)
		}
	}
	log.flush()
	if len(done) != 0 {
		t.Errorf("%d extra completions after every write completed once", len(done))
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	reg := NewRegistry()
	reg.Register("X", func(tx *Txn) error { return nil })
	reg.Register("X", func(tx *Txn) error { return nil })
}

func TestMultiDoSerializable(t *testing.T) {
	reg := testRegistry()
	var execs []*Executor
	for i := 0; i < 3; i++ {
		p := storage.NewPartition(i, 16, allBuckets(16))
		p.CreateTable("T")
		execs = append(execs, NewExecutor(p, reg, Config{}))
	}
	defer func() {
		for _, e := range execs {
			e.Stop()
		}
	}()
	// Concurrent multi-partition increments across all three partitions
	// must not lose updates.
	var wg sync.WaitGroup
	const rounds = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := MultiDo(execs, func(parts []*storage.Partition) error {
					for _, p := range parts {
						r, ok, err := p.Get("T", "ctr")
						if err != nil {
							return err
						}
						n := 0
						if ok {
							fmt.Sscanf(r.Cols["v"], "%d", &n)
						}
						if err := p.Put("T", "ctr", map[string]string{"v": fmt.Sprint(n + 1)}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("MultiDo: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range execs {
		res := e.Call(&Txn{Proc: "Get", Key: "ctr"})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Out["v"] != fmt.Sprint(4*rounds) {
			t.Errorf("partition %d ctr = %s, want %d", e.Partition(), res.Out["v"], 4*rounds)
		}
	}
}

func TestMultiDoValidation(t *testing.T) {
	if err := MultiDo(nil, func([]*storage.Partition) error { return nil }); err == nil {
		t.Error("empty executor list should fail")
	}
	p := storage.NewPartition(0, 4, allBuckets(4))
	e := NewExecutor(p, testRegistry(), Config{})
	defer e.Stop()
	if err := MultiDo([]*Executor{e, e}, func([]*storage.Partition) error { return nil }); err == nil {
		t.Error("duplicate partitions should fail")
	}
}

func TestExecutorSurvivesPanickingProcedure(t *testing.T) {
	reg := testRegistry()
	reg.Register("Boom", func(tx *Txn) error {
		panic("procedure bug")
	})
	p := storage.NewPartition(0, 16, allBuckets(16))
	p.CreateTable("T")
	e := NewExecutor(p, reg, Config{})
	defer e.Stop()
	res := e.Call(&Txn{Proc: "Boom", Key: "k"})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", res.Err)
	}
	// The executor keeps serving.
	if res := e.Call(&Txn{Proc: "Put", Key: "k", Args: map[string]string{"v": "1"}}); res.Err != nil {
		t.Fatalf("executor dead after panic: %v", res.Err)
	}
}

func TestMultiDoNoDeadlockUnderContention(t *testing.T) {
	// Coordinators locking overlapping partition sets in different
	// presentation orders must never deadlock: MultiDo sorts by partition
	// ID before reserving.
	reg := testRegistry()
	var execs []*Executor
	for i := 0; i < 4; i++ {
		p := storage.NewPartition(i, 16, allBuckets(16))
		p.CreateTable("T")
		execs = append(execs, NewExecutor(p, reg, Config{}))
	}
	defer func() {
		for _, e := range execs {
			e.Stop()
		}
	}()
	sets := [][]*Executor{
		{execs[0], execs[1], execs[2]},
		{execs[2], execs[1], execs[0]},
		{execs[3], execs[0]},
		{execs[1], execs[3], execs[2]},
	}
	done := make(chan error, len(sets)*50)
	for g, set := range sets {
		go func(g int, set []*Executor) {
			for i := 0; i < 50; i++ {
				err := MultiDo(set, func(parts []*storage.Partition) error {
					for _, p := range parts {
						if err := p.Put("T", fmt.Sprintf("g%d", g), map[string]string{"i": fmt.Sprint(i)}); err != nil {
							return err
						}
					}
					return nil
				})
				done <- err
			}
		}(g, set)
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < len(sets)*50; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("deadlock: MultiDo coordinators never finished")
		}
	}
}

// TestDoBackgroundRunsBehindQueuedTxns pins the background lane's ordering
// contract: a DoBackground task enqueued after transactions runs only once
// those transactions have committed, and its row count is charged as
// migration work like Do's.
func TestDoBackgroundRunsBehindQueuedTxns(t *testing.T) {
	var committed atomic.Int64
	reg := NewRegistry()
	reg.Register("Inc", func(tx *Txn) error {
		committed.Add(1)
		return nil
	})
	p := storage.NewPartition(0, 16, allBuckets(16))
	p.CreateTable("T")
	e := NewExecutor(p, reg, Config{MigrationRowCost: time.Nanosecond})
	defer e.Stop()

	// Park the executor so the queue accumulates deterministically.
	release, err := e.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	const txns = 5
	acks := make(collect, txns)
	for i := 0; i < txns; i++ {
		e.CallAsync(&Txn{Proc: "Inc", Key: "k"}, acks)
	}
	var seen int64
	done := make(chan error, 1)
	go func() {
		done <- e.DoBackground(func(p *storage.Partition) (int, error) {
			seen = committed.Load()
			return 7, nil
		})
	}()
	// Give the goroutine time to enqueue behind the transactions, then let
	// the executor run. FIFO order in the regular queue does the rest.
	time.Sleep(20 * time.Millisecond)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if seen != txns {
		t.Errorf("background task saw %d committed txns, want %d", seen, txns)
	}
	for i := 0; i < txns; i++ {
		if res := <-acks; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if e.MigratedRows() != 7 {
		t.Errorf("MigratedRows = %d, want 7", e.MigratedRows())
	}
}

func TestDoBackgroundErrors(t *testing.T) {
	e := newTestExecutor(Config{})
	wantErr := errors.New("boom")
	if err := e.DoBackground(func(p *storage.Partition) (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	e.Stop()
	if err := e.DoBackground(func(p *storage.Partition) (int, error) { return 0, nil }); !errors.Is(err, ErrStopped) {
		t.Errorf("err after stop = %v, want ErrStopped", err)
	}
}
