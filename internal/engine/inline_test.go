package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/storage"
)

// Tests for the inline visit: a Do or DoBackground that finds its partition
// idle runs on the caller's goroutine instead of being handed to the run
// loop. They share the name prefix TestInline so the CI chaos job can run
// them under -race.

// blockingExecutor returns an executor whose "Block" procedure signals
// started and then waits for release.
func blockingExecutor(cfg Config) (e *Executor, started, release chan struct{}) {
	started, release = make(chan struct{}, 16), make(chan struct{})
	reg := NewRegistry()
	reg.Register("Block", func(tx *Txn) error {
		started <- struct{}{}
		<-release
		return nil
	})
	reg.Register("Noop", func(tx *Txn) error { return nil })
	p := storage.NewPartition(0, 16, allBuckets(16))
	p.CreateTable("T")
	return NewExecutor(p, reg, cfg), started, release
}

// orderLog records the order in which task bodies ran.
type orderLog struct {
	mu  sync.Mutex
	ran []string
}

func (l *orderLog) add(s string) {
	l.mu.Lock()
	l.ran = append(l.ran, s)
	l.mu.Unlock()
}

func (l *orderLog) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ran...)
}

// doAsync runs Do (or DoBackground) on a goroutine of its own, logging the
// body under name, and returns the channel its error arrives on.
func doAsync(e *Executor, background bool, log *orderLog, name string) <-chan error {
	done := make(chan error, 1)
	fn := func(*storage.Partition) (int, error) {
		log.add(name)
		return 0, nil
	}
	go func() {
		if background {
			done <- e.DoBackground(fn)
		} else {
			done <- e.Do(fn)
		}
	}()
	return done
}

// settle gives goroutines started just before it time to reach the
// executor; the assertions after it hold whatever the scheduler does.
func settle() { time.Sleep(20 * time.Millisecond) }

// TestInlineVisitNeverOvertakesEarlierWork pins the ordering rule: a visit
// submitted while earlier work is unfinished — a running transaction, a
// queued priority task, a transaction queued ahead of a background visit,
// or a visit running inline — runs after that work, never beside or before
// it.
func TestInlineVisitNeverOvertakesEarlierWork(t *testing.T) {
	t.Run("running transaction", func(t *testing.T) {
		for _, bg := range []bool{false, true} {
			e, started, release := blockingExecutor(Config{})
			acks := make(collect, 1)
			e.CallAsync(&Txn{Proc: "Block", Key: "k"}, acks)
			<-started
			var log orderLog
			done := doAsync(e, bg, &log, "visit")
			settle()
			if got := log.get(); len(got) != 0 {
				t.Errorf("background=%v: visit ran while a transaction held the partition", bg)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if res := <-acks; res.Err != nil {
				t.Fatal(res.Err)
			}
			e.Stop()
		}
	})
	t.Run("queued priority task", func(t *testing.T) {
		e := newTestExecutor(Config{})
		defer e.Stop()
		rel, err := e.Reserve()
		if err != nil {
			t.Fatal(err)
		}
		var log orderLog
		first := doAsync(e, false, &log, "first")
		for deadline := time.Now().Add(5 * time.Second); len(e.prio) == 0; {
			if time.Now().After(deadline) {
				rel()
				t.Fatal("first visit never reached the priority lane")
			}
			time.Sleep(time.Millisecond)
		}
		second := doAsync(e, false, &log, "second")
		settle()
		if got := log.get(); len(got) != 0 {
			t.Errorf("visits ran while the partition was reserved: %v", got)
		}
		rel()
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if err := <-second; err != nil {
			t.Fatal(err)
		}
		if got := log.get(); len(got) != 2 || got[0] != "first" || got[1] != "second" {
			t.Errorf("order = %v, want [first second]", got)
		}
	})
	t.Run("transaction queued ahead of a background visit", func(t *testing.T) {
		var log orderLog
		reg := NewRegistry()
		reg.Register("Log", func(tx *Txn) error {
			log.add("txn")
			return nil
		})
		p := storage.NewPartition(0, 16, allBuckets(16))
		e := NewExecutor(p, reg, Config{})
		defer e.Stop()
		rel, err := e.Reserve()
		if err != nil {
			t.Fatal(err)
		}
		acks := make(collect, 1)
		e.CallAsync(&Txn{Proc: "Log", Key: "k"}, acks)
		done := doAsync(e, true, &log, "visit")
		settle()
		rel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		<-acks
		if got := log.get(); len(got) != 2 || got[0] != "txn" || got[1] != "visit" {
			t.Errorf("order = %v, want [txn visit]", got)
		}
	})
	t.Run("inline visit in flight", func(t *testing.T) {
		e := newTestExecutor(Config{})
		defer e.Stop()
		var log orderLog
		inBody, hold := make(chan struct{}), make(chan struct{})
		first := make(chan error, 1)
		go func() {
			first <- e.Do(func(*storage.Partition) (int, error) {
				close(inBody)
				<-hold
				log.add("first")
				return 0, nil
			})
		}()
		<-inBody
		second := doAsync(e, false, &log, "second")
		settle()
		close(hold)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if err := <-second; err != nil {
			t.Fatal(err)
		}
		if got := log.get(); len(got) != 2 || got[0] != "first" || got[1] != "second" {
			t.Errorf("order = %v, want [first second]", got)
		}
	})
}

// TestInlineHammerOneBodyAtATime drives transactions, Do and DoBackground
// from many goroutines at once and checks, with a counter every body raises
// and lowers, that no two bodies ever touch the partition together — inline
// or queued.
func TestInlineHammerOneBodyAtATime(t *testing.T) {
	var inBody, overlaps, txns atomic.Int64
	enter := func() {
		if inBody.Add(1) != 1 {
			overlaps.Add(1)
		}
		runtime.Gosched() // widen the window a second body would need
	}
	leave := func() { inBody.Add(-1) }
	reg := NewRegistry()
	reg.Register("Body", func(tx *Txn) error {
		enter()
		defer leave()
		txns.Add(1)
		return tx.Put("T", tx.Key, map[string]string{"v": "x"})
	})
	p := storage.NewPartition(0, 16, allBuckets(16))
	p.CreateTable("T")
	e := NewExecutor(p, reg, Config{MigrationRowCost: time.Nanosecond})
	defer e.Stop()

	const workers, rounds = 6, 300
	var visits atomic.Int64
	body := func(p *storage.Partition) (int, error) {
		enter()
		defer leave()
		visits.Add(1)
		return p.RowCount() % 3, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acks := make(collect, rounds)
			submitted := 0
			for i := 0; i < rounds; i++ {
				var err error
				switch (w + i) % 3 {
				case 0:
					e.CallAsync(&Txn{Proc: "Body", Key: "k"}, acks)
					submitted++
				case 1:
					err = e.Do(body)
				case 2:
					err = e.DoBackground(body)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			for ; submitted > 0; submitted-- {
				if res := <-acks; res.Err != nil {
					t.Error(res.Err)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d bodies started while another was running", n)
	}
	if got, want := txns.Load()+visits.Load(), int64(workers*rounds); got != want {
		t.Errorf("%d bodies ran, want %d", got, want)
	}
}

// TestInlineChargesMigrationRows pins the cost model: a visit that finds
// the executor idle starts the work clock afresh, as the run loop does
// after an idle wait, so its rows are charged in full however long the
// partition sat idle.
func TestInlineChargesMigrationRows(t *testing.T) {
	const rowCost, rows = 50 * time.Microsecond, 200
	e := newTestExecutor(Config{MigrationRowCost: rowCost})
	defer e.Stop()
	fn := func(*storage.Partition) (int, error) { return rows, nil }
	for _, bg := range []bool{false, true} {
		settle() // idle long enough that a stale clock would owe no wait
		start := time.Now()
		var err error
		if bg {
			err = e.DoBackground(fn)
		} else {
			err = e.Do(fn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if elapsed, want := time.Since(start), rows*rowCost; elapsed < want {
			t.Errorf("background=%v: %d rows at %v took %v, want ≥ %v", bg, rows, rowCost, elapsed, want)
		}
	}
	if got := e.MigratedRows(); got != 2*rows {
		t.Errorf("MigratedRows = %d, want %d", got, 2*rows)
	}
}

// TestInlineBlockedWhilePartitionHeld checks that a visit waits while a 2PC
// reservation or a freeze (a visit that stalls inside its body) holds the
// partition, and runs once it is let go.
func TestInlineBlockedWhilePartitionHeld(t *testing.T) {
	t.Run("reservation", func(t *testing.T) {
		e := newTestExecutor(Config{})
		defer e.Stop()
		rel, err := e.Reserve()
		if err != nil {
			t.Fatal(err)
		}
		var log orderLog
		done := doAsync(e, false, &log, "visit")
		settle()
		select {
		case <-done:
			t.Error("Do returned while the partition was reserved")
		default:
		}
		rel()
		if err := <-done; err != nil || len(log.get()) != 1 {
			t.Fatalf("after release: err %v, ran %v", err, log.get())
		}
	})
	t.Run("freeze", func(t *testing.T) {
		e := newTestExecutor(Config{})
		defer e.Stop()
		frozen, thaw := make(chan struct{}), make(chan struct{})
		freezeDone := make(chan error, 1)
		go func() {
			freezeDone <- e.Do(func(*storage.Partition) (int, error) {
				close(frozen)
				<-thaw
				return 0, nil
			})
		}()
		<-frozen
		var log orderLog
		visit := doAsync(e, false, &log, "visit")
		reserved := make(chan func(), 1)
		go func() {
			rel, err := e.Reserve()
			if err != nil {
				t.Error(err)
				rel = func() {}
			}
			reserved <- rel
		}()
		settle()
		if got := log.get(); len(got) != 0 {
			t.Errorf("visit ran during a freeze: %v", got)
		}
		select {
		case <-reserved:
			t.Error("Reserve acquired the partition during a freeze")
		default:
		}
		close(thaw)
		if err := <-freezeDone; err != nil {
			t.Fatal(err)
		}
		(<-reserved)()
		if err := <-visit; err != nil {
			t.Fatal(err)
		}
	})
}

// TestInlineStopWaitsForVisit checks that Stop returns only after a visit
// running inline has finished, and that a visit after Stop fails with
// ErrStopped without running.
func TestInlineStopWaitsForVisit(t *testing.T) {
	e := newTestExecutor(Config{})
	inBody, hold := make(chan struct{}), make(chan struct{})
	visitDone := make(chan error, 1)
	go func() {
		visitDone <- e.Do(func(*storage.Partition) (int, error) {
			close(inBody)
			<-hold
			return 0, nil
		})
	}()
	<-inBody
	stopped := make(chan struct{})
	go func() {
		e.Stop()
		close(stopped)
	}()
	settle()
	select {
	case <-stopped:
		t.Fatal("Stop returned while an inline visit was running")
	default:
	}
	close(hold)
	<-stopped
	if err := <-visitDone; err != nil {
		t.Errorf("in-flight visit: %v", err)
	}
	ran := false
	fn := func(*storage.Partition) (int, error) { ran = true; return 0, nil }
	if err := e.Do(fn); !errors.Is(err, ErrStopped) {
		t.Errorf("Do after Stop = %v, want ErrStopped", err)
	}
	if err := e.DoBackground(fn); !errors.Is(err, ErrStopped) {
		t.Errorf("DoBackground after Stop = %v, want ErrStopped", err)
	}
	if ran {
		t.Error("a visit after Stop ran its body")
	}
}

// TestInlineNeverRunsTransactions checks that transactions keep the queue
// even on an idle executor: CallAsync of a procedure that blocks returns
// while the procedure is still running, which it could not do had the
// procedure run on the caller's goroutine.
func TestInlineNeverRunsTransactions(t *testing.T) {
	e, started, release := blockingExecutor(Config{})
	defer e.Stop()
	acks := make(collect, 1)
	returned := make(chan struct{})
	go func() {
		e.CallAsync(&Txn{Proc: "Block", Key: "k"}, acks)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Error("CallAsync did not return while its procedure blocked")
	}
	<-started
	close(release)
	if res := <-acks; res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestInlineIdleDoAllocatesNothing pins the fast path: a visit to an idle
// partition is never handed to the run loop — its body sees no unfinished
// task — and needs no task, reply channel or handoff.
func TestInlineIdleDoAllocatesNothing(t *testing.T) {
	e := newTestExecutor(Config{})
	defer e.Stop()
	var handedOff bool
	if err := e.Do(func(*storage.Partition) (int, error) {
		handedOff = e.unfinished.Load() != 0
		return 0, nil
	}); err != nil || handedOff {
		t.Fatalf("idle Do: err %v, handed to the run loop %v", err, handedOff)
	}
	fn := func(*storage.Partition) (int, error) { return 0, nil }
	if allocs := testing.AllocsPerRun(1000, func() { e.Do(fn) }); allocs != 0 {
		t.Errorf("idle Do allocates %.1f objects, want 0", allocs)
	}
}

// syncLog is a CommandLog whose records are durable on append: it acks on
// the caller's goroutine and allocates nothing.
type syncLog struct{ lsn uint64 }

func (l *syncLog) Append(_, _ string, _ map[string]string, onDurable func(uint64, error)) {
	l.lsn++
	onDurable(l.lsn, nil)
}

// TestLoggedWriteAckAllocatesNothing pins the durable-ack budget: deferring
// a logged write's completion to its log callback allocates nothing.
func TestLoggedWriteAckAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	reg := NewRegistry()
	reg.Register("Dirty", func(tx *Txn) error {
		tx.dirty = true
		return nil
	})
	p := storage.NewPartition(0, 16, allBuckets(16))
	log := &syncLog{}
	e := NewExecutor(p, reg, Config{Log: log})
	defer e.Stop()
	txn := &Txn{Proc: "Dirty", Key: "k"}
	call := func() {
		if res := e.Call(txn); res.Err != nil || res.LSN == 0 {
			t.Fatalf("logged write = %+v", res)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(1000, call); allocs != 0 {
		t.Errorf("logged write allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkExecutorDo times one synchronous visit: to an idle partition
// (inline), and behind one queued transaction (handed to the run loop).
func BenchmarkExecutorDo(b *testing.B) {
	fn := func(*storage.Partition) (int, error) { return 0, nil }
	b.Run("idle", func(b *testing.B) {
		e := newTestExecutor(Config{})
		defer e.Stop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.Do(fn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("queued", func(b *testing.B) {
		e, _, _ := blockingExecutor(Config{})
		defer e.Stop()
		txn := &Txn{Proc: "Noop", Key: "k"}
		acks := make(collect, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.CallAsync(txn, acks)
			if err := e.Do(fn); err != nil {
				b.Fatal(err)
			}
			<-acks
		}
	})
}
