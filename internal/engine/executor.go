package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/storage"
)

// ErrOverloaded is returned when an executor's queue is full: the partition
// cannot absorb the offered load.
var ErrOverloaded = errors.New("engine: executor queue full")

// ErrStopped is returned for submissions to a stopped executor.
var ErrStopped = errors.New("engine: executor stopped")

// Config holds executor tuning knobs shared across a cluster.
type Config struct {
	// ServiceTime is the synthetic CPU time consumed by each transaction.
	// The paper adds an artificial delay per transaction to emulate B2W's
	// production per-transaction cost on much faster H-Store hardware
	// (§7); we use the same trick to give each partition a well-defined
	// saturation throughput of 1/ServiceTime.
	ServiceTime time.Duration
	// MigrationRowCost is the synthetic CPU time per row spent extracting
	// or applying a migration chunk. Moving data steals these cycles from
	// transaction processing — the source of reconfiguration overhead. It
	// also sizes every background migration visit: MigrationSliceRows rows
	// cost about max(ServiceTime, 1ms), so a transaction queued behind a
	// copy slice waits about one transaction longer.
	MigrationRowCost time.Duration
	// QueueDepth bounds the executor's task queue; submissions beyond it
	// fail with ErrOverloaded. Defaults to 8192.
	QueueDepth int
	// Log, if set, receives every committed writing transaction before the
	// client is acked (command logging). When nil the executor takes the
	// in-memory fast path with no durability overhead.
	Log CommandLog
}

// QueueCapacity is the executor's task-queue bound: QueueDepth, or 8192
// when unset.
func (c Config) QueueCapacity() int {
	if c.QueueDepth <= 0 {
		return 8192
	}
	return c.QueueDepth
}

const (
	// maxSliceRows caps the rows of one background migration visit, and is
	// the whole budget when migration rows cost nothing.
	maxSliceRows = 256
	// minVisit is the shortest visit a migration slice is sized for. Paced
	// waits shorter than about a millisecond cost timer wake-ups, not the
	// charge: visits charging 8µs each took ~110µs apiece in
	// BenchmarkMigrationStall, a tenfold slower move.
	minVisit = time.Millisecond
)

// Result is the outcome of a transaction. Latency is stamped by the
// cluster's call path, which times a transaction end to end across retries;
// the executor leaves it zero.
type Result struct {
	Out     map[string]string
	Err     error
	Latency time.Duration
	// Partition is the partition that executed the transaction; LSN is the
	// command-log position of a logged write (zero for reads and for
	// configurations without a command log). Clients use the pair to track
	// per-partition read-your-writes sessions against replicas.
	Partition int
	LSN       uint64
}

// Executor runs one partition's work serially: transactions, migration
// chunk extraction/application, and administrative functions are handed to
// one goroutine, exactly like an H-Store partition engine. Migration and
// administrative tasks (Do, Reserve) go through a priority lane dispatched
// ahead of queued transactions, as Squall schedules reconfiguration work —
// they still consume the executor's time, so migration interferes with
// transaction latency, but a transaction backlog cannot starve a
// reconfiguration. A partition function whose caller would only park for
// the result (Do, DoBackground) skips the handoff when the partition is
// idle and runs on the caller's goroutine; the partition token keeps that
// serial with the run loop.
type Executor struct {
	cfg   Config
	part  *storage.Partition
	reg   *Registry
	queue chan *task
	prio  chan *task
	done  chan struct{}
	quit  chan struct{} // closed by Stop; wakes a pacing executor immediately

	// stopMu serializes queue sends against Stop's close: senders hold the
	// read side while checking stopped and sending, so close never races
	// with an in-flight send.
	stopMu  sync.RWMutex
	stopped atomic.Bool

	// tok is the partition token: whoever holds it is the one goroutine
	// touching the partition, its work clock and its pacing timer — the run
	// loop while it executes a dequeued task, or a caller running a visit
	// inline. Channel operations (replies, the 2PC handshake) stay outside
	// it.
	tok sync.Mutex
	// unfinished counts tasks submitted to either lane and not yet finished:
	// raised before the channel send, lowered once the task (or its drain on
	// Stop) is done. An inline visit runs only while it is 0, so it never
	// overtakes earlier work, a parked 2PC reservation or a queued freeze.
	unfinished atomic.Int64

	processed atomic.Int64
	aborted   atomic.Int64
	migRows   atomic.Int64
	shed      atomic.Int64

	// workClock is the executor's virtual busy-until time, used to charge
	// synthetic work precisely even on hosts with coarse sleep timers:
	// oversleeping one transaction shortens the wait of the next, so the
	// sustained service rate is exactly 1/ServiceTime. Only the holder of
	// tok touches it.
	workClock time.Time
	// spinTimer paces synthetic work; reused across transactions so the hot
	// path allocates no timers. Only the holder of tok touches it.
	spinTimer *time.Timer
}

// Completion receives a transaction's result: it is the only way a
// transaction's outcome leaves the executor. Complete runs on the executor
// goroutine — or the group-commit goroutine for logged writes — so
// implementations must be non-blocking and bounded: encode, hand off,
// return.
type Completion interface {
	Complete(Result)
}

// Waiter is a one-shot Completion a synchronous caller parks on: the one way
// a blocking call is built from an asynchronous one. Complete's send cannot
// block (the channel holds one result and receives exactly one). Waiters
// are pooled, so a synchronous call allocates nothing for its reply.
type Waiter chan Result

var waiters = sync.Pool{New: func() any { return make(Waiter, 1) }}

// AcquireWaiter returns a pooled Waiter. Pass it as exactly one call's
// completion, then call Wait once.
func AcquireWaiter() Waiter { return waiters.Get().(Waiter) }

// Complete delivers the call's result to the parked caller.
func (w Waiter) Complete(res Result) { w <- res }

// Wait blocks for the result and returns the Waiter to its pool.
func (w Waiter) Wait() Result {
	res := <-w
	waiters.Put(w)
	return res
}

// fnReplies pools the reply channels of queued partition functions. Each
// receives exactly one error, which its caller drains before putting it
// back, so a recycled channel is always empty.
var fnReplies = sync.Pool{New: func() any { return make(chan error, 1) }}

// task is one unit of queued work. Both lanes carry *task, so a queue slot
// costs a pointer however deep the queue is; tasks come from a pool, and
// whoever finishes one (the run loop, a drain, or an enqueue that failed)
// releases it.
type task struct {
	txn  *Txn
	comp Completion

	fn      func(p *storage.Partition) (rows int, err error)
	fnReply chan error

	park chan struct{} // 2PC: signals acquisition, waits for release
	held chan struct{}
}

var tasks = sync.Pool{New: func() any { return new(task) }}

// newTask returns an empty pooled task.
func newTask() *task { return tasks.Get().(*task) }

// Release clears the task and returns it to its pool. Nothing may touch it
// afterwards.
func (t *task) Release() {
	*t = task{}
	tasks.Put(t)
}

// NewExecutor starts an executor for the partition. Stop must be called to
// release its goroutine.
func NewExecutor(part *storage.Partition, reg *Registry, cfg Config) *Executor {
	e := &Executor{
		cfg:   cfg,
		part:  part,
		reg:   reg,
		queue: make(chan *task, cfg.QueueCapacity()),
		prio:  make(chan *task, 256),
		done:  make(chan struct{}),
		quit:  make(chan struct{}),
	}
	go e.run()
	return e
}

// Partition returns the executor's partition ID.
func (e *Executor) Partition() int { return e.part.ID() }

// QueueLen returns the number of queued tasks (approximate).
func (e *Executor) QueueLen() int { return len(e.queue) }

// Processed returns the number of completed transactions.
func (e *Executor) Processed() int64 { return e.processed.Load() }

// Aborted returns the number of intentionally aborted transactions.
func (e *Executor) Aborted() int64 { return e.aborted.Load() }

// MigratedRows returns the number of rows moved through this executor by
// migration tasks (extractions plus applications).
func (e *Executor) MigratedRows() int64 { return e.migRows.Load() }

// MigrationSliceRows is the most rows one background migration visit
// (DoBackground) should carry here: as many as cost max(ServiceTime,
// minVisit) to move, clamped to [1, maxSliceRows], so that a visit holds
// the executor for about one transaction.
func (e *Executor) MigrationSliceRows() int {
	if e.cfg.MigrationRowCost <= 0 {
		return maxSliceRows
	}
	n := int(max(e.cfg.ServiceTime, minVisit) / e.cfg.MigrationRowCost)
	return min(max(n, 1), maxSliceRows)
}

// Shed returns the number of submissions fast-failed with ErrOverloaded —
// the executor's admission-control drop count.
func (e *Executor) Shed() int64 { return e.shed.Load() }

// Stop shuts the executor down after draining already queued work and
// waiting out any visit running inline on a caller's goroutine. It is
// idempotent.
func (e *Executor) Stop() {
	e.stopMu.Lock()
	if !e.stopped.Load() {
		e.stopped.Store(true)
		close(e.queue)
		close(e.quit) // cancels any in-progress pacing wait promptly
	}
	e.stopMu.Unlock()
	<-e.done
	e.drainPrio() // fail any priority task that raced in during shutdown
	// An inline visit that took the token before stopped was set is still
	// running; one that takes it later sees stopped and does not run.
	e.tok.Lock()
	e.tok.Unlock()
}

// Stopped reports whether Stop has been called. It is the failover
// monitor's fast path: a killed partition's executor reads as stopped
// immediately, without waiting out a probe timeout.
func (e *Executor) Stopped() bool { return e.stopped.Load() }

// Healthy probes the executor with a no-op priority task, reporting whether
// it responded within the timeout. A false answer means the executor is
// stopped or wedged (hung procedure, frozen goroutine) — the failover
// monitor's liveness signal. The probe rides the priority lane, so a deep
// transaction backlog does not read as dead.
func (e *Executor) Healthy(timeout time.Duration) bool {
	select {
	case <-e.done:
		return false
	default:
	}
	// The reply channel is not pooled: a probe that times out abandons it
	// to a late send.
	reply := make(chan error, 1)
	t := newTask()
	t.fn, t.fnReply = func(p *storage.Partition) (int, error) { return 0, nil }, reply
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	e.unfinished.Add(1)
	select {
	case e.prio <- t:
	case <-e.done:
		e.unfinished.Add(-1)
		t.Release()
		return false
	case <-timer.C:
		e.unfinished.Add(-1)
		t.Release()
		return false
	}
	select {
	case err := <-reply:
		return err == nil
	case <-e.done:
		return false
	case <-timer.C:
		return false
	}
}

// drainPrio fails all pending priority tasks with ErrStopped.
func (e *Executor) drainPrio() {
	for {
		select {
		case t := <-e.prio:
			e.unfinished.Add(-1)
			if t.fnReply != nil {
				t.fnReply <- ErrStopped //pstore:ignore execblock — fnReply is buffered (cap 1) and single-use; the send cannot block
			}
			if t.park != nil {
				close(t.park) // Reserve caller sees a closed channel
			}
			t.Release()
		default:
			return
		}
	}
}

// run is the partition's single service loop: it owns the partition's data
// and virtual work clock, so anything that blocks here stalls the whole
// partition. pstore-vet's execblock check seeds its never-block reachability
// analysis from this marker.
//
//pstore:executor
func (e *Executor) run() {
	defer e.drainPrio()
	defer close(e.done)
	for {
		var t *task
		var ok, idle bool
		select {
		case t = <-e.prio:
			ok = true
		default:
			select {
			case t = <-e.prio:
				ok = true
			case t, ok = <-e.queue:
			default:
				// Both lanes empty: block for the next task.
				select {
				case t = <-e.prio:
					ok = true
				case t, ok = <-e.queue:
				}
				idle = true
			}
		}
		if !ok {
			return
		}
		// The task is counted, so no inline visit starts from here on; take
		// the token, waiting out one already running. A task that waited
		// for one arrived while the partition was busy, so it inherits the
		// visit's work clock as a task queued behind it would.
		if !e.tok.TryLock() {
			e.tok.Lock()
			idle = false
		}
		if idle {
			// Reset the work clock — idle time is not banked as service
			// credit.
			e.workClock = time.Now()
		}
		switch {
		case t.txn != nil:
			res := e.execTxn(t.txn)
			e.tok.Unlock()
			if e.cfg.Log != nil && t.txn.dirty && !isNotOwned(res.Err) {
				// Command logging: hand the ack to the group committer so
				// the client never sees a result that could be lost. The
				// executor moves straight on to the next transaction —
				// pipelining is what makes group commit cheap. The task
				// stays counted until its record is appended, so an inline
				// snapshot never sees its effect without its LSN.
				e.ackDurable(t.txn, t.comp, res)
			} else {
				t.comp.Complete(res)
			}
			e.unfinished.Add(-1)
		case t.fn != nil:
			err := e.runFn(t.fn)
			e.tok.Unlock()
			e.unfinished.Add(-1)
			if t.fnReply != nil {
				t.fnReply <- err //pstore:ignore execblock — fnReply is buffered (cap 1) and single-use; the send cannot block
			}
		case t.park != nil:
			// Two-phase-commit style reservation: the executor parks until
			// the coordinator releases it, modeling H-Store's blocking
			// distributed transactions. The partition passes to the
			// coordinator without the token; the counted park task keeps
			// inline visits out until release.
			e.tok.Unlock()
			t.park <- struct{}{} //pstore:ignore execblock — 2PC reservation: parking the partition is the point (H-Store blocking distributed txn)
			<-t.held             //pstore:ignore execblock — released by the coordinator's release func; parking until then is the reservation contract
			e.unfinished.Add(-1)
		}
		t.Release()
	}
}

// runFn runs a partition function and charges its rows as migration work.
// The caller holds tok.
func (e *Executor) runFn(fn func(p *storage.Partition) (rows int, err error)) error {
	rows, err := fn(e.part)
	if rows > 0 {
		e.migRows.Add(int64(rows))
		e.spin(time.Duration(rows) * e.cfg.MigrationRowCost)
	}
	return err
}

func isNotOwned(err error) bool { return storage.IsNotOwned(err) }

// ackDurable defers a transaction's completion until its log record is on
// stable storage. The callback runs on the log's group-commit goroutine (or
// a replication feed's completion path).
func (e *Executor) ackDurable(txn *Txn, comp Completion, res Result) {
	a, _ := durableAcks.Get().(*durableAck)
	if a == nil {
		a = &durableAck{}
		a.onDurable = a.complete
	}
	a.comp, a.res = comp, res
	e.cfg.Log.Append(txn.Proc, txn.Key, txn.Args, a.onDurable)
}

// durableAck carries a logged write's completion and result until the log
// reports the record durable. Acks are pooled with their callback bound
// once, when the ack is made, so a logged write allocates nothing for it.
type durableAck struct {
	comp      Completion
	res       Result
	onDurable func(lsn uint64, err error)
}

// durableAcks has no New: an ack's callback puts the ack back, so a New
// binding that callback would make the pool refer to itself.
var durableAcks sync.Pool

// complete is the ack's log callback; the CommandLog contract runs it
// exactly once, so the ack goes back to its pool before completing.
func (a *durableAck) complete(lsn uint64, logErr error) {
	comp, res := a.comp, a.res
	a.comp, a.res = nil, Result{}
	durableAcks.Put(a)
	res.LSN = lsn
	if logErr != nil && res.Err == nil {
		res.Err = fmt.Errorf("engine: command log append: %w", logErr)
	}
	comp.Complete(res)
}

func (e *Executor) execTxn(txn *Txn) Result {
	proc, ok := e.reg.Lookup(txn.Proc)
	if !ok {
		return Result{Err: fmt.Errorf("engine: unknown procedure %q", txn.Proc), Partition: e.part.ID()}
	}
	txn.dirty = false
	txn.part = e.part
	err := e.safeCall(proc, txn)
	txn.part = nil
	if storage.IsNotOwned(err) {
		// The key's bucket is in flight to another partition: the engine
		// detects this on the index lookup and requeues without doing the
		// transaction's work, so no service time is charged.
		return Result{Out: txn.out, Err: err, Partition: e.part.ID()}
	}
	e.spin(e.cfg.ServiceTime)
	e.processed.Add(1)
	if err != nil && IsAbort(err) {
		e.aborted.Add(1)
	}
	return Result{Out: txn.out, Err: err, Partition: e.part.ID()}
}

// safeCall runs a stored procedure, converting a panic into an error so a
// buggy procedure cannot take down its partition executor (H-Store aborts
// the transaction, not the site).
func (e *Executor) safeCall(proc Procedure, txn *Txn) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: procedure %q panicked: %v", txn.Proc, r)
		}
	}()
	return proc(txn)
}

// spin charges d of synthetic work against the executor's virtual work
// clock and waits until the clock catches up. The clock is never clamped
// forward here: if the host's coarse timers make one wait overshoot, the
// next transactions wait correspondingly less, so the sustained service
// rate stays at exactly 1/ServiceTime. The run loop resets the clock after
// genuine idleness. The wait is cancellable: Stop closes e.quit, so a
// stopping executor never rides out a pacing delay (and the execblock
// invariant — no bare sleeps on the executor path — holds by construction).
func (e *Executor) spin(d time.Duration) {
	if d <= 0 {
		return
	}
	e.workClock = e.workClock.Add(d)
	wait := time.Until(e.workClock)
	if wait <= 0 {
		return
	}
	if e.spinTimer == nil {
		e.spinTimer = time.NewTimer(wait)
	} else {
		e.spinTimer.Reset(wait)
	}
	select {
	case <-e.spinTimer.C:
	case <-e.quit:
		if !e.spinTimer.Stop() {
			// Timer fired concurrently with the cancel; drain so the next
			// Reset starts from a clean channel.
			select {
			case <-e.spinTimer.C:
			default:
			}
		}
	}
}

// Call runs a transaction and waits for its result: CallAsync plus a
// pooled Waiter.
func (e *Executor) Call(txn *Txn) Result {
	w := AcquireWaiter()
	e.CallAsync(txn, w)
	return w.Wait()
}

// CallAsync enqueues a transaction and delivers its result through comp:
// the executor (or the group committer, for logged writes) invokes
// comp.Complete exactly once, so a completed call needs no wakeup of a
// parked caller goroutine. Enqueue failures (ErrOverloaded, ErrStopped)
// complete synchronously on the caller's goroutine. Every transaction
// enqueued is completed: the run loop drains the queue on Stop.
func (e *Executor) CallAsync(txn *Txn, comp Completion) {
	t := newTask()
	t.txn, t.comp = txn, comp
	if err := e.enqueue(t); err != nil {
		comp.Complete(Result{Err: err})
	}
}

// Do runs fn with exclusive partition access and waits for completion,
// dispatched through the priority lane ahead of queued transactions. fn
// reports the number of rows it touched so the executor can charge
// migration work time. When the partition is idle — nothing queued or
// running in either lane — fn runs on the caller's goroutine instead, with
// the same exclusivity and the same charge; it must therefore be as
// non-blocking as anything the executor runs.
func (e *Executor) Do(fn func(p *storage.Partition) (rows int, err error)) error {
	if ran, err := e.runInline(fn); ran {
		return err
	}
	reply := fnReplies.Get().(chan error)
	t := newTask()
	t.fn, t.fnReply = fn, reply
	return awaitFn(reply, e.enqueuePrio(t))
}

// DoBackground runs fn like Do, but through the regular transaction queue
// instead of the priority lane: the work waits its turn behind already
// queued transactions, so foreground latency sees at most one background
// task of interference. Pre-copy migration streams bucket slices through
// here — bulk copying is exactly the work that must NOT preempt
// transactions. Unlike transaction submission, a full queue blocks instead
// of shedding: migration supplies its own pacing and must not be dropped
// by admission control.
func (e *Executor) DoBackground(fn func(p *storage.Partition) (rows int, err error)) error {
	if ran, err := e.runInline(fn); ran {
		return err
	}
	reply := fnReplies.Get().(chan error)
	t := newTask()
	t.fn, t.fnReply = fn, reply
	return awaitFn(reply, e.enqueueBlocking(t))
}

// runInline runs fn on the caller's goroutine if the partition is idle:
// the caller holds the token and no task is unfinished in either lane, so
// fn overtakes nothing. It reports ran=false, having done nothing, when
// the partition is busy. An idle partition starts its work clock afresh,
// as the run loop does after an idle wait, so fn's rows are charged in
// full.
func (e *Executor) runInline(fn func(p *storage.Partition) (rows int, err error)) (ran bool, err error) {
	// The first load keeps a busy partition's token free for the run loop;
	// the second, under the token, is the one that decides.
	if e.unfinished.Load() != 0 || !e.tok.TryLock() {
		return false, nil
	}
	defer e.tok.Unlock()
	if e.unfinished.Load() != 0 {
		return false, nil
	}
	if e.stopped.Load() {
		return true, ErrStopped
	}
	e.workClock = time.Now()
	return true, e.runFn(fn)
}

// awaitFn returns a queued partition function's outcome — the enqueue
// error when the task never reached a lane, else the error on its reply
// channel — and puts the drained channel back in its pool.
func awaitFn(reply chan error, enqueueErr error) error {
	err := enqueueErr
	if err == nil {
		err = <-reply
	}
	fnReplies.Put(reply)
	return err
}

// Reserve parks the executor (used by the distributed-transaction
// coordinator). It returns a release function once the executor is parked.
// The caller MUST invoke the release function.
func (e *Executor) Reserve() (release func(), err error) {
	park := make(chan struct{}, 1)
	held := make(chan struct{})
	t := newTask()
	t.park, t.held = park, held
	if err := e.enqueuePrio(t); err != nil {
		return nil, err
	}
	if _, ok := <-park; !ok {
		return nil, ErrStopped
	}
	return func() { close(held) }, nil
}

// PartitionUnsafe exposes the underlying partition. It must only be used
// while the executor is parked via Reserve or from within Do; unsynchronized
// use races with the executor goroutine.
func (e *Executor) PartitionUnsafe() *storage.Partition { return e.part }

// enqueue adds a task to the regular queue, shedding it once the queue
// holds QueueCapacity tasks. Each enqueue function takes ownership of t: a
// task that reaches a lane is released by whoever finishes it, one that
// does not is released here.
func (e *Executor) enqueue(t *task) error {
	e.stopMu.RLock()
	defer e.stopMu.RUnlock()
	if e.stopped.Load() {
		t.Release()
		return ErrStopped
	}
	e.unfinished.Add(1)
	select {
	case e.queue <- t:
		return nil
	default:
		e.unfinished.Add(-1)
		e.shed.Add(1)
		t.Release()
		return ErrOverloaded
	}
}

// enqueueBlocking adds a task to the regular queue, waiting for space
// instead of shedding. Holding stopMu's read side across the send is safe:
// the run loop keeps draining the queue until Stop closes it, and Stop can
// only close it after this send completes and releases the lock.
func (e *Executor) enqueueBlocking(t *task) error {
	e.stopMu.RLock()
	defer e.stopMu.RUnlock()
	if e.stopped.Load() {
		t.Release()
		return ErrStopped
	}
	e.unfinished.Add(1)
	e.queue <- t //pstore:ignore lockdiscipline — read lock only fences Stop's close; the run loop drains the queue without taking stopMu, so the send always progresses
	return nil
}

// enqueuePrio adds a task to the priority lane, blocking if the lane is
// momentarily full but failing once the executor stops.
func (e *Executor) enqueuePrio(t *task) error {
	select {
	case <-e.done:
		t.Release()
		return ErrStopped
	default:
	}
	e.unfinished.Add(1)
	select {
	case e.prio <- t:
		return nil
	case <-e.done:
		e.unfinished.Add(-1)
		t.Release()
		return ErrStopped
	}
}
