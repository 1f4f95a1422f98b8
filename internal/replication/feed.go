package replication

import (
	"fmt"
	"sync"
	"time"

	"pstore/internal/durability"
	"pstore/internal/metrics"
	"pstore/internal/storage"
)

// Snapshot is a consistent cut of a partition at one LSN, used to seed a
// replica that cannot be caught up incrementally.
type Snapshot struct {
	Tables  []string
	Buckets []*storage.BucketData
	LSN     uint64
	Epoch   uint64
}

// SnapshotFunc produces a consistent snapshot of the feed's partition at
// its current LSN. The cluster wires it to run inside the partition
// executor's exclusive section, so the cut never interleaves with appends.
type SnapshotFunc func() (*Snapshot, error)

// Feed is the primary side of one partition's replication: it implements
// engine.CommandLog, assigns LSNs, chains records to the partition's
// durability manager (when one exists), retains a bounded tail of encoded
// records for catch-up and fans them out to subscribers.
//
// A transaction's onDurable callback fires only once the record is locally
// durable AND every live subscriber has acked its LSN — synchronous
// k-safety. With zero live subscribers the feed degrades to local
// durability alone (availability over redundancy; the failover monitor
// restores k in the background) — but only until the quorum first arms:
// once RequiredSubscribers live subscribers have been seen, losing them
// self-fences the feed instead (see Available), because a primary that
// silently drops to local-only acks while partitioned from its standbys is
// exactly how split-brain loses acked writes.
//
// Lock order: appendMu > mu > inner's locks. appendMu serializes LSN
// assignment with the inner manager's log, which checks each LSN is its
// next seq; mu guards feed state and is never held across an inner call or
// a caller-visible callback.
type Feed struct {
	part   int
	inner  *durability.Manager // may be nil: in-memory cluster
	opts   Options
	events *metrics.Events
	// onLocal is localDurable bound once, so registering it as every
	// record's group-commit callback allocates nothing.
	onLocal func(uint64, error)

	appendMu sync.Mutex

	mu      sync.Mutex
	lsn     uint64 // last assigned LSN
	epoch   uint64
	fenced  bool
	closed  bool
	durable uint64 // highest locally durable LSN

	required   int  // ack-quorum size; 0 disables self-fencing
	armed      bool // quorum seen at full strength at least once
	quorumLost bool // armed and currently below required (self-fenced)

	buf      [][]byte // encoded frames for LSNs [bufStart, bufStart+len)
	bufStart uint64

	subs   map[*Subscriber]struct{}
	win    ackWindow // sliding window of unacked in-flight transactions
	winErr bool      // a waiter failed locally out of prefix order (rare)
	snapFn SnapshotFunc
}

// waiter is one in-flight transaction awaiting local durability plus the
// cumulative replica ack. Stored by value inside the ack window's ring so
// the steady-state append path allocates nothing per transaction.
type waiter struct {
	lsn   uint64
	fn    func(uint64, error)
	err   error     // local append failure, set on the (rare) error path
	start time.Time // append time, for the cumulative-ack latency histogram
}

type completion struct {
	fn    func(uint64, error)
	lsn   uint64
	err   error
	start time.Time
}

// ackWindow is a FIFO ring of waiters in LSN order. Because acks are
// cumulative and local durability advances as a watermark, completion is a
// prefix pop — O(1) amortized per transaction — instead of the O(n) scan
// per ack the waiter list used to cost, which is what lets thousands of
// transactions ride the pipeline between ack round trips.
type ackWindow struct {
	buf  []waiter
	head int
	n    int
}

func (w *ackWindow) push(wt waiter) {
	if w.n == len(w.buf) {
		nb := make([]waiter, maxInt(16, 2*len(w.buf)))
		for i := 0; i < w.n; i++ {
			nb[i] = w.buf[(w.head+i)%len(w.buf)]
		}
		w.buf, w.head = nb, 0
	}
	w.buf[(w.head+w.n)%len(w.buf)] = wt
	w.n++
}

func (w *ackWindow) front() *waiter { return &w.buf[w.head] }

func (w *ackWindow) at(i int) *waiter { return &w.buf[(w.head+i)%len(w.buf)] }

func (w *ackWindow) popFront() waiter {
	wt := w.buf[w.head]
	w.buf[w.head] = waiter{}
	w.head = (w.head + 1) % len(w.buf)
	w.n--
	return wt
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NewFeed creates a feed for the partition at the given epoch, continuing
// the LSN space after startLSN. inner may be nil (no on-disk durability);
// when set, its sequence counter must equal startLSN — the feed keeps the
// two aligned from then on.
func NewFeed(part int, inner *durability.Manager, epoch, startLSN uint64, opts Options, events *metrics.Events) *Feed {
	if epoch == 0 {
		epoch = 1
	}
	opts = opts.Normalized()
	f := &Feed{
		part:     part,
		inner:    inner,
		opts:     opts,
		events:   events,
		lsn:      startLSN,
		epoch:    epoch,
		bufStart: startLSN + 1,
		subs:     make(map[*Subscriber]struct{}),
		required: opts.RequiredSubscribers,
	}
	f.onLocal = f.localDurable
	return f
}

// Partition returns the feed's partition ID.
func (f *Feed) Partition() int { return f.part }

// LSN returns the last assigned log sequence number.
func (f *Feed) LSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lsn
}

// Epoch returns the feed's epoch.
func (f *Feed) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Horizon returns the replication horizon: the highest LSN acked by every
// live subscriber (the feed head when none are live). Everything at or
// below it survives any single-primary failure.
func (f *Feed) Horizon() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := f.lsn
	for s := range f.subs {
		if s.live && s.acked < h {
			h = s.acked
		}
	}
	return h
}

// Subscribers returns (live, total) subscriber counts.
func (f *Feed) Subscribers() (live, total int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for s := range f.subs {
		if s.live {
			live++
		}
	}
	return live, len(f.subs)
}

// SetSnapshotFunc installs the consistent-cut provider used for full
// resyncs. Must be set before the first subscriber attaches.
func (f *Feed) SetSnapshotFunc(fn SnapshotFunc) {
	f.mu.Lock()
	f.snapFn = fn
	f.mu.Unlock()
}

// Append implements engine.CommandLog: it ships the committed command to
// subscribers and defers onDurable until the record is locally durable and
// replica-acked. The command is encoded before Append returns: args aliases
// a pooled map the engine reuses after the ack.
func (f *Feed) Append(proc, key string, args map[string]string, onDurable func(uint64, error)) {
	if shipped, err := f.log(&durability.Record{Kind: durability.KindTxn, Proc: proc, Key: key, Args: args}, onDurable, false); !shipped {
		f.events.Add(metrics.EventReplFencedWrites, 1)
		if onDurable != nil {
			onDurable(0, err)
		}
	}
}

// LogPut ships a direct row load (cluster.LoadRow). Asynchronous: bulk
// preloads must not block on per-row replica acks; ordering alone keeps
// replicas consistent.
func (f *Feed) LogPut(table, key string, cols map[string]string) error {
	_, err := f.log(&durability.Record{Kind: durability.KindPut, Tab: table, Key: key, Args: cols}, nil, false)
	return err
}

// LogBucketIn ships a migration bucket handoff (receive side), logging it
// synchronously like the durability manager's own bucket-in record.
func (f *Feed) LogBucketIn(data *storage.BucketData) error {
	_, err := f.log(&durability.Record{Kind: durability.KindBucketIn, Bucket: data.Bucket, Data: data}, nil, true)
	return err
}

// LogBucketOut ships a migration bucket handoff (send side).
func (f *Feed) LogBucketOut(bucket int) error {
	_, err := f.log(&durability.Record{Kind: durability.KindBucketOut, Bucket: bucket}, nil, true)
	return err
}

// log stamps rec with the next LSN and the feed's epoch, encodes it once,
// publishes the frame and hands the same payload to the inner manager —
// fsynced before return when sync is set. onDurable, if set, waits in the
// ack window, where a local log failure also fails it. shipped is false
// when the feed refused the record outright.
func (f *Feed) log(rec *durability.Record, onDurable func(uint64, error), sync bool) (shipped bool, err error) {
	f.appendMu.Lock()
	f.mu.Lock()
	if err := f.unusableLocked(); err != nil {
		f.mu.Unlock()
		f.appendMu.Unlock()
		return false, err
	}
	f.lsn++
	rec.LSN, rec.Epoch = f.lsn, f.epoch
	frame, payload := encodeFrame(rec)
	f.publishLocked(frame)
	var onLocal func(uint64, error) // only a waited-on record needs its group commit reported
	if onDurable != nil {
		onLocal = f.onLocal
		var start time.Time
		if f.events != nil {
			start = time.Now() //pstore:ignore seeddiscipline — ack-latency observability, not a decision path
		}
		f.win.push(waiter{lsn: rec.LSN, fn: onDurable, start: start})
		f.events.Observe(metrics.HistReplAckWindow, int64(f.win.n))
	}
	f.mu.Unlock()
	if f.inner != nil {
		// Still under appendMu: the inner manager's next seq is this LSN.
		if err = f.inner.Log(payload, onLocal); err == nil && sync {
			err = f.inner.Flush()
		}
	}
	f.appendMu.Unlock()
	if f.inner == nil || err != nil {
		f.localDurable(rec.LSN, err)
	}
	return true, err
}

func (f *Feed) unusableLocked() error {
	if f.closed {
		return ErrClosed
	}
	if f.fenced {
		return ErrFenced
	}
	return nil
}

// liveCountLocked counts subscribers currently in the ack quorum.
func (f *Feed) liveCountLocked() int {
	n := 0
	for s := range f.subs {
		if s.live {
			n++
		}
	}
	return n
}

// quorumLostLocked reports whether the armed feed is below its required
// quorum, maintaining the lost/regained transition accounting as a side
// effect. Call whenever the live set changes.
func (f *Feed) quorumLostLocked() bool {
	if f.required <= 0 || f.fenced || f.closed {
		return false
	}
	live := f.liveCountLocked()
	if !f.armed {
		if live >= f.required {
			f.armed = true
		}
		return false
	}
	if live >= f.required {
		f.quorumLost = false
		return false
	}
	if !f.quorumLost {
		f.quorumLost = true
		f.events.Add(metrics.EventReplQuorumLost, 1)
	}
	return true
}

// Available reports whether the feed can currently accept and acknowledge
// a write: nil, or ErrClosed/ErrFenced/ErrQuorumLost. The cluster's
// routing layer sheds writes on a non-nil answer BEFORE executing the
// transaction — the self-fencing check must run pre-execution, because a
// write rejected after mutating partition state could double-apply when
// the client retries against the same (still authoritative) primary.
func (f *Feed) Available() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.unusableLocked(); err != nil {
		return err
	}
	if f.quorumLostLocked() {
		return ErrQuorumLost
	}
	if f.win.n >= f.opts.ackWindowCap {
		f.events.Add(metrics.EventReplWindowStalls, 1)
		return ErrWindowFull
	}
	return nil
}

// Unusable reports the feed's terminal state — ErrFenced or ErrClosed, nil
// while the feed can still ship. Unlike Available it never consults or
// advances the quorum latch, so the failover monitor can use it as a pure
// observation when tallying its depose vote.
func (f *Feed) Unusable() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.unusableLocked()
}

// Armed reports whether the feed has ever seen its full required standby
// complement. Before arming, writes acknowledge on local durability alone,
// so the head may run past anything a standby holds; from the moment of
// arming onward every acked LSN is covered by standby acks (and the
// pre-arm prefix by the joining snapshot), which is what makes promoting a
// caught-up standby loss-free. Pure observation: never advances the latch.
func (f *Feed) Armed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

// publishLocked adds the encoded frame to the retained tail and every
// subscriber queue. A subscriber whose queue is full cannot keep up within
// the retained window and is deposed — it will resync.
func (f *Feed) publishLocked(frame []byte) {
	f.buf = append(f.buf, frame)
	if len(f.buf) >= 2*f.opts.maxBuffer {
		// Amortized trim: compacting on every append once the window is
		// full costs an O(maxBuffer) memmove per record (it was ~40% of
		// k=1 CPU). Let the slice grow to 2× and cut back to maxBuffer in
		// one move, so each retained slot is copied at most once.
		drop := len(f.buf) - f.opts.maxBuffer
		n := copy(f.buf, f.buf[drop:])
		tail := f.buf[n:]
		for i := range tail {
			tail[i] = nil // release dropped frames to the GC
		}
		f.buf = f.buf[:n]
		f.bufStart += uint64(drop)
	}
	f.events.Add(metrics.EventReplRecords, 1)
	for s := range f.subs { //pstore:ignore determinism — every subscriber gets the same frame on its own queue; delivery order across subscribers is unobservable
		select {
		case s.q <- frame:
		default:
			f.deposeLocked(s)
		}
	}
}

// localDurable marks lsn locally durable and completes any waiters whose
// replica acks are already in. Runs on the group-commit goroutine (or the
// appender itself when there is no inner log). Local durability advances
// as a watermark — group commit delivers append callbacks in LSN order, so
// the max observed success covers every waiter at or below it — which is
// what makes completion a prefix pop instead of a per-LSN scan.
func (f *Feed) localDurable(lsn uint64, err error) {
	f.mu.Lock()
	if err == nil {
		if lsn > f.durable {
			f.durable = lsn
		}
	} else {
		// Rare path: a failed local append fails exactly its own waiter;
		// the durable watermark does not move past it.
		for i := 0; i < f.win.n; i++ {
			w := f.win.at(i)
			if w.lsn == lsn {
				w.err = err
				f.winErr = true
				break
			}
			if w.lsn > lsn {
				break
			}
		}
	}
	comps := f.completableLocked()
	f.mu.Unlock()
	runCompletions(comps)
}

// completableLocked detaches every waiter that can complete now: locally
// failed ones complete immediately with their error; locally durable ones
// complete once the cumulative subscriber ack covers their LSN (trivially
// true with no live subscribers). Because acks are cumulative and local
// durability is a watermark, completable waiters always form a prefix of
// the window — the loop pops until the first waiter still in flight.
func (f *Feed) completableLocked() []completion {
	if f.win.n == 0 {
		return nil
	}
	cover := f.ackCoverLocked()
	var out []completion
	for f.win.n > 0 {
		w := f.win.front()
		if w.err != nil {
			out = append(out, completion{w.fn, w.lsn, w.err, w.start})
		} else if w.lsn <= f.durable && w.lsn <= cover {
			out = append(out, completion{w.fn, w.lsn, nil, w.start})
		} else {
			break
		}
		f.win.popFront()
	}
	if f.winErr {
		// Rare path: a locally failed waiter sits behind one still waiting
		// for acks. It must not wait for coverage that may never come, so
		// sweep it out of the middle of the window.
		f.winErr = false
		kept := 0
		for i := 0; i < f.win.n; i++ {
			w := *f.win.at(i)
			if w.err != nil {
				out = append(out, completion{w.fn, w.lsn, w.err, w.start})
				continue
			}
			*f.win.at(kept) = w
			kept++
		}
		for i := kept; i < f.win.n; i++ {
			*f.win.at(i) = waiter{}
		}
		f.win.n = kept
	}
	if len(out) > 0 && f.events != nil {
		now := time.Now() //pstore:ignore seeddiscipline — ack-latency observability, not a decision path
		for i := range out {
			if out[i].err == nil {
				f.events.Observe(metrics.HistReplAckLatencyUS, now.Sub(out[i].start).Microseconds())
			}
		}
	}
	return out
}

// ackCoverLocked returns the highest LSN the subscriber quorum covers: the
// minimum live subscriber's cumulative ack, MaxUint64 with no live
// subscribers (local durability alone completes), and 0 when an armed feed
// is below its required quorum. In the quorum-lost case waiters stall
// until a subscriber re-acks past their LSN (quorum healed — the record is
// then replicated) or the feed is fenced by a failover (the waiter fails,
// and the state it mutated is discarded with the deposed primary). Either
// way no write is ever acked in a state that a promotion could lose.
func (f *Feed) ackCoverLocked() uint64 {
	if f.quorumLostLocked() {
		return 0
	}
	cover := ^uint64(0)
	for s := range f.subs {
		if s.live && s.acked < cover {
			cover = s.acked
		}
	}
	return cover
}

func runCompletions(comps []completion) {
	for _, c := range comps {
		c.fn(c.lsn, c.err)
	}
}

// Fence rejects all future appends and fails every in-flight waiter with
// ErrFenced: the partition's primaryship has moved to a higher epoch, so
// nothing this feed holds may ever be acknowledged. Subscribers are deposed
// — they must resubscribe to the new primary's feed.
func (f *Feed) Fence() {
	f.mu.Lock()
	f.fenced = true
	comps := f.drainWindowLocked(ErrFenced)
	for s := range f.subs {
		f.deposeLocked(s)
	}
	f.mu.Unlock()
	runCompletions(comps)
}

// drainWindowLocked fails every in-flight waiter with err and empties the
// window (feed fenced or closed — nothing pending may ever complete).
func (f *Feed) drainWindowLocked(err error) []completion {
	var comps []completion
	for f.win.n > 0 {
		w := f.win.popFront()
		comps = append(comps, completion{w.fn, 0, err, w.start})
	}
	f.winErr = false
	return comps
}

// Close shuts the feed down, failing in-flight waiters with ErrClosed and
// deposing subscribers. Idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	comps := f.drainWindowLocked(ErrClosed)
	for s := range f.subs {
		f.deposeLocked(s)
	}
	f.mu.Unlock()
	runCompletions(comps)
}

// Subscriber is one attached replica stream. The hub reads frames from
// Frames and forwards acks via Ack; Gone closes when the feed deposed the
// subscriber (too slow, fenced, or feed closed).
type Subscriber struct {
	f        *Feed
	q        chan []byte
	gone     chan struct{}
	goneOnce sync.Once

	// Guarded by f.mu.
	acked   uint64
	live    bool
	joinLSN uint64
}

// Frames returns the subscriber's record stream.
func (s *Subscriber) Frames() <-chan []byte { return s.q }

// Gone closes when the subscriber has been cut from the feed.
func (s *Subscriber) Gone() <-chan struct{} { return s.gone }

// Ack records that the replica has applied everything through lsn. The
// first ack at or past the subscriber's join point adds it to the ack
// quorum — joins are pause-less: a catching-up replica never gates writes.
func (s *Subscriber) Ack(lsn uint64) {
	f := s.f
	f.mu.Lock()
	if lsn > s.acked {
		s.acked = lsn
	}
	if !s.live {
		if _, attached := f.subs[s]; attached && s.acked >= s.joinLSN {
			s.live = true
		}
	}
	comps := f.completableLocked()
	f.mu.Unlock()
	runCompletions(comps)
}

// Acked returns the subscriber's ack watermark.
func (s *Subscriber) Acked() uint64 {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	return s.acked
}

// Close detaches the subscriber from the feed (connection closed).
func (s *Subscriber) Close() {
	f := s.f
	f.mu.Lock()
	if _, ok := f.subs[s]; ok {
		f.deposeLocked(s)
	}
	comps := f.completableLocked()
	f.mu.Unlock()
	runCompletions(comps)
}

// deposeLocked cuts the subscriber from the feed and its ack quorum.
func (f *Feed) deposeLocked(s *Subscriber) {
	delete(f.subs, s)
	s.live = false
	s.goneOnce.Do(func() { close(s.gone) })
	f.events.Add(metrics.EventReplDeposed, 1)
}

// Attachment is the result of subscribing to a feed: the live Subscriber
// plus whatever the replica needs first — a full Snapshot (resync) or a
// Catchup batch of encoded frames contiguous with the live queue.
type Attachment struct {
	Sub      *Subscriber
	Epoch    uint64
	StartLSN uint64 // the replica resumes applying after this LSN
	Snapshot *Snapshot
	Catchup  [][]byte
}

// Attach subscribes a replica that has applied through fromLSN at
// fromEpoch. The feed picks the cheapest correct seeding: the in-memory
// tail when it covers fromLSN+1, a disk read through the durability tail
// reader when not, and a full snapshot when the replica's history is
// unusable (older epoch, ahead of the feed, or the log has been truncated
// past its position).
func (f *Feed) Attach(fromLSN, fromEpoch uint64) (*Attachment, error) {
	f.mu.Lock()
	if f.closed || f.fenced {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if fromEpoch > f.epoch {
		f.mu.Unlock()
		return nil, errStaleEpoch
	}
	// A replica from an older epoch may have applied unacked records the
	// new primary never had; its prefix is not trustworthy. Same if it
	// claims to be ahead of the feed. Both resync from a snapshot.
	needSnapshot := fromEpoch != f.epoch || fromLSN > f.lsn
	if !needSnapshot && fromLSN+1 >= f.bufStart {
		att := f.attachLocked(fromLSN)
		f.mu.Unlock()
		return att, nil
	}
	snapFn := f.snapFn
	bufStart := f.bufStart
	f.mu.Unlock()

	if !needSnapshot && f.inner != nil {
		// One disk pass narrows the gap; if the tail reader ends inside the
		// retained window the attach below is incremental.
		frames, last, err := f.diskCatchup(fromLSN)
		if err == nil && last >= bufStart-1 {
			f.mu.Lock()
			if f.closed || f.fenced {
				f.mu.Unlock()
				return nil, ErrClosed
			}
			if last+1 >= f.bufStart && last <= f.lsn {
				att := f.attachLocked(last)
				att.Catchup = append(frames, att.Catchup...)
				att.StartLSN = fromLSN
				f.mu.Unlock()
				return att, nil
			}
			f.mu.Unlock()
		}
	}

	// Full resync.
	if snapFn == nil {
		return nil, fmt.Errorf("replication: partition %d: no snapshot provider for resync", f.part)
	}
	f.events.Add(metrics.EventReplResyncs, 1)
	snap, err := snapFn()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.closed || f.fenced {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if snap.LSN+1 < f.bufStart || snap.LSN > f.lsn {
		f.mu.Unlock()
		return nil, fmt.Errorf("replication: partition %d: snapshot cut %d outside retained window [%d,%d]",
			f.part, snap.LSN, f.bufStart, f.lsn)
	}
	att := f.attachLocked(snap.LSN)
	att.Snapshot = snap
	f.mu.Unlock()
	return att, nil
}

// attachLocked registers a subscriber that has (or will have, via the
// returned catch-up/snapshot) applied through fromLSN, and hands back the
// retained frames bridging fromLSN to the live queue.
func (f *Feed) attachLocked(fromLSN uint64) *Attachment {
	s := &Subscriber{
		f:       f,
		q:       make(chan []byte, f.opts.maxBuffer),
		gone:    make(chan struct{}),
		acked:   fromLSN,
		joinLSN: f.lsn,
	}
	if s.acked >= s.joinLSN {
		s.live = true
	}
	f.subs[s] = struct{}{}
	var catchup [][]byte
	if fromLSN < f.lsn {
		catchup = append(catchup, f.buf[fromLSN+1-f.bufStart:]...)
	}
	return &Attachment{Sub: s, Epoch: f.epoch, StartLSN: fromLSN, Catchup: catchup}
}

// diskCatchup re-ships durable records after fromLSN. Committed history is
// re-stamped with the feed's current epoch: a replica that has seen this
// epoch fences anything older.
func (f *Feed) diskCatchup(fromLSN uint64) (frames [][]byte, last uint64, err error) {
	last = fromLSN
	epoch := f.Epoch()
	err = f.inner.ReadFrom(fromLSN, func(rec *durability.Record) error {
		if rec.LSN != last+1 {
			return fmt.Errorf("replication: disk catch-up gap: have %d, next record %d", last, rec.LSN)
		}
		rec.Epoch = epoch
		frame, _ := encodeFrame(rec)
		frames = append(frames, frame)
		last = rec.LSN
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return frames, last, nil
}
