package replication

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/metrics"
	"pstore/internal/storage"
)

// Replica is a standby copy of one partition. Records arrive in LSN order
// from a Tail and are applied deterministically; session-consistent reads
// wait until the applied horizon covers the caller's last written LSN.
// All state is guarded by mu — the replica's serial "executor".
//
// A durable replica (OpenReplica) additionally writes every applied record
// to its own command log, so a promoted standby that dies before taking a
// snapshot recovers to its replicated horizon instead of losing acked
// writes, and a respawned standby replays its local log before any wire
// catch-up. Its acks advance only to the locally durable horizon — what
// the primary counts as replicated is exactly what a double fault cannot
// lose.
type Replica struct {
	part     int
	nBuckets int
	node     string
	reg      *engine.Registry
	opts     Options
	events   *metrics.Events

	mu      sync.Mutex
	p       *storage.Partition
	applied uint64
	epoch   uint64
	serving bool
	seeded  bool
	notify  chan struct{} // closed and replaced on the first apply after a waiter took it
	watched bool          // a waiter holds notify

	mgr            *durability.Manager // optional: the replica's own command log
	dir            string
	durable        uint64 // highest LSN known fsynced in the local log
	persistedEpoch uint64 // epoch recorded in the dir's sidecar file
}

// NewReplica creates an empty standby for the partition, hosted on the
// named node. It owns no buckets until a snapshot or bucket-in records
// arrive.
func NewReplica(part, nBuckets int, node string, reg *engine.Registry, opts Options, events *metrics.Events) *Replica {
	return &Replica{
		part:     part,
		nBuckets: nBuckets,
		node:     node,
		reg:      reg,
		opts:     opts.Normalized(),
		events:   events,
		p:        storage.NewPartition(part, nBuckets, nil),
		serving:  true,
		notify:   make(chan struct{}),
	}
}

// OpenReplica creates a durable standby backed by its own command log
// under dir. If the directory holds prior state (the standby is respawning
// after a kill), it is recovered first — snapshot plus local log replay —
// so the replica resubscribes from its durable horizon and the wire only
// carries what the local log does not already hold.
func OpenReplica(part, nBuckets int, node string, reg *engine.Registry, dir string, dopts durability.Options, opts Options, events *metrics.Events) (*Replica, error) {
	mgr, err := durability.Open(dir, part, dopts)
	if err != nil {
		return nil, err
	}
	p := storage.NewPartition(part, nBuckets, nil)
	stats, err := mgr.Recover(p, reg)
	if err != nil {
		mgr.Crash()
		return nil, err
	}
	applied := mgr.Seq()
	epoch, err := readEpochFile(dir)
	if err != nil {
		mgr.Crash()
		return nil, err
	}
	return &Replica{
		part:           part,
		nBuckets:       nBuckets,
		node:           node,
		reg:            reg,
		opts:           opts.Normalized(),
		events:         events,
		p:              p,
		applied:        applied,
		epoch:          epoch,
		serving:        true,
		seeded:         applied > 0 || stats.SnapshotLoaded,
		notify:         make(chan struct{}),
		mgr:            mgr,
		dir:            dir,
		durable:        applied,
		persistedEpoch: epoch,
	}, nil
}

// epochFile is the sidecar recording the highest epoch the replica has
// seen — the durability log's records carry no epochs, but resubscribing
// after a local-log recovery needs the exact epoch or the feed forces a
// full snapshot resync.
const epochFile = "epoch"

func readEpochFile(dir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, epochFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
}

func writeEpochFile(dir string, epoch uint64) error {
	return durability.ReplaceFile(filepath.Join(dir, epochFile), []byte(strconv.FormatUint(epoch, 10)))
}

// Partition returns the replica's partition ID.
func (r *Replica) Partition() int { return r.part }

// Node returns the node hosting the replica.
func (r *Replica) Node() string { return r.node }

// Applied returns the replica's applied LSN horizon.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// AckLSN returns the horizon the replica may acknowledge to its primary:
// the locally durable LSN for a durable replica (an ack is a promise the
// record survives this replica's crash), the applied LSN otherwise.
func (r *Replica) AckLSN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mgr == nil {
		return r.applied
	}
	return r.durable
}

// Durable reports whether the replica keeps its own command log.
func (r *Replica) Durable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mgr != nil
}

// Dir returns the durable replica's log directory ("" when in-memory).
func (r *Replica) Dir() string { return r.dir }

// Epoch returns the highest primary epoch the replica has seen.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Serving reports whether the replica still serves its standby role.
func (r *Replica) Serving() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.serving
}

// Seeded reports whether the replica has ever synced state from its
// primary — via snapshot install or a first applied record. An unseeded
// replica holds nothing and is not a promotion candidate.
func (r *Replica) Seeded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seeded
}

// InstallSnapshot replaces the replica's entire state with a consistent
// cut — the full-resync seeding path.
func (r *Replica) InstallSnapshot(snap *Snapshot) error {
	// Drain pending durable callbacks before taking r.mu: Snapshot()
	// below rotates the log, and rotation runs any detached callbacks on
	// this goroutine — advanceDurable re-taking r.mu would self-deadlock.
	// The tail's seeding goroutine is the only appender, so nothing can
	// queue new callbacks between this flush and the install.
	r.mu.Lock()
	mgr := r.mgr
	r.mu.Unlock()
	if mgr != nil {
		if err := mgr.Flush(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.serving {
		return ErrReplicaGone
	}
	p := storage.NewPartition(r.part, r.nBuckets, nil)
	for _, t := range snap.Tables {
		p.CreateTable(t)
	}
	for _, b := range snap.Buckets {
		if err := p.ApplyBucket(b); err != nil {
			return err
		}
	}
	r.p = p
	r.applied = snap.LSN
	if snap.Epoch > r.epoch {
		r.epoch = snap.Epoch
	}
	r.seeded = true
	r.wakeLocked()
	if r.mgr != nil {
		// Re-baseline the local log at the snapshot cut: everything before
		// it is superseded (and may belong to a stale epoch's history).
		// Runs on the tail's seeding path, never the apply hot path.
		r.mgr.SetBaseSeq(snap.LSN)
		if err := r.mgr.Snapshot(r.p); err != nil { //pstore:ignore lockorder — the Flush above drained every pending durable callback and the seeding tail is the only appender, so this rotation finds no callbacks to run under r.mu
			return err
		}
		r.durable = snap.LSN
		if r.epoch > r.persistedEpoch {
			if err := writeEpochFile(r.dir, r.epoch); err != nil {
				return err
			}
			r.persistedEpoch = r.epoch
		}
	}
	return nil
}

// Apply replays one shipped record. It is the replica's serial apply loop —
// the standby twin of the primary's executor, so pstore-vet's never-block
// analysis covers it: nothing here may sleep, touch the network, or block
// on a channel.
//
// Records are idempotent at the LSN level (duplicates skip) and fenced at
// the epoch level (records from a deposed primary are rejected); a gap
// forces the caller to resync.
//
//pstore:executor
func (r *Replica) Apply(rec *durability.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.serving {
		return ErrReplicaGone
	}
	if rec.Epoch < r.epoch {
		return ErrFenced
	}
	if rec.Epoch > r.epoch {
		r.epoch = rec.Epoch
	}
	if rec.LSN <= r.applied {
		return nil // duplicate from a catch-up overlap
	}
	if rec.LSN != r.applied+1 {
		return fmt.Errorf("replication: partition %d replica: gap at LSN %d (applied %d)", r.part, rec.LSN, r.applied)
	}
	if err := r.applyLocked(rec); err != nil {
		return err
	}
	r.applied = rec.LSN
	r.seeded = true
	r.wakeLocked()
	return nil
}

func (r *Replica) applyLocked(rec *durability.Record) error {
	switch rec.Kind {
	case durability.KindTxn:
		if !r.p.OwnsKey(rec.Key) {
			return nil // logged just before the bucket left this partition
		}
		return engine.ReplayTxn(r.reg, r.p, rec.Proc, rec.Key, rec.Args)
	case durability.KindPut:
		if !r.p.OwnsKey(rec.Key) {
			return nil
		}
		r.p.CreateTable(rec.Tab)
		return r.p.Put(rec.Tab, rec.Key, rec.Args)
	case durability.KindBucketOut:
		if !r.p.Owns(rec.Bucket) {
			return nil
		}
		return r.p.DropBucket(rec.Bucket)
	case durability.KindBucketIn:
		// Replace-then-apply keeps the record idempotent against a stale
		// copy left by an earlier seeding race.
		if r.p.Owns(rec.Bucket) {
			if err := r.p.DropBucket(rec.Bucket); err != nil {
				return err
			}
		}
		return r.p.ApplyBucket(rec.Data)
	default:
		return fmt.Errorf("replication: unknown record kind %d", rec.Kind)
	}
}

// wakeLocked releases WaitApplied callers. With none parked since the last
// wake the channel is left alone, so the apply loop allocates nothing.
func (r *Replica) wakeLocked() {
	if r.watched {
		close(r.notify)
		r.notify = make(chan struct{})
		r.watched = false
	}
}

// LogRecord appends one freshly applied record to the replica's own
// command log. payload is the record's encoding as received, so a standby's
// log holds its primary's bytes for every LSN both hold. The tail calls it
// after a successful, advancing Apply (never for duplicate-skips, already
// logged) — keeping the blocking bucket-record fsyncs off the Apply path,
// which pstore-vet holds to the executor never-block rule. Bucket records
// fsync synchronously as on a primary; the rest become durable, and
// ackable, through the tail's drain-boundary SyncAsync.
func (r *Replica) LogRecord(rec *durability.Record, payload []byte) error {
	r.mu.Lock()
	mgr, dir, persisted := r.mgr, r.dir, r.persistedEpoch
	r.mu.Unlock()
	if mgr == nil {
		return nil
	}
	if err := mgr.Log(payload, nil); err != nil {
		return err
	}
	if rec.Kind == durability.KindBucketIn || rec.Kind == durability.KindBucketOut {
		if err := mgr.Flush(); err != nil {
			return err
		}
		r.advanceDurable(rec.LSN)
	}
	if rec.Epoch > persisted {
		if err := writeEpochFile(dir, rec.Epoch); err != nil {
			return err
		}
		r.mu.Lock()
		r.persistedEpoch = max(r.persistedEpoch, rec.Epoch)
		r.mu.Unlock()
	}
	return nil
}

func (r *Replica) advanceDurable(lsn uint64) {
	r.mu.Lock()
	if lsn > r.durable {
		r.durable = lsn
	}
	r.mu.Unlock()
}

// Sync flushes the replica's log and advances the durable (ackable)
// horizon to the applied LSN as of the flush. The tail calls it at
// queue-drain boundaries before acking, so acks cost one fsync per batch
// rather than waiting out the group-commit timer. No-op for in-memory
// replicas.
func (r *Replica) Sync() error {
	r.mu.Lock()
	mgr, applied := r.mgr, r.applied
	r.mu.Unlock()
	if mgr == nil {
		return nil
	}
	// Everything applied was also appended to the log (LogRecord runs on
	// the same goroutine as Apply), so the flush covers `applied`.
	if err := mgr.Flush(); err != nil {
		return err
	}
	r.advanceDurable(applied)
	return nil
}

// SyncAsync requests a log flush covering everything applied so far and
// invokes cb when it lands, advancing the durable (ackable) horizon first.
// The tail uses it to pipeline standby group commits: batch N+1 applies
// while batch N's fsync is in flight, and the ack rides the flush callback
// (which runs on the WAL's group-commit goroutine). For an in-memory
// replica cb runs synchronously on the caller.
func (r *Replica) SyncAsync(cb func(error)) {
	r.mu.Lock()
	mgr := r.mgr
	r.mu.Unlock()
	if mgr == nil {
		cb(nil)
		return
	}
	// Everything applied was also appended to the log (LogRecord runs on
	// the same goroutine as Apply), so the flush covers the applied LSN —
	// the seq it reports.
	mgr.FlushAsync(func(seq uint64, err error) {
		if err == nil {
			r.advanceDurable(seq)
		}
		cb(err)
	})
}

// WaitApplied blocks until the replica's applied LSN reaches min, the
// timeout passes (ErrStaleRead) or the replica stops serving.
func (r *Replica) WaitApplied(min uint64, timeout time.Duration) error {
	r.mu.Lock()
	if r.applied >= min && r.serving {
		r.mu.Unlock()
		return nil
	}
	r.events.Add(metrics.EventReplStaleWaits, 1)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if !r.serving {
			r.mu.Unlock()
			return ErrReplicaGone
		}
		if r.applied >= min {
			r.mu.Unlock()
			return nil
		}
		ch := r.notify
		r.watched = true
		r.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return ErrStaleRead
		}
		r.mu.Lock()
	}
}

// TrySessionRead is SessionRead's non-blocking attempt: if the replica is
// serving and its horizon already covers the session's minLSN, the read
// runs under one acquisition of r.mu and served is true. Otherwise nothing
// ran and nothing was counted — the read would have to wait, which a caller
// that must not block (a connection's read loop) leaves to SessionRead.
func (r *Replica) TrySessionRead(proc, key string, args map[string]string, minLSN uint64) (out map[string]string, served bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.serving || r.applied < minLSN {
		return nil, false, nil
	}
	out, err = r.readLocked(proc, key, args)
	return out, true, err
}

// SessionRead runs a read-only stored procedure against the replica,
// waiting first — up to StaleReadTimeout — for its horizon to cover the
// session's minLSN when it does not already.
func (r *Replica) SessionRead(proc, key string, args map[string]string, minLSN uint64) (map[string]string, error) {
	if out, served, err := r.TrySessionRead(proc, key, args, minLSN); served {
		return out, err
	}
	if err := r.WaitApplied(minLSN, r.opts.StaleReadTimeout); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.serving {
		return nil, ErrReplicaGone
	}
	return r.readLocked(proc, key, args)
}

// readLocked executes the read with the partition in read-only mode, so a
// mistakenly routed writing procedure fails instead of silently diverging
// the replica. Caller holds r.mu.
func (r *Replica) readLocked(proc, key string, args map[string]string) (map[string]string, error) {
	r.p.SetReadOnly(true)
	out, err := engine.ReadOnlyCall(r.reg, r.p, proc, key, args)
	r.p.SetReadOnly(false)
	r.events.Add(metrics.EventReplicaReads, 1)
	return out, err
}

// Promote takes the replica out of standby duty and hands its partition to
// the caller, which builds a primary from it: the fast failover path — no
// disk replay, the in-memory state is already at the applied horizon.
// Returns the partition, the applied LSN, the epoch the replica had seen,
// and — for a durable replica — its command-log manager, whose ownership
// transfers to the caller: the promoted primary continues the same log in
// the same directory, which is what makes an immediate second fault
// recoverable. The handed-off log always ends at the applied LSN, so the
// promoted feed's first write is its next seq. Stop the replica's tail
// first: a record applied but not yet logged is then only a failed log
// write, never one in flight.
func (r *Replica) Promote() (*storage.Partition, uint64, uint64, *durability.Manager) {
	r.mu.Lock()
	r.serving = false
	r.wakeLocked()
	p := r.p
	r.p = storage.NewPartition(r.part, r.nBuckets, nil)
	mgr, applied, epoch := r.mgr, r.applied, r.epoch
	r.mgr = nil
	r.mu.Unlock()
	if mgr != nil && mgr.Seq() != applied {
		// The log missed a record the replica applied: re-baseline it at
		// the applied cut. Outside r.mu — the snapshot's rotation runs
		// durable callbacks, and those take it.
		mgr.SetBaseSeq(applied)
		if err := mgr.Snapshot(p); err != nil {
			mgr.Crash()
			mgr = nil
		}
	}
	return p, applied, epoch, mgr
}

// Kill stops the replica serving (its host node died). Waiters unblock
// with ErrReplicaGone. A durable replica's log is crash-abandoned —
// fsynced state stays on disk for a future respawn to recover.
func (r *Replica) Kill() {
	r.mu.Lock()
	r.serving = false
	mgr := r.mgr
	r.mgr = nil
	r.wakeLocked()
	r.mu.Unlock()
	// Crash waits for the WAL committer to drain, and the committer's
	// durable callbacks take r.mu (advanceDurable) — the wait must happen
	// outside the lock or the two deadlock.
	if mgr != nil {
		mgr.Crash()
	}
}

// Inspect runs fn with exclusive access to the replica's partition —
// verification hooks (content checksums) only; fn must not mutate.
func (r *Replica) Inspect(fn func(p *storage.Partition)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.p)
}
