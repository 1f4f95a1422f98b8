package durability

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/engine"
	"pstore/internal/storage"
)

// Options tunes a partition's durability manager.
type Options struct {
	// SyncEvery forces an fsync per append (per-transaction durability,
	// the slow baseline). Default false: group commit.
	SyncEvery bool
	// GroupCommitInterval is the group-commit fsync cadence. Default 2ms.
	GroupCommitInterval time.Duration
	// SnapshotInterval is how often the owner (the cluster) should snapshot
	// the partition and truncate the log. Zero disables periodic snapshots;
	// the log then only truncates at explicit snapshots (shutdown,
	// migration). The manager does not run the timer itself — snapshots
	// need exclusive partition access, which only the executor's owner can
	// arrange.
	SnapshotInterval time.Duration

	// segmentBytes starts at defaultSegmentBytes; in-package tests shrink
	// it to force segment rotation.
	segmentBytes int64
}

// ReplayStats summarizes a recovery.
type ReplayStats struct {
	SnapshotLoaded bool
	Txns           int // command records re-executed
	BucketsIn      int // migration handoffs re-applied
	BucketsOut     int
	Skipped        int // records dropped (e.g. replay against an unowned bucket)
	// FromHandoff marks buckets whose ownership most recently arrived via a
	// bucket-in record (not the snapshot). The cluster uses it to pick the
	// winner when a crash mid-handoff leaves two partitions claiming one
	// bucket: the handoff receiver's copy carries the post-handoff writes.
	FromHandoff map[int]bool
}

// Manager is one partition's durability state: its directory of WAL
// segments and snapshots. Appends must come from the partition's executor
// goroutine (the engine guarantees this); Snapshot and Recover need
// exclusive partition access.
type Manager struct {
	dir  string
	part int
	opts Options
	log  *wal

	appended atomic.Int64
	// seq is the last logged sequence number (the replication LSN). mu
	// makes LSN assignment and the log write one step, so LSNs reach the
	// log in order even when a migration's handoff races the executor.
	seq     atomic.Uint64
	mu      sync.Mutex
	scratch []byte // encode buffer for records the manager encodes itself; guarded by mu
}

// maxScratch bounds the encode buffer a manager keeps between appends: a
// bucket-in record may be large, and must not pin its size forever.
const maxScratch = 64 << 10

// Open creates or reopens the durability directory for a partition. Call
// Recover before starting the partition's executor when reopening existing
// state.
func Open(dir string, partition int, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := openWAL(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Manager{dir: dir, part: partition, opts: opts, log: l}, nil
}

// Dir returns the manager's directory.
func (m *Manager) Dir() string { return m.dir }

// Appended returns the number of records appended since Open.
func (m *Manager) Appended() int64 { return m.appended.Load() }

// Seq returns the last logged sequence number.
func (m *Manager) Seq() uint64 { return m.seq.Load() }

// SetBaseSeq aligns the manager's sequence counter so the next append gets
// n+1 — used after recovery and when a promoted replica opens a fresh log
// that must continue its primary's LSN space.
func (m *Manager) SetBaseSeq(n uint64) { m.seq.Store(n) }

// Append implements engine.CommandLog for a partition without replication:
// the invocation is encoded once, at epoch 0, straight into the log, and
// onDurable runs after the record is fsynced (group commit).
func (m *Manager) Append(proc, key string, args map[string]string, onDurable func(uint64, error)) {
	lsn, err := m.logRecord(&Record{Kind: KindTxn, Proc: proc, Key: key, Args: args}, onDurable)
	if err != nil && onDurable != nil {
		onDurable(lsn, err)
	}
}

var _ engine.CommandLog = (*Manager)(nil)

// LogBucketOut durably records that the partition handed the bucket to a
// peer. Synchronous: the handoff is on disk when it returns.
func (m *Manager) LogBucketOut(bucket int) error {
	if _, err := m.logRecord(&Record{Kind: KindBucketOut, Bucket: bucket}, nil); err != nil {
		return err
	}
	return m.log.sync()
}

// LogBucketIn durably records a bucket received from a peer, contents
// inline — the receiver's log stays self-contained: replaying it alone
// reproduces the bucket without consulting the sender's history.
// Synchronous: the caller may apply the bucket once this returns.
func (m *Manager) LogBucketIn(data *storage.BucketData) error {
	if _, err := m.logRecord(&Record{Kind: KindBucketIn, Bucket: data.Bucket, Data: data}, nil); err != nil {
		return err
	}
	return m.log.sync()
}

// logRecord stamps rec with the next LSN, encodes it and logs it.
func (m *Manager) logRecord(rec *Record, onDurable func(uint64, error)) (uint64, error) {
	m.mu.Lock()
	rec.LSN = m.seq.Load() + 1
	m.scratch = AppendRecord(m.scratch[:0], rec)
	err := m.writeLocked(m.scratch, onDurable)
	if cap(m.scratch) > maxScratch {
		m.scratch = nil
	}
	m.mu.Unlock()
	return rec.LSN, m.syncEvery(err, onDurable)
}

// Log appends a payload exactly as AppendRecord encoded it: a replication
// feed logs the payload it ships, a standby the payload it received, so a
// write is encoded once and every later copy is a copy of its bytes. The
// payload's LSN must be the next seq. onDurable, if set, runs after the
// fsync covering the record; on an error return it never runs.
func (m *Manager) Log(payload []byte, onDurable func(uint64, error)) error {
	m.mu.Lock()
	err := m.writeLocked(payload, onDurable)
	m.mu.Unlock()
	return m.syncEvery(err, onDurable)
}

// writeLocked logs one payload at its LSN, the next seq. A payload whose
// frame was written takes its LSN even when the write reports an error, so
// the seq never falls behind what the log holds. Caller holds m.mu.
func (m *Manager) writeLocked(payload []byte, onDurable func(uint64, error)) error {
	lsn, err := payloadLSN(payload)
	if err != nil {
		return err
	}
	if next := m.seq.Load() + 1; lsn != next {
		return fmt.Errorf("durability: partition %d: record LSN %d, want next seq %d", m.part, lsn, next)
	}
	written, err := m.log.append(payload, durableCb{seq: lsn, fn: onDurable})
	if written {
		m.seq.Store(lsn)
		m.appended.Add(1)
	}
	return err
}

// syncEvery completes a successful write in per-append sync mode (outside
// m.mu: the sync runs durable callbacks). The sync's outcome reaches the
// record's own callback, so it is returned only to a caller without one.
func (m *Manager) syncEvery(err error, onDurable func(uint64, error)) error {
	if err != nil || !m.opts.SyncEvery {
		return err
	}
	if serr := m.log.sync(); onDurable == nil {
		return serr
	}
	return nil
}

// Snapshot persists the partition's full contents, rotates the log and
// truncates everything the snapshot covers. The caller must hold exclusive
// access to the partition (run it inside the executor's Do, or before the
// executor starts).
func (m *Manager) Snapshot(part *storage.Partition) error {
	if part.ID() != m.part {
		return fmt.Errorf("durability: manager for partition %d asked to snapshot partition %d", m.part, part.ID())
	}
	seg, err := m.log.rotate()
	if err != nil {
		return err
	}
	if err := writeSnapshot(m.dir, part, seg, m.seq.Load()); err != nil {
		return err
	}
	if err := m.log.truncateBefore(seg); err != nil {
		return err
	}
	return pruneSnapshots(m.dir, seg)
}

// Recover rebuilds the partition from the latest snapshot plus the log
// tail, replaying command records through the registry. The partition must
// be freshly created (owning no buckets) and its executor must not be
// running yet.
func (m *Manager) Recover(part *storage.Partition, reg *engine.Registry) (ReplayStats, error) {
	stats := ReplayStats{FromHandoff: make(map[int]bool)}
	if part.ID() != m.part {
		return stats, fmt.Errorf("durability: manager for partition %d asked to recover partition %d", m.part, part.ID())
	}
	fromSeg, snapSeq, found, err := loadSnapshot(m.dir, part)
	if err != nil {
		return stats, err
	}
	stats.SnapshotLoaded = found
	seq := snapSeq
	err = replaySegments(m.dir, fromSeg, func(rec *Record) error {
		seq = rec.LSN
		switch rec.Kind {
		case KindTxn:
			if err := engine.ReplayTxn(reg, part, rec.Proc, rec.Key, rec.Args); err != nil {
				if isNotOwnedErr(err) {
					// A command for a bucket the partition no longer owns:
					// its effects live (and were replayed) at the bucket's
					// new home. Can only happen for records logged just
					// before a handoff of the same bucket.
					stats.Skipped++
					return nil
				}
				return err
			}
			stats.Txns++
		case KindBucketIn:
			// Idempotent: drop any stale copy before applying the logged
			// authoritative contents.
			if part.Owns(rec.Bucket) {
				if err := part.DropBucket(rec.Bucket); err != nil {
					return err
				}
			}
			if err := part.ApplyBucket(rec.Data); err != nil {
				return err
			}
			stats.FromHandoff[rec.Bucket] = true
			stats.BucketsIn++
		case KindBucketOut:
			if part.Owns(rec.Bucket) {
				if err := part.DropBucket(rec.Bucket); err != nil {
					return err
				}
				delete(stats.FromHandoff, rec.Bucket)
				stats.BucketsOut++
			} else {
				stats.Skipped++
			}
		case KindPut:
			if !part.OwnsKey(rec.Key) {
				stats.Skipped++
				return nil
			}
			part.CreateTable(rec.Tab)
			if err := part.Put(rec.Tab, rec.Key, rec.Args); err != nil {
				return err
			}
			stats.Txns++
		default:
			return fmt.Errorf("durability: unknown record kind %d", rec.Kind)
		}
		return nil
	})
	m.seq.Store(seq)
	return stats, err
}

// ReadFrom streams every durable record with LSN > afterSeq, in order, to
// fn (the Record is reused once fn returns) — the replication catch-up
// path for a replica whose subscription point fell off the feed's
// in-memory buffer. It tolerates running
// concurrently with active appends: a torn tail ends the stream silently,
// exactly like recovery, and the caller bridges any remaining gap from the
// feed buffer or retries. Records logged before the latest snapshot are
// gone (truncated); the caller detects the gap from the first record's LSN
// and falls back to a full snapshot.
func (m *Manager) ReadFrom(afterSeq uint64, fn func(*Record) error) error {
	return replaySegments(m.dir, 0, func(rec *Record) error {
		if rec.LSN <= afterSeq {
			return nil
		}
		return fn(rec)
	})
}

func isNotOwnedErr(err error) bool {
	var notOwned *storage.ErrNotOwned
	return errors.As(err, &notOwned)
}

// Flush forces pending appends to stable storage.
func (m *Manager) Flush() error { return m.log.sync() }

// FlushAsync registers cb to run once everything appended so far is on
// stable storage, riding the group-commit machinery instead of blocking on
// an fsync of its own — the hook replica tails use to pipeline standby
// group commits. cb receives the last seq the flush covers. It runs on the
// WAL's committer goroutine (or inline, with ErrClosed, if the log is
// closed).
func (m *Manager) FlushAsync(cb func(uint64, error)) {
	m.log.requestSync(durableCb{seq: m.seq.Load(), fn: cb})
}

// Close flushes and closes the log.
func (m *Manager) Close() error { return m.log.close() }

// Crash is a test hook that abandons buffered data and closes the log
// without flushing, simulating the process being killed. Records whose acks
// were delivered are already durable; unacked ones may be lost — exactly
// the guarantee a real crash leaves.
func (m *Manager) Crash() { m.log.crash() }
