// Package replication makes partitions k-safe by shipping the per-partition
// command log to standby replicas: because executors are deterministic
// serial H-Store-style threads, a replica that replays the same commands in
// the same order reaches byte-identical state, so replication costs one log
// stream instead of a data pipeline.
//
// The pieces:
//
//   - Feed: the primary side. It implements engine.CommandLog, assigns each
//     record a log sequence number (LSN) and the partition's current epoch,
//     chains to the partition's durability manager when one exists, retains
//     a bounded tail of encoded records for catch-up, and fans records out
//     to subscribers. A transaction is acknowledged only after it is locally
//     durable AND every live subscriber has acked its LSN (synchronous
//     k-safety) — that is what makes failover lossless.
//   - Hub: a TCP log-shipping server. Replicas connect, subscribe with a
//     (partition, epoch, fromLSN) triple, and receive either an incremental
//     record stream, a disk catch-up (via the durability tail reader), or a
//     full snapshot followed by the live stream. The hub reads acks off the
//     same connection and advances the feed's replication horizon.
//   - Tail: the replica-side client. It dials the hub, subscribes from its
//     applied LSN, applies records through the Replica and acks them,
//     reconnecting with seeded jittered backoff after stream failures.
//   - Replica: a standby partition plus the deterministic apply loop,
//     session-consistent reads (wait until applied ≥ the client's session
//     LSN), epoch fencing (records from a deposed primary are rejected) and
//     promotion to primary.
//
// Epochs implement fencing: every promotion bumps the partition's epoch, a
// replica adopts the highest epoch it has seen and rejects records from any
// lower one, so a deposed primary that limps on can never ack or replicate
// another write.
package replication

//pstore:seeded — reconnect jitter must come from the injected seed so chaos
// runs replay deterministically; wall-clock use is limited to I/O deadlines
// and lag observability, marked where it occurs.

import (
	"errors"
	"time"
)

// Errors surfaced across the subsystem.
var (
	// ErrFenced marks writes rejected because the partition's feed was
	// deposed by a failover: a newer epoch exists, the write must not be
	// acknowledged or shipped.
	ErrFenced = errors.New("replication: primary fenced by a newer epoch")
	// ErrClosed is returned by operations on a closed feed or hub.
	ErrClosed = errors.New("replication: closed")
	// ErrQuorumLost marks writes shed because the primary lost contact with
	// its required subscriber quorum: rather than silently degrade to
	// local-only durability (and diverge if a standby is promoted around
	// it), the primary self-fences into read-only mode until the quorum
	// heals or a failover deposes it. Retryable — the monitor restores the
	// quorum (respawn or promotion) in the background.
	ErrQuorumLost = errors.New("replication: primary lost subscriber quorum")
	// ErrStaleRead marks a session read that timed out waiting for the
	// replica's horizon to cover the client's last written LSN.
	ErrStaleRead = errors.New("replication: replica horizon behind session")
	// ErrReplicaGone marks reads routed to a replica that was killed or
	// promoted out of standby duty.
	ErrReplicaGone = errors.New("replication: replica not serving")
	// ErrWindowFull marks writes pushed back pre-execution because the
	// feed's sliding window of unacked transactions is full — the
	// replication pipeline is saturated end to end (ship, standby fsync,
	// ack) and admitting more would only grow an unbounded in-flight set.
	// Retryable: the window drains as cumulative acks advance, so the
	// router's bounded retry loop absorbs the stall.
	ErrWindowFull = errors.New("replication: ack window full")
	// errStaleEpoch is the hub's rejection of a subscriber that has seen a
	// newer epoch than the feed — the feed belongs to a deposed primary.
	errStaleEpoch = errors.New("replication: subscriber epoch newer than feed")
)

// Options tunes the replication subsystem. The zero value selects the
// defaults documented per field.
type Options struct {
	// AckTimeout is how long the hub waits for a subscriber to make ack
	// progress on outstanding records before deposing it from the ack
	// quorum. Default 2s.
	AckTimeout time.Duration
	// StaleReadTimeout bounds how long a session read waits for the
	// replica's applied LSN to reach the session's LSN before the caller
	// falls back to the primary. Default 2s.
	StaleReadTimeout time.Duration
	// Seed seeds the tails' reconnect jitter so chaos runs are replayable.
	Seed int64
	// HealthInterval is the cadence of the cluster's primary health probe
	// loop; the cluster bounds each probe at five intervals. Default 50ms.
	HealthInterval time.Duration
	// RequiredSubscribers is the feed's ack-quorum size (the cluster wires
	// it to the replication factor k). Once a feed has seen this many live
	// subscribers simultaneously — the quorum is "armed" — dropping below
	// it self-fences the primary: new writes shed with ErrQuorumLost and
	// in-flight writes stall until the quorum heals or a failover fences
	// the feed. Before arming (fresh cluster, freshly promoted primary) the
	// feed degrades to local durability alone, availability over
	// redundancy. Zero disables self-fencing.
	RequiredSubscribers int

	// maxBuffer and ackWindowCap start at the constants of the same name;
	// in-package tests shrink them before the options reach a feed.
	maxBuffer    int
	ackWindowCap int
}

// Fixed mechanism parameters: no deployment sets them.
const (
	// maxBuffer bounds the encoded records a feed retains for incremental
	// catch-up; a live subscriber falling further behind is deposed and
	// must resync.
	maxBuffer = 8192
	// ackWindowCap bounds the feed's sliding window of unacked transactions
	// (appended, not yet both locally durable and replica-acked). When the
	// window is full, Available reports ErrWindowFull and the router
	// backpressures writes pre-execution rather than growing an unbounded
	// in-flight set.
	ackWindowCap = 4096
	// dialTimeout bounds each tail connection attempt and the hub's wait
	// for a subscribe request.
	dialTimeout = 2 * time.Second
	// retryBase is the tail's reconnect backoff base, doubled per attempt
	// with seeded ±50% jitter and capped at 1s.
	retryBase = 10 * time.Millisecond
	// maxBatchRecords caps the records coalesced into one multi-record
	// ship frame: everything admitted to a subscriber's queue during an
	// in-flight send is shipped as a single batch envelope (one write
	// syscall, one standby fsync, one cumulative ack), up to this many
	// records.
	maxBatchRecords = 128
	// maxBatchBytes caps a batch envelope's payload bytes, so one
	// oversized record burst cannot stall the ack pipeline behind a
	// megabyte frame. Sized to the ship stream's write buffer, keeping one
	// batch ≈ one syscall.
	maxBatchBytes = 64 << 10
)

// Normalized fills defaults.
func (o Options) Normalized() Options {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	if o.StaleReadTimeout <= 0 {
		o.StaleReadTimeout = 2 * time.Second
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 50 * time.Millisecond
	}
	if o.maxBuffer <= 0 {
		o.maxBuffer = maxBuffer
	}
	if o.ackWindowCap <= 0 {
		o.ackWindowCap = ackWindowCap
	}
	return o
}
