// Package migration implements live, chunked data migration between
// partitions — the Squall substitute. A reconfiguration follows the
// three-phase machine-pair schedule of §4.4.1 (plan.Schedule): rounds of
// parallel sender→receiver transfers, each moving an equal share of hash
// buckets, paced by a configurable chunk size and inter-chunk delay.
// Extraction and application run on the partitions' own executors, so
// migration work competes with regular transactions for the same cycles —
// faster migration means more latency interference (Fig 8).
package migration

//pstore:seeded — chaos runs replay migrations from PSTORE_CHAOS_SEED;
// randomness and timing decisions must flow from the configured seed.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/metrics"
	"pstore/internal/plan"
	"pstore/internal/storage"
)

// ErrInProgress is returned by Start when another reconfiguration of the
// same cluster has not finished yet: concurrent bucket moves would race on
// routing ownership.
var ErrInProgress = errors.New("migration: a reconfiguration is already in progress")

// Options tunes migration aggressiveness.
type Options struct {
	// BucketsPerChunk is how many buckets move per paced step (the paper's
	// chunk-size knob from Fig 8). Default 1.
	BucketsPerChunk int
	// ChunkInterval is the pause between chunks on each transfer pair
	// (Squall spaces chunks ≥ 100 ms; compressed-time experiments use
	// less). Default 1ms.
	ChunkInterval time.Duration
	// RateMultiplier scales aggressiveness for reactive catch-up (the
	// paper's "rate R×8"): it multiplies BucketsPerChunk and divides
	// ChunkInterval. Default 1.
	RateMultiplier int
	// MoveRetries is how many times a failed bucket move is retried (with
	// jittered exponential backoff from retryBackoff) before the
	// reconfiguration gives up. Reconfiguration runs exactly when nodes
	// stall and queues overflow, so a transient failure must not abort the
	// whole move. Default 3; negative disables retries.
	MoveRetries int
	// Seed fixes the PRNG behind retry-backoff jitter so chaos runs pinned
	// via PSTORE_CHAOS_SEED replay with identical retry spacing. Zero draws
	// a nondeterministic seed.
	Seed int64
	// FaultHook, when non-nil, is consulted at fixed points of each move
	// attempt: before the move starts, after the pre-copy stream (before
	// delta draining), and between the routing repoint and the destination
	// commit. A non-nil error fails the attempt at that point — the later
	// sites exercise the capture-abort and post-repoint rollback paths.
	// Chaos tests wire faultinject.Injector.MoveFault here; production
	// leaves it nil.
	FaultHook func(bucket, fromPart, toPart int) error
}

func (o Options) normalized() Options {
	if o.BucketsPerChunk <= 0 {
		o.BucketsPerChunk = 1
	}
	if o.ChunkInterval < 0 {
		o.ChunkInterval = 0
	} else if o.ChunkInterval == 0 {
		o.ChunkInterval = time.Millisecond
	}
	if o.RateMultiplier <= 0 {
		o.RateMultiplier = 1
	}
	if o.MoveRetries == 0 {
		o.MoveRetries = 3
	} else if o.MoveRetries < 0 {
		o.MoveRetries = 0
	}
	o.BucketsPerChunk *= o.RateMultiplier
	o.ChunkInterval /= time.Duration(o.RateMultiplier)
	return o
}

// Report summarizes a completed (or failed) reconfiguration. On failure the
// moved/remaining split and the failing pair tell the operator — and the
// resume path — exactly where the reconfiguration stopped.
type Report struct {
	FromNodes, ToNodes int
	Rounds             int
	// BucketsMoved counts buckets fully relocated, across the original run
	// and any resumes; BucketsRemaining is what a Resume still has to move.
	BucketsMoved     int
	BucketsRemaining int
	RowsMoved        int64
	// Retries counts bucket-move attempts that were retried after a
	// transient failure; Rollbacks counts moves rolled back to their source.
	Retries   int64
	Rollbacks int64
	Duration  time.Duration
	// FailedBucket/FailedFrom/FailedTo identify the move whose error ended
	// the run. FailedBucket is -1 when the run succeeded.
	FailedBucket int
	FailedFrom   int
	FailedTo     int
}

// Migration is a handle on an in-progress reconfiguration. A failed
// migration keeps its plan and per-bucket progress, so Resume can finish
// the reconfiguration without re-moving completed buckets.
type Migration struct {
	fromNodes, toNodes int
	totalBuckets       int64
	movedBuckets       atomic.Int64
	movedRows          atomic.Int64
	retries            atomic.Int64
	rollbacks          atomic.Int64

	// The plan, kept for Resume.
	opts    Options // already normalized
	rounds  []plan.Round
	moves   map[[2]int][]bucketMove
	retired []int

	// movedMu guards moved, the per-bucket progress record that makes
	// retried and resumed runs idempotent: a bucket in the set is never
	// extracted again.
	movedMu sync.Mutex
	moved   map[int]bool

	// cancel is closed when the run's first error is recorded, waking every
	// other transfer pair out of pacing and backoff sleeps so a failed
	// migration does not linger in time.Sleep.
	cancel     chan struct{}
	cancelOnce sync.Once

	// rng drives backoff jitter; seeded from Options.Seed so pinned chaos
	// runs replay with identical retry spacing.
	rng *lockedRand

	done   chan struct{}
	report *Report
	err    error
}

// newHandle builds a Migration with its runtime machinery (progress map,
// cancellation, seeded jitter source) initialized. opts must already be
// normalized.
func newHandle(opts Options) *Migration {
	return &Migration{
		opts:   opts,
		moved:  make(map[int]bool),
		cancel: make(chan struct{}),
		rng:    newLockedRand(opts.Seed),
		done:   make(chan struct{}),
	}
}

// abort wakes every sleeping transfer pair; idempotent.
func (m *Migration) abort() {
	m.cancelOnce.Do(func() { close(m.cancel) })
}

// canceled reports whether the run has already failed elsewhere.
func (m *Migration) canceled() bool {
	select {
	case <-m.cancel:
		return true
	default:
		return false
	}
}

// sleep pauses for d but returns early (false) if the run is canceled.
func (m *Migration) sleep(d time.Duration) bool {
	if d <= 0 {
		return !m.canceled()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-m.cancel:
		return false
	}
}

// lockedRand is a mutex-guarded rand.Rand: backoff jitter is drawn from
// concurrent transfer-pair goroutines, and rand.Rand itself is not safe for
// concurrent use.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	if seed == 0 {
		seed = rand.Int63() //pstore:ignore seeddiscipline — seed==0 explicitly requests a nondeterministic run; chaos tests always pass a seed
	}
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (r *lockedRand) Int63n(n int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Int63n(n)
}

func (m *Migration) isMoved(bucket int) bool {
	m.movedMu.Lock()
	defer m.movedMu.Unlock()
	return m.moved[bucket]
}

func (m *Migration) markMoved(bucket int) {
	m.movedMu.Lock()
	m.moved[bucket] = true
	m.movedMu.Unlock()
}

// MovedFraction returns the fraction of scheduled buckets already moved —
// the f of eff-cap(B, A, f).
func (m *Migration) MovedFraction() float64 {
	if m.totalBuckets == 0 {
		return 1
	}
	return float64(m.movedBuckets.Load()) / float64(m.totalBuckets)
}

// FromNodes returns the node count before the move.
func (m *Migration) FromNodes() int { return m.fromNodes }

// ToNodes returns the target node count.
func (m *Migration) ToNodes() int { return m.toNodes }

// Done is closed when the migration finishes.
func (m *Migration) Done() <-chan struct{} { return m.done }

// Wait blocks until completion and returns the report.
func (m *Migration) Wait() (*Report, error) {
	<-m.done
	return m.report, m.err
}

// bucketMove is one bucket's relocation.
type bucketMove struct {
	bucket   int
	fromPart int
	toPart   int
}

// Run performs a synchronous reconfiguration to targetNodes. See Start.
func Run(c *cluster.Cluster, targetNodes int, opts Options) (*Report, error) {
	m, err := Start(c, targetNodes, opts)
	if err != nil {
		return nil, err
	}
	return m.Wait()
}

// Start launches a reconfiguration of the cluster to targetNodes and
// returns a handle for progress monitoring. Scale-out adds the new nodes
// immediately (empty) and fills them per the schedule; scale-in drains the
// retiring nodes and removes them at the end.
func Start(c *cluster.Cluster, targetNodes int, opts Options) (*Migration, error) {
	opts = opts.normalized()
	if targetNodes < 1 {
		return nil, fmt.Errorf("migration: target must be ≥ 1, got %d", targetNodes)
	}
	if !c.BeginReconfiguration() {
		return nil, ErrInProgress
	}
	from := c.NumNodes()
	m := newHandle(opts)
	m.fromNodes = from
	m.toNodes = targetNodes
	if targetNodes == from {
		c.EndReconfiguration()
		m.report = &Report{FromNodes: from, ToNodes: targetNodes, FailedBucket: -1}
		close(m.done)
		return m, nil
	}

	// Machine numbering for plan.Schedule: 1..s are the persistent
	// machines, s+1..l the appearing (scale-out) or retiring (scale-in)
	// ones.
	nodes := c.Nodes()
	// Failover promotion rehomes a partition onto its standby's node, which
	// can leave the layout jagged — a node owning more or fewer slots than
	// PartitionsPerNode. The slot-indexed schedule below assumes a
	// rectangular layout, so refuse up front, before AddNode provisions
	// anything durable: the old behavior was an index panic *after* the new
	// node hit the manifest, stranding a half-scaled cluster on disk.
	for _, n := range nodes {
		if got, want := len(n.Partitions), c.PartitionsPerNode(); got != want {
			c.EndReconfiguration()
			return nil, fmt.Errorf("migration: node %d owns %d partitions, want %d (layout skewed by failovers); reconfiguration requires a rectangular layout", n.ID, got, want)
		}
	}
	var machines []cluster.Node // index i ↔ schedule machine i+1
	var retired []int
	if targetNodes > from {
		machines = append(machines, nodes...)
		for i := 0; i < targetNodes-from; i++ {
			machines = append(machines, c.AddNode())
		}
	} else {
		machines = append(machines, nodes[:targetNodes]...)
		machines = append(machines, nodes[targetNodes:]...)
		for _, n := range nodes[targetNodes:] {
			retired = append(retired, n.ID)
		}
	}

	moves, err := planBucketMoves(c, machines, from, targetNodes)
	if err != nil {
		c.EndReconfiguration()
		return nil, err
	}
	m.totalBuckets = int64(countMoves(moves))
	m.moves = moves
	m.rounds = plan.Schedule(from, targetNodes)
	m.retired = retired

	go m.run(c)
	return m, nil
}

// run executes the stored plan and publishes the report. The caller must
// hold the cluster's reconfiguration lock; run releases it.
func (m *Migration) run(c *cluster.Cluster) {
	start := time.Now() //pstore:ignore seeddiscipline — report observability only; Duration never feeds a migration decision
	err := m.execute(c, m.rounds, m.moves, m.opts)
	if err == nil {
		for _, id := range m.retired {
			if rerr := c.RemoveNode(id); rerr != nil {
				err = rerr
				break
			}
		}
	}
	rep := &Report{
		FromNodes:        m.fromNodes,
		ToNodes:          m.toNodes,
		Rounds:           len(m.rounds),
		BucketsMoved:     int(m.movedBuckets.Load()),
		BucketsRemaining: int(m.totalBuckets - m.movedBuckets.Load()),
		RowsMoved:        m.movedRows.Load(),
		Retries:          m.retries.Load(),
		Rollbacks:        m.rollbacks.Load(),
		Duration:         time.Since(start), //pstore:ignore seeddiscipline — report observability only
		FailedBucket:     -1,
	}
	var mf *moveFailure
	if errors.As(err, &mf) {
		rep.FailedBucket = mf.mv.bucket
		rep.FailedFrom = mf.mv.fromPart
		rep.FailedTo = mf.mv.toPart
	}
	m.report = rep
	m.err = err
	// Release before publishing: whoever Wait wakes may start or resume
	// the next reconfiguration at once.
	c.EndReconfiguration()
	close(m.done)
}

// Resume retries a failed reconfiguration from its recorded per-bucket
// progress: buckets already moved are skipped, the rest re-run the same
// three-phase schedule, and retiring nodes are removed once everything has
// landed. It returns a fresh handle sharing the original's progress; the
// receiver must already have finished with an error.
func (m *Migration) Resume(c *cluster.Cluster) (*Migration, error) {
	select {
	case <-m.done:
	default:
		return nil, errors.New("migration: still running, nothing to resume")
	}
	if m.err == nil {
		return nil, errors.New("migration: completed cleanly, nothing to resume")
	}
	if !c.BeginReconfiguration() {
		return nil, ErrInProgress
	}
	m2 := newHandle(m.opts)
	m2.fromNodes = m.fromNodes
	m2.toNodes = m.toNodes
	m2.totalBuckets = m.totalBuckets
	m2.rounds = m.rounds
	m2.moves = m.moves
	m2.retired = m.retired
	m.movedMu.Lock()
	for b := range m.moved {
		m2.moved[b] = true
	}
	m.movedMu.Unlock()
	m2.movedBuckets.Store(m.movedBuckets.Load())
	m2.movedRows.Store(m.movedRows.Load())
	m2.retries.Store(m.retries.Load())
	m2.rollbacks.Store(m.rollbacks.Load())
	go m2.run(c)
	return m2, nil
}

// moveFailure wraps a bucket move's terminal error with the move itself so
// the report can name the failing pair.
type moveFailure struct {
	mv  bucketMove
	err error
}

func (f *moveFailure) Error() string {
	return fmt.Sprintf("migration: bucket %d (%d→%d): %v", f.mv.bucket, f.mv.fromPart, f.mv.toPart, f.err)
}

func (f *moveFailure) Unwrap() error { return f.err }

// planBucketMoves computes, per machine pair and partition slot, which
// buckets move where, balancing every slot's bucket pool evenly across the
// target machines. machines[i] is schedule machine i+1; from/to give the
// move direction.
func planBucketMoves(c *cluster.Cluster, machines []cluster.Node, from, to int) (map[[2]int][]bucketMove, error) {
	p := c.PartitionsPerNode()
	counts := c.BucketCounts()
	total := len(machines) // = max(from, to)
	final := to

	// Per-partition owned buckets, fetched once.
	ownedOf := func(pid int) ([]int, error) {
		exec, ok := c.ExecutorOf(pid)
		if !ok {
			return nil, fmt.Errorf("migration: no executor for partition %d", pid)
		}
		var buckets []int
		err := exec.Do(func(part *storage.Partition) (int, error) {
			buckets = part.OwnedBuckets()
			return 0, nil
		})
		return buckets, err
	}

	scaleOut := to > from
	persistent := from // machines 1..s persist
	if !scaleOut {
		persistent = to
	}

	moves := make(map[[2]int][]bucketMove)
	for slot := 0; slot < p; slot++ {
		// The slot's bucket pool and current per-machine counts.
		pool := 0
		cur := make([]int, total)
		for i, node := range machines {
			pid := node.Partitions[slot]
			cur[i] = counts[pid]
			pool += counts[pid]
		}
		// donated[i][j]: buckets machine i gives to machine j. Persistent
		// machines and appearing/retiring machines have fixed roles, so
		// every move lies on a schedule pair.
		donated := make([][]int, total)
		for i := range donated {
			donated[i] = make([]int, total)
		}
		given := make([]int, total) // total donated by giver i
		taken := make([]int, total) // total received by taker j

		if scaleOut {
			// New machines take an even share; old machines keep the
			// remainder (+1s land on old machines first so slightly less
			// data moves).
			base, rem := pool/final, pool%final
			for j := persistent; j < total; j++ {
				want := base
				if rem > persistent && j-persistent < rem-persistent {
					want++
				}
				for k := 0; k < want; k++ {
					// Take from the old machine with the most left.
					giver := -1
					for i := 0; i < persistent; i++ {
						if cur[i]-given[i] > 0 && (giver < 0 || cur[i]-given[i] > cur[giver]-given[giver]) {
							giver = i
						}
					}
					if giver < 0 {
						return nil, errors.New("migration: pool exhausted while balancing scale-out")
					}
					donated[giver][j]++
					given[giver]++
					taken[j]++
				}
			}
		} else {
			// Retiring machines give everything; each bucket lands on the
			// survivor with the least so far.
			for i := persistent; i < total; i++ {
				for k := 0; k < cur[i]; k++ {
					taker := 0
					for j := 1; j < persistent; j++ {
						if cur[j]+taken[j] < cur[taker]+taken[taker] {
							taker = j
						}
					}
					donated[i][taker]++
					given[i]++
					taken[taker]++
				}
			}
		}

		// Materialize donation counts into concrete buckets, taken
		// deterministically from the tail of each giver's owned list.
		for i := 0; i < total; i++ {
			if given[i] == 0 {
				continue
			}
			owned, err := ownedOf(machines[i].Partitions[slot])
			if err != nil {
				return nil, err
			}
			if len(owned) < given[i] {
				return nil, fmt.Errorf("migration: machine %d slot %d owns %d buckets, needs to give %d",
					i+1, slot, len(owned), given[i])
			}
			pos := len(owned) - given[i]
			for j := 0; j < total; j++ {
				for k := 0; k < donated[i][j]; k++ {
					pair := [2]int{i + 1, j + 1} // schedule machine IDs
					moves[pair] = append(moves[pair], bucketMove{
						bucket:   owned[pos],
						fromPart: machines[i].Partitions[slot],
						toPart:   machines[j].Partitions[slot],
					})
					pos++
				}
			}
		}
	}
	return moves, nil
}

func countMoves(moves map[[2]int][]bucketMove) int {
	n := 0
	for _, ms := range moves {
		n += len(ms)
	}
	return n
}

// execute runs the schedule: rounds in sequence, transfers within a round
// in parallel, and each machine-level transfer's per-slot bucket lists
// moving concurrently (one partition pair per slot), chunk by chunk.
func (m *Migration) execute(c *cluster.Cluster, rounds []plan.Round, moves map[[2]int][]bucketMove, opts Options) error {
	var firstErr error
	var errMu sync.Mutex
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		// Wake every other transfer pair out of pacing/backoff sleeps: the
		// run is over, lingering in time.Sleep just delays the report.
		m.abort()
	}
	for _, round := range rounds {
		var wg sync.WaitGroup
		for _, tr := range round {
			pair := [2]int{tr.From, tr.To}
			list := moves[pair]
			if len(list) == 0 {
				continue
			}
			// Group this machine pair's moves by partition pair (slot).
			bySlot := make(map[[2]int][]bucketMove)
			for _, mv := range list {
				k := [2]int{mv.fromPart, mv.toPart}
				bySlot[k] = append(bySlot[k], mv)
			}
			for _, slotMoves := range bySlot {
				wg.Add(1)
				go func(slotMoves []bucketMove) {
					defer wg.Done()
					if err := m.movePaced(c, slotMoves, opts); err != nil {
						setErr(err)
					}
				}(slotMoves)
			}
		}
		wg.Wait()
		errMu.Lock()
		err := firstErr
		errMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// movePaced relocates the buckets chunk by chunk with pacing. Pacing sleeps
// abort early when another transfer pair has already failed the run.
func (m *Migration) movePaced(c *cluster.Cluster, list []bucketMove, opts Options) error {
	for i := 0; i < len(list); i += opts.BucketsPerChunk {
		end := i + opts.BucketsPerChunk
		if end > len(list) {
			end = len(list)
		}
		for _, mv := range list[i:end] {
			if err := m.moveBucket(c, mv, opts); err != nil {
				return err
			}
		}
		if end < len(list) && opts.ChunkInterval > 0 {
			if !m.sleep(opts.ChunkInterval) {
				return nil // run already failed elsewhere; its error wins
			}
		}
	}
	return nil
}

// errRollbackFailed marks a move whose rollback also failed: the bucket's
// location is ambiguous, so retrying the move could double-apply. The retry
// loop treats it as terminal.
var errRollbackFailed = errors.New("migration: rollback failed")

// moveBucket relocates one bucket, retrying transient failures with
// jittered exponential backoff. Each attempt either completes the move or
// rolls the bucket back to its source, so attempts are idempotent and a
// resumed migration can safely re-run any move that has not been recorded
// as done.
func (m *Migration) moveBucket(c *cluster.Cluster, mv bucketMove, opts Options) error {
	if m.isMoved(mv.bucket) {
		return nil // resumed run: this bucket already landed
	}
	var lastErr error
	for attempt := 0; attempt <= opts.MoveRetries; attempt++ {
		if attempt > 0 {
			m.retries.Add(1)
			c.Events().Add(metrics.EventMoveRetries, 1)
			if !m.sleep(backoff(m.rng, attempt-1)) {
				break // run already failed elsewhere; stop retrying
			}
		}
		err := m.moveBucketPreCopy(c, mv)
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, errRollbackFailed) {
			break // location ambiguous; retrying risks double-apply
		}
	}
	return &moveFailure{mv: mv, err: lastErr}
}

// backoff returns the exponential delay for the given retry (0-based) with
// ±50% jitter, so concurrent transfer pairs retrying against the same
// stalled node do not retry in lockstep. Jitter comes from the migration's
// seeded source, keeping pinned chaos runs reproducible.
func backoff(rng *lockedRand, retry int) time.Duration {
	if retry > 16 {
		retry = 16
	}
	d := retryBackoff << uint(retry)
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rng.Int63n(2*half))
}
