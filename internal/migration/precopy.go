package migration

import (
	"errors"
	"fmt"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/metrics"
	"pstore/internal/storage"
)

// The move's fixed costs. No caller tunes them; they are named so the
// protocol below reads in their terms.
const (
	// flipResidual is the residual delta (captured writes not yet replayed
	// at the destination) at or below which draining stops and the flip
	// runs. The flip pause is O(flipResidual + writes arriving during it).
	flipResidual = 16
	// maxDeltaRounds caps delta-drain rounds per move, so a write rate that
	// outruns draining cannot pre-copy forever: after this many rounds the
	// move flips and absorbs whatever residual remains.
	maxDeltaRounds = 6
	// retryBackoff is the base delay before the first retry of a failed
	// move; each further retry doubles it, with ±50% jitter.
	retryBackoff = 5 * time.Millisecond
)

// moveBucketPreCopy is one attempt of the pre-copy / delta-drain /
// atomic-flip protocol, the only bucket move. It touches the executors only
// in bounded visits:
//
//	Phase 1 — pre-copy. The source marks the bucket migrating and starts
//	capturing its writes into an ordered delta log (storage.BeginCapture),
//	then streams the bucket's snapshot to the destination in slices,
//	staged there as BucketPages encoded against the destination's own
//	schemas. A slice carries the smaller of the two executors'
//	MigrationSliceRows — rows that cost about one transaction to move —
//	and travels through the background lane (engine.DoBackground), behind
//	queued transactions, so a foreground transaction waits at most about
//	one transaction's worth of copying. The source copies slice i+1 while
//	the destination stages slice i. The bucket keeps serving reads and
//	writes at the source throughout.
//
//	Phase 2 — delta drain. Captured writes are drained in rounds and
//	replayed onto the destination's staged pages in capture order. Each
//	round shrinks the residual to the writes that arrived during the
//	round, so under any write rate the drain converges geometrically; the
//	loop stops when the residual is ≤ flipResidual or maxDeltaRounds is
//	hit.
//
//	Phase 3 — atomic flip. The only stop-the-world step: the source drains
//	the final residual and extracts the bucket's pages (O(tables) pointer
//	moves), routing repoints, and the destination stages the residual,
//	logs the staged pages' Data receiver-first (durable before visible)
//	and installs them with ApplyBucketPages by reference. The foreground
//	stall is O(residual delta), not O(bucket), and is recorded in the
//	cluster's MoveStalls histogram.
//
// Failure anywhere before the flip aborts the capture and discards the
// staging — the bucket never left the source, so the attempt leaves the
// cluster exactly as it found it. Failure after the repoint rolls back by
// repointing home and applying the extracted pages at the source, by
// reference since they carry the source's own schemas; if that fails the
// error wraps errRollbackFailed and the retry loop treats the move as
// terminal. The bucket is marked moved before the sender logs it out, and
// crash recovery resolves a dual claim in the receiver's favor.
func (m *Migration) moveBucketPreCopy(c *cluster.Cluster, mv bucketMove) error {
	srcExec, ok := c.ExecutorOf(mv.fromPart)
	if !ok {
		return fmt.Errorf("migration: no executor for source partition %d", mv.fromPart)
	}
	dstExec, ok := c.ExecutorOf(mv.toPart)
	if !ok {
		return fmt.Errorf("migration: no executor for destination partition %d", mv.toPart)
	}
	hook := m.opts.FaultHook
	if hook != nil {
		if err := hook(mv.bucket, mv.fromPart, mv.toPart); err != nil {
			return fmt.Errorf("before pre-copying bucket %d: %w", mv.bucket, err)
		}
	}

	// Phase 1: begin capture and collect the copy manifest. One short
	// executor visit — O(bucket keys) to list, no row copying.
	sliceRows := min(srcExec.MigrationSliceRows(), dstExec.MigrationSliceRows())
	var slices []storage.CopySlice
	err := srcExec.Do(func(p *storage.Partition) (int, error) {
		var err error
		slices, err = p.BeginCapture(mv.bucket, sliceRows)
		return 0, err
	})
	if err != nil {
		return fmt.Errorf("migration: begin capture of bucket %d on partition %d: %w", mv.bucket, mv.fromPart, err)
	}

	// abortMove undoes everything an unflipped attempt did: capture state
	// at the source, staged pages at the destination. The bucket stayed
	// owned and live at the source the whole time, so this restores the
	// pre-attempt state exactly.
	abortMove := func() {
		_ = srcExec.Do(func(p *storage.Partition) (int, error) {
			p.AbortCapture(mv.bucket)
			return 0, nil
		})
		_ = dstExec.Do(func(p *storage.Partition) (int, error) {
			p.DiscardStaged(mv.bucket)
			return 0, nil
		})
		m.rollbacks.Add(1)
		c.Events().Add(metrics.EventMoveRollbacks, 1)
	}

	copied, err := m.preCopy(srcExec, dstExec, mv.bucket, slices)
	if err != nil {
		abortMove()
		return fmt.Errorf("migration: pre-copying bucket %d (%d→%d): %w", mv.bucket, mv.fromPart, mv.toPart, err)
	}
	c.Events().Add(metrics.EventPreCopyRows, int64(copied))

	if hook != nil {
		// Second injection site: capture is live and the snapshot is staged
		// at the destination — a failure here exercises the capture-abort
		// path before any delta has drained.
		if err := hook(mv.bucket, mv.fromPart, mv.toPart); err != nil {
			abortMove()
			return fmt.Errorf("during delta drain of bucket %d: %w", mv.bucket, err)
		}
	}

	// Phase 2: drain rounds until the residual delta is small enough to
	// absorb inside the flip pause.
	deltaRows := 0
	for round := 0; round < maxDeltaRounds; round++ {
		c.Events().Add(metrics.EventDeltaRounds, 1)
		var ops []storage.DeltaOp
		err := srcExec.Do(func(p *storage.Partition) (int, error) {
			var err error
			ops, err = p.DrainDelta(mv.bucket)
			return len(ops), err
		})
		if err == nil && len(ops) > 0 {
			err = dstExec.DoBackground(func(p *storage.Partition) (int, error) {
				return len(ops), p.StageDelta(mv.bucket, ops)
			})
		}
		if err != nil {
			abortMove()
			return fmt.Errorf("migration: draining delta of bucket %d (round %d): %w", mv.bucket, round, err)
		}
		deltaRows += len(ops)
		// The residual is whatever was captured while this round's batch
		// was in flight; flip once it is below threshold.
		residual := 0
		err = srcExec.Do(func(p *storage.Partition) (int, error) {
			residual = p.DeltaLen(mv.bucket)
			return 0, nil
		})
		if err != nil {
			abortMove()
			return fmt.Errorf("migration: sizing residual delta of bucket %d: %w", mv.bucket, err)
		}
		if residual <= flipResidual {
			break
		}
	}

	// Phase 3: the flip. Everything from the extraction to the destination's
	// apply is the foreground stall window — transactions for the bucket
	// requeue through the cluster's bounded retry loop until the apply lands.
	stallStart := time.Now() //pstore:ignore seeddiscipline — stall-window observability only; never feeds a migration decision
	var pages *storage.BucketPages
	var final []storage.DeltaOp
	err = srcExec.Do(func(p *storage.Partition) (int, error) {
		var err error
		if final, err = p.DrainDelta(mv.bucket); err != nil {
			return 0, err
		}
		pages, err = p.ExtractBucketPages(mv.bucket)
		return len(final), err
	})
	if err != nil {
		abortMove()
		return fmt.Errorf("migration: extracting bucket %d from partition %d: %w", mv.bucket, mv.fromPart, err)
	}
	c.SetOwner(mv.bucket, mv.toPart)
	dstMgr := c.HandoffOf(mv.toPart)
	if hook != nil {
		// Third injection site: the bucket is extracted and routing points
		// at the destination — a failure here must roll back the flip.
		err = hook(mv.bucket, mv.fromPart, mv.toPart)
	}
	committed := 0
	if err == nil {
		err = dstExec.Do(func(p *storage.Partition) (int, error) {
			if err := p.StageDelta(mv.bucket, final); err != nil {
				return 0, err
			}
			staged := p.Staged(mv.bucket)
			if dstMgr != nil {
				// Durable before visible: the receiver's log can rebuild the
				// assembled bucket before any transaction runs against it here.
				if err := dstMgr.LogBucketIn(staged.Data()); err != nil {
					return 0, err
				}
			}
			committed = staged.RowCount()
			// Charge only the final delta: the staged rows already paid their
			// transfer cost when they streamed through StageRows, and the
			// apply is O(tables) pointer installs.
			return len(final), p.ApplyBucketPages(staged)
		})
	}
	if err != nil {
		applyErr := fmt.Errorf("migration: committing bucket %d to partition %d: %w", mv.bucket, mv.toPart, err)
		c.SetOwner(mv.bucket, mv.fromPart)
		rbErr := srcExec.Do(func(p *storage.Partition) (int, error) {
			return 0, p.ApplyBucketPages(pages)
		})
		_ = dstExec.Do(func(p *storage.Partition) (int, error) {
			p.DiscardStaged(mv.bucket)
			return 0, nil
		})
		if rbErr != nil {
			return fmt.Errorf("%w after %v: restoring bucket %d to partition %d: %w",
				errRollbackFailed, applyErr, mv.bucket, mv.fromPart, rbErr)
		}
		m.rollbacks.Add(1)
		c.Events().Add(metrics.EventMoveRollbacks, 1)
		return applyErr
	}
	c.MoveStalls().Observe(time.Since(stallStart)) //pstore:ignore seeddiscipline — stall-window observability only
	c.Events().Add(metrics.EventDeltaRows, int64(deltaRows+len(final)))

	// The bucket now lives at the destination: record progress before the
	// sender-side handoff log, so a failure below is reported but never
	// re-moves the bucket (recovery resolves dual claims in the receiver's
	// favor, matching this choice).
	m.markMoved(mv.bucket)
	m.movedBuckets.Add(1)
	m.movedRows.Add(int64(committed))
	if srcMgr := c.HandoffOf(mv.fromPart); srcMgr != nil {
		if err := srcMgr.LogBucketOut(mv.bucket); err != nil {
			return fmt.Errorf("%w: logging bucket %d out of partition %d: %w",
				errRollbackFailed, mv.bucket, mv.fromPart, err)
		}
	}
	return nil
}

// stageRows stages one copied batch at the destination; a variable so tests
// can fail the destination mid-stream.
var stageRows = (*storage.Partition).StageRows

// preCopy streams the snapshot slices through both executors' background
// lanes, pipelined: a stager goroutine stages slice i at the destination
// while the source copies slice i+1, and the one-deep channel between them
// keeps at most one copied batch waiting. Each batch aliases the source
// bucket's append-only arena pages, so handing it across executors copies
// slice headers, not rows. preCopy returns only after the stager has
// finished, so on error the caller's DiscardStaged never races a StageRows.
func (m *Migration) preCopy(src, dst *engine.Executor, bucket int, slices []storage.CopySlice) (copied int, err error) {
	batches := make(chan *storage.TupleBatch, 1)
	failed := make(chan struct{}) // closed when a stage fails: stop copying
	staged := make(chan error, 1)
	go func() {
		var err error
		for batch := range batches {
			if err != nil {
				continue // drain, so the copier never blocks on a dead stage
			}
			err = dst.DoBackground(func(p *storage.Partition) (int, error) {
				return batch.Len(), stageRows(p, bucket, batch)
			})
			if err != nil {
				close(failed)
			}
		}
		staged <- err
	}()
stream:
	for _, s := range slices {
		select {
		case <-failed:
			break stream
		case <-m.cancel:
			err = errors.New("canceled: run failed elsewhere")
			break stream
		default:
		}
		var batch *storage.TupleBatch
		err = src.DoBackground(func(p *storage.Partition) (int, error) {
			var err error
			batch, err = p.CopyRows(bucket, s)
			if batch == nil {
				return 0, err
			}
			return batch.Len(), err
		})
		if err != nil {
			break
		}
		batches <- batch
		copied += batch.Len()
	}
	close(batches)
	if stageErr := <-staged; err == nil {
		err = stageErr
	}
	return copied, err
}
