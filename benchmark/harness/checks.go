package harness

import (
	"fmt"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/storage"
)

// checkOwnership verifies, on a quiesced cluster, that every bucket is held
// by exactly one partition, that this partition is the one the routing table
// names, and that the rows the buckets hold add up to TotalRows — no row
// lost, stranded or doubled by a move.
func checkOwnership(c *cluster.Cluster) error {
	holders := make([]int, c.NBuckets())
	for i := range holders {
		holders[i] = -1
	}
	bucketRows := 0
	counts := c.BucketCounts()
	for _, e := range c.Executors() {
		pid := e.Partition()
		var owned []int
		rows := 0
		err := e.Do(func(p *storage.Partition) (int, error) {
			owned = p.OwnedBuckets()
			for _, b := range owned {
				rows += p.BucketRowCount(b)
			}
			return 0, nil
		})
		if err != nil {
			return err
		}
		if len(owned) != counts[pid] {
			return fmt.Errorf("partition %d holds %d buckets, routing table gives it %d", pid, len(owned), counts[pid])
		}
		for _, b := range owned {
			if holders[b] >= 0 {
				return fmt.Errorf("bucket %d held by partitions %d and %d", b, holders[b], pid)
			}
			holders[b] = pid
			if routed := c.OwnerOf(b); routed != pid {
				return fmt.Errorf("bucket %d held by partition %d but routed to %d", b, pid, routed)
			}
		}
		bucketRows += rows
	}
	for b, pid := range holders {
		if pid < 0 {
			return fmt.Errorf("bucket %d has no owner", b)
		}
	}
	total, err := c.TotalRows()
	if err != nil {
		return err
	}
	if total != bucketRows {
		return fmt.Errorf("TotalRows %d, owned buckets hold %d", total, bucketRows)
	}
	return nil
}

// verifyReplicas waits for the standbys to converge and compares each with
// its primary; it returns how long the catch-up took.
func verifyReplicas(c *cluster.Cluster) (time.Duration, error) {
	start := time.Now()
	if err := c.WaitReplicasCaughtUp(30 * time.Second); err != nil {
		return 0, err
	}
	caughtUp := time.Since(start)
	return caughtUp, c.VerifyReplicas()
}
